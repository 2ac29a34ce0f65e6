"""Monte Carlo random-walk hitting-time estimation with a portable RNG.

The generator is written out in full (splitmix64 seeding feeding
xorshift64*) so the exact sample sequence can be reproduced in any
language from the constants below; platform default generators are
deliberately avoided. Trials are independent: trial i seeds its own
stream with mix64(seed) XOR i, so a parallel split by trial index yields
the identical estimate. The same independence lets all trials of a block
advance together on numpy uint64 arrays, whose shifts, xors and wrapping
multiplies are exactly the 64-bit integer arithmetic written out below.
The xorshift state update is linear over GF(2), so a stream's next
states can also be computed all at once by applying its powers.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from math import sqrt
from operator import length_hint

import numpy as np

from .errors import GraphError
from .graphs import WeightedGraph
from .walks import check_finite

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STAR = 0x2545F4914F6CDD1D

STEP_CAP = 10**9
LOCKSTEP_BLOCK = 1 << 14  # trials per block; bounds memory for any trial count
TAIL_TRIALS = 256  # fewer live trials than this finish one at a time
TAIL_DRAWS = 1 << 13  # bound on the draws one round of the tail generates, over all its trials
GUIDE_ENTRIES = 1 << 13  # guide table size bound, vertices times 2^(leading bits >= 1)


def mix64(x: int) -> int:
    """splitmix64 finalizer; also doubles as the seed/trial hash."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def _xorshift(x: int) -> int:
    """One xorshift64 state update."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK
    return x ^ (x >> 27)


class Xorshift64Star:
    """xorshift64* stream; state is never zero thanks to the seed mix."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = mix64(seed & _MASK) or _GOLDEN

    def next_u64(self) -> int:
        self.state = s = _xorshift(self.state)
        return (s * _STAR) & _MASK

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class WalkEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int


def estimate_hitting(
    g: WeightedGraph, start: int, target: int, trials: int, seed: int
) -> WalkEstimate:
    """Sample mean and standard error of the hitting time from start to target.

    Each step samples a neighbor with probability proportional to edge
    weight by inverting the per-vertex cumulative weight array. A trial
    exceeding the step cap aborts: on a connected graph the walk hits
    almost surely, so the cap only trips on sampling bugs.

    Trials run in lockstep blocks of LOCKSTEP_BLOCK on uint64 state
    arrays; a guide table indexed by each draw's leading bits settles
    most steps in one lookup. The last TAIL_TRIALS live trials of a block
    finish one by one in Python, from their own states, over draws
    generated in bulk. Every trial draws exactly the numbers it would
    draw alone, so the estimate does not depend on the block layout.
    """
    g.require_connected()
    g._check_vertex(start)
    g._check_vertex(target)
    if trials < 1:
        raise GraphError("trials must be >= 1")
    if start == target:
        return WalkEstimate(mean=0.0, stderr=0.0, trials=trials, seed=seed)

    # an infinite total would send every draw to the last neighbour
    check_finite(g.degrees, "weighted degrees")
    walk = _Tables(g)
    base = np.uint64(mix64(seed & _MASK))
    total = 0
    total_sq = 0
    for lo in range(0, trials, LOCKSTEP_BLOCK):
        s = _mix64_array(base ^ np.arange(lo, min(lo + LOCKSTEP_BLOCK, trials), dtype=np.uint64))
        s[s == 0] = _GOLDEN
        cur = np.full(len(s), start, dtype=np.intp)
        steps = 0
        while len(s) >= TAIL_TRIALS:
            steps += 1
            if steps > STEP_CAP:
                raise _step_cap_error()
            cur = walk.step(s, cur)
            live = cur != target
            k = len(cur) - int(np.count_nonzero(live))
            if k:
                total += steps * k
                total_sq += steps * steps * k
                s, cur = s[live], cur[live]
        tail, tail_sq = walk.finish(s, cur, target, steps)
        total += tail
        total_sq += tail_sq

    mean = total / trials
    if trials > 1:
        var = (total_sq - trials * mean * mean) / (trials - 1)
        var = max(var, 0.0)
    else:
        var = 0.0
    return WalkEstimate(mean=mean, stderr=sqrt(var / trials), trials=trials, seed=seed)


def _step_cap_error() -> GraphError:
    return GraphError(f"walk exceeded {STEP_CAP} steps; sampling is broken")


def _advance(s: np.ndarray) -> None:
    """One xorshift64 state update of every state in s, in place."""
    s ^= s >> np.uint64(12)
    s ^= s << np.uint64(25)
    s ^= s >> np.uint64(27)


# offset of each byte of a native uint64, least significant first, in a byte table
_BYTE_OFFSETS = 256 * (np.arange(8) if sys.byteorder == "little" else np.arange(7, -1, -1))


def _apply(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A GF(2)-linear map of 64-bit words, given by its byte table, on every element of x.

    Entry 256 * k + v of the table is the image of the word v << 8k; the
    image of a word is the xor of the images of its eight bytes.
    """
    b = np.ascontiguousarray(x).view(np.uint8).reshape(-1, 8).T + _BYTE_OFFSETS[:, None]
    y = table[b[0]]
    for row in b[1:]:
        y ^= table[row]
    return y.reshape(x.shape)


@cache
def _jump_tables() -> list[np.ndarray]:
    """Byte tables of the state update raised to the powers 1, 2, 4, ... below TAIL_DRAWS."""
    cols = np.array([_xorshift(1 << i) for i in range(64)], dtype=np.uint64).reshape(8, 8)
    tables = []
    for _ in range((TAIL_DRAWS - 1).bit_length()):
        table = np.zeros((8, 256), dtype=np.uint64)
        for k in range(8):
            table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ cols[:, k : k + 1]
        tables.append(table.ravel())
        cols = _apply(tables[-1], cols)  # the columns of the squared map
    return tables


def _states_ahead(s: np.ndarray, width: int) -> np.ndarray:
    """Row i holds the next `width` states of stream s[i], in order.

    The first comes from one update; the rest by doubling, applying the
    update's power 2^j to the first 2^j states of every row at once.
    """
    ahead = np.empty((len(s), width), dtype=np.uint64)
    ahead[:, 0] = s
    _advance(ahead[:, 0])
    done = 1
    for table in _jump_tables():
        if done >= width:
            break
        m = min(done, width - done)
        ahead[:, done : done + m] = _apply(table, ahead[:, :m])
        done += m
    return ahead


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array; numpy's wrapping arithmetic is the & _MASK."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


class _Tables:
    """Running weight sums per vertex, as Python lists and as CSR arrays.

    Row v of the CSR arrays spans flat indices before[v] + 1 .. last[v].
    The vectorised bisect_right is a binary lift over powers of two below
    the largest degree; an index past last[v] reads last[v], the row's
    total, which exceeds x unless x rounded up to it, and then the
    top-end clamp picks last[v] anyway.

    The guide table has an entry per vertex v and value b of a draw's
    leading `bits` bits: the neighbour that every draw with those bits
    picks at v, or -1 where they pick different ones. The pick is
    monotone in the draw, so the draws at both ends of the range decide.
    """

    def __init__(self, g: WeightedGraph):
        self.cums: list[list[float]] = []
        nbrs: list[list[int]] = []
        for v in range(g.n):
            acc: list[float] = []
            running = 0.0
            for _, w in g.neighbors[v]:
                running += w
                acc.append(running)
            nbrs.append([u for u, _ in g.neighbors[v]])
            self.cums.append(acc)
        # a draw that rounds up to the row total picks the last neighbour
        self.clamped = [row + row[-1:] for row in nbrs]
        self.totals = [row[-1] if row else 0.0 for row in self.cums]
        deg = np.array([len(row) for row in self.cums], dtype=np.intp)
        self.flat = np.array([c for row in self.cums for c in row], dtype=np.float64)
        self.nbr = np.array([u for row in nbrs for u in row], dtype=np.intp)
        self.last = np.cumsum(deg) - 1
        self.before = self.last - deg
        self.top = self.flat[self.last]
        self.lifts = [1 << b for b in reversed(range(int(deg.max()).bit_length()))]

        self.bits = max(1, (GUIDE_ENTRIES // g.n).bit_length() - 1)
        self.lead = np.uint64(64 - self.bits)  # shift from a 64-bit output to its leading bits
        span = 53 - self.bits  # a 53-bit draw's bits below the leading ones
        v = np.repeat(np.arange(g.n), 1 << self.bits)
        lo = np.tile(np.arange(1 << self.bits, dtype=np.uint64), g.n) << np.uint64(span)
        first = self.pick(v, lo)
        same = first == self.pick(v, lo | np.uint64((1 << span) - 1))
        self.guide = np.where(same, self.nbr[first], -1)
        self.hops = self.guide.reshape(g.n, -1).tolist()

    def pick(self, cur: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Flat index of the neighbour that the 53-bit draw r picks at each vertex of cur."""
        x = r.astype(np.float64) * 2.0**-53 * self.top[cur]
        last = self.last[cur]
        j = self.before[cur]  # last flat index whose running sum is <= x
        for lift in self.lifts:
            np.add(j, lift, out=j, where=self.flat[np.minimum(j + lift, last)] <= x)
        return np.minimum(j + 1, last)  # float rounding at the top end

    def step(self, s: np.ndarray, cur: np.ndarray) -> np.ndarray:
        """Advance every state in s in place and return the next vertices."""
        _advance(s)
        out = s * np.uint64(_STAR)
        nxt = self.guide[(cur << self.bits) + (out >> self.lead).astype(np.intp)]
        if nxt.min() < 0:
            lanes = np.flatnonzero(nxt < 0)
            nxt[lanes] = self.nbr[self.pick(cur[lanes], out[lanes] >> np.uint64(11))]
        return nxt

    def finish(self, s: np.ndarray, cur: np.ndarray, target: int, steps: int) -> tuple[int, int]:
        """Walk each trial on from cur after `steps` steps, one at a time.

        Returns the sum and the sum of squares of the trials' totals.
        Every round draws the next `width` numbers of each live stream in
        bulk; width doubles while the trials last, and TAIL_DRAWS bounds
        a round's draws. Each step looks up the draw's leading bits in
        the guide table and bisects only where they do not settle it. A
        trial that hits early leaves its surplus draws unused, exactly as
        if they had never been drawn.
        """
        cums, totals, clamped, hops = self.cums, self.totals, self.clamped, self.hops
        cur = cur.tolist()
        total = total_sq = 0
        width = 16
        while cur:
            width = min(2 * width, TAIL_DRAWS // len(cur))
            ahead = _states_ahead(s, width)
            out = ahead * np.uint64(_STAR)
            live: list[int] = []
            live_cur: list[int] = []
            for i, (row, v) in enumerate(zip((out >> self.lead).tolist(), cur)):
                draws = iter(row)  # a list iterator knows how many draws it has left
                for b in draws:
                    w = hops[v][b]
                    if w < 0:  # the draw's leading bits do not settle the step
                        k = width - length_hint(draws) - 1
                        x = (int(out[i, k]) >> 11) * 2.0**-53 * totals[v]
                        w = clamped[v][bisect_right(cums[v], x)]
                    v = w
                    if v == target:
                        break
                else:
                    live.append(i)
                    live_cur.append(v)
                    continue
                t = steps + width - length_hint(draws)
                if t > STEP_CAP:
                    raise _step_cap_error()
                total += t
                total_sq += t * t
            steps += width
            if live and steps >= STEP_CAP:
                raise _step_cap_error()
            s, cur = ahead[live, -1], live_cur
        return total, total_sq
