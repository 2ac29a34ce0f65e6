"""Scalar reference for the lockstep Monte Carlo walker.

One trial at a time, one step at a time, in plain Python ints: the
walker `simulate.estimate_hitting` must return the identical
`WalkEstimate` for every input. It reads `simulate.STEP_CAP` at call
time so a patched cap applies to both sides. Trial i's step count does
not depend on the trial count, so the estimate for any prefix of the
trials comes from one list of per-trial steps.
"""

from bisect import bisect_right
from math import sqrt

from treewalk import simulate
from treewalk.errors import GraphError
from treewalk.simulate import WalkEstimate, Xorshift64Star, mix64


def scalar_estimate_hitting(g, start, target, trials, seed):
    return estimate_from_steps(scalar_trial_steps(g, start, target, trials, seed), seed)


def scalar_trial_steps(g, start, target, trials, seed):
    """The step count of each trial 0 .. trials - 1."""
    g.require_connected()
    g._check_vertex(start)
    g._check_vertex(target)
    if trials < 1:
        raise GraphError("trials must be >= 1")

    nbrs = []
    cums = []
    for v in range(g.n):
        vs = [u for u, _ in g.neighbors[v]]
        acc = []
        running = 0.0
        for _, w in g.neighbors[v]:
            running += w
            acc.append(running)
        nbrs.append(vs)
        cums.append(acc)

    base = mix64(seed & simulate._MASK)
    counts = []
    for trial in range(trials):
        rng = Xorshift64Star(base ^ trial)
        next_float = rng.next_float
        cur = start
        steps = 0
        while cur != target:
            cum = cums[cur]
            x = next_float() * cum[-1]
            i = bisect_right(cum, x)
            if i == len(cum):  # float rounding at the top end
                i -= 1
            cur = nbrs[cur][i]
            steps += 1
            if steps > simulate.STEP_CAP:
                raise GraphError(f"walk exceeded {simulate.STEP_CAP} steps; sampling is broken")
        counts.append(steps)
    return counts


def estimate_from_steps(counts, seed):
    trials = len(counts)
    total = sum(counts)
    total_sq = sum(steps * steps for steps in counts)
    mean = total / trials
    if trials > 1:
        var = (total_sq - trials * mean * mean) / (trials - 1)
        var = max(var, 0.0)
    else:
        var = 0.0
    return WalkEstimate(mean=mean, stderr=sqrt(var / trials), trials=trials, seed=seed)
