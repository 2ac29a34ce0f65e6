"""Edge-transfer moves on weighted trees and the partial orders they induce.

A move picks two edges e1 = (v1, v2) and e2 = (v2, v3) meeting at v2,
names the components of T minus {e1, e2} containing v1, v2, v3 as
T1, T2, T3, and replaces e2 by (v1, v3) carrying the same weight. The
move is legal in "size" mode when |T1| > |T2| and in "volume" mode when
the standalone volumes satisfy vol(T1) > vol(T2); a legal size move
strictly decreases the average hitting time and a legal volume move
strictly decreases Kemeny's constant. Iterating moves over a family of
trees with a fixed weight multiset yields a partial order whose Hasse
diagram this module constructs and renders as DOT.

One rooted pass per tree gives, for every tree edge xy, the bitmask of
the vertices on y's side. T1 is v1's side of (v1, v2) and T3 is v3's
side of (v2, v3), both seen from v2; T2 is the rest. Every move of a
tree, its legality and its components come from that one pass, and
each block's volume is summed once per tree. ``build_hasse`` finds a
move's result by its canonical code, made from the tree's neighbour
lists with the moved edge swapped, not from a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .errors import ConsistencyError, GraphError
from .graphs import WeightedGraph, _tree_code, canonical_form, format_weight, rooted_order
from .forests import stats

MODE_SIZE = "size"
MODE_VOLUME = "volume"

LEGALITY_RTOL = 1e-12        # strict ">" with a float-tie guard
MONOTONE_MARGIN_RTOL = 1e-10
FAMILY_MAX = 50_000


@dataclass(frozen=True)
class TransferMove:
    """A legal edge transfer: keep e1 = (v1, v2), move e2 = (v2, v3) to (v1, v3).

    ``t1_stat`` / ``t2_stat`` are the compared component statistics
    (sizes in "size" mode, standalone volumes in "volume" mode) and
    satisfy the strict legality inequality t1_stat > t2_stat.
    """

    v1: int
    v2: int
    v3: int
    mode: str
    t1_stat: float
    t2_stat: float


@dataclass(frozen=True)
class HasseDiagram:
    """Transitive reduction of transfer reachability over canonical trees.

    Nodes are sorted canonical codes; ``covers`` holds index pairs
    (greater, smaller).
    """

    mode: str
    nodes: tuple[str, ...]
    representatives: tuple[WeightedGraph, ...]
    covers: tuple[tuple[int, int], ...]

    def maximal(self) -> tuple[int, ...]:
        targets = {j for _, j in self.covers}
        return tuple(i for i in range(len(self.nodes)) if i not in targets)

    def minimal(self) -> tuple[int, ...]:
        sources = {i for i, _ in self.covers}
        return tuple(i for i in range(len(self.nodes)) if i not in sources)


def _check_mode(mode: str) -> None:
    if mode not in (MODE_SIZE, MODE_VOLUME):
        raise GraphError(f"unknown transfer mode {mode!r}")


def _sides(t: WeightedGraph) -> dict[tuple[int, int], int]:
    """For every ordered tree edge (x, y), the bitmask of the vertices on y's side.

    One rooted pass: the side below an edge is the child's subtree, the
    side above it is the rest of the tree.
    """
    t.require_tree()
    order, parent = rooted_order(t)
    below = [1 << x for x in range(t.n)]
    for x in reversed(order[1:]):
        below[parent[x]] |= below[x]
    full = (1 << t.n) - 1
    sides = {}
    for x in order[1:]:
        sides[parent[x], x] = below[x]
        sides[x, parent[x]] = full ^ below[x]
    return sides


def _blocks(
    t: WeightedGraph, sides: dict[tuple[int, int], int], v1: int, v2: int, v3: int
) -> tuple[int, int, int]:
    """Bitmasks of T1, T2, T3 for the move (v1, v2, v3): v1's and v3's sides seen from v2, and the rest."""
    if v1 == v3 or (v2, v1) not in sides or (v2, v3) not in sides:
        raise GraphError("move edges not present in tree")
    b1, b3 = sides[v2, v1], sides[v2, v3]
    return b1, ((1 << t.n) - 1) ^ b1 ^ b3, b3


def _stats(
    t: WeightedGraph, sides: dict[tuple[int, int], int], v1: int, v2: int, v3: int, mode: str,
    volumes: dict[int, float],
) -> tuple[float, float]:
    """The compared statistics of T1 and T2: sizes, or volumes as graphs of their own.

    A block's own volume is twice its internal weight. ``volumes`` keeps
    the volumes computed so far for this tree.
    """
    b1, b2, _ = _blocks(t, sides, v1, v2, v3)
    if mode == MODE_SIZE:
        return float(b1.bit_count()), float(b2.bit_count())
    for b in (b1, b2):
        if b not in volumes:
            volumes[b] = 2.0 * sum(w for u, v, w in t.edges if b >> u & 1 and b >> v & 1)
    return volumes[b1], volumes[b2]


def _strictly_greater(a: float, b: float) -> bool:
    return a - b > LEGALITY_RTOL * max(abs(a), abs(b))


def legal_moves(t: WeightedGraph, mode: str) -> list[TransferMove]:
    """All legal moves, both orientations of every adjacent edge pair."""
    _check_mode(mode)
    sides = _sides(t)
    volumes: dict[int, float] = {}
    moves = []
    for v2 in range(t.n):
        nbrs = [v for v, _ in t.neighbors[v2]]
        for v1 in nbrs:
            for v3 in nbrs:
                if v1 == v3:
                    continue
                s1, s2 = _stats(t, sides, v1, v2, v3, mode, volumes)
                if _strictly_greater(s1, s2):
                    moves.append(TransferMove(v1, v2, v3, mode, s1, s2))
    return moves


def apply_move(t: WeightedGraph, move: TransferMove) -> WeightedGraph:
    """Tree with e2 = (v2, v3) replaced by (v1, v3) at the same weight."""
    s1, s2 = _stats(t, _sides(t), move.v1, move.v2, move.v3, move.mode, {})
    if not _strictly_greater(s1, s2):
        raise GraphError("illegal move: component statistics not strictly decreasing")
    neighbors = _moved_neighbors(t, move)
    out = WeightedGraph(t.n, tuple((u, v, w) for u, a in enumerate(neighbors) for v, w in a if u < v))
    if not out.is_tree():
        raise ConsistencyError(f"move {move} did not leave a tree")
    return out


def _moved_neighbors(t: WeightedGraph, move: TransferMove) -> list[tuple[tuple[int, float], ...]]:
    """The neighbour lists of ``t`` with e2 = (v2, v3) moved to (v1, v3); only v1, v2 and v3 change.
    For a move of ``legal_moves(t)`` they form a tree: v1 lies outside v3's side of (v2, v3)."""
    v1, v2, v3 = move.v1, move.v2, move.v3
    w2 = t.weight(v2, v3)
    neighbors = list(t.neighbors)
    neighbors[v1] = neighbors[v1] + ((v3, w2),)
    neighbors[v2] = tuple(p for p in neighbors[v2] if p[0] != v3)
    neighbors[v3] = tuple(p for p in neighbors[v3] if p[0] != v2) + ((v1, w2),)
    return neighbors


def verify_monotonicity(t: WeightedGraph, move: TransferMove) -> tuple[float, float]:
    """(stat before, stat after) for a legal move; asserts strict decrease.

    The statistic is the average hitting time for size moves and
    Kemeny's constant for volume moves; both are theorems, so a
    violation is an implementation bug.
    """
    k = 0 if move.mode == MODE_SIZE else 1  # alpha or kappa
    before = stats(t)[k]
    after = stats(apply_move(t, move))[k]
    if not before - after > MONOTONE_MARGIN_RTOL * abs(before):
        raise ConsistencyError(
            f"{move.mode} move failed to strictly decrease its statistic: "
            f"{before!r} -> {after!r}"
        )
    return before, after


def build_hasse(trees: list[WeightedGraph], mode: str) -> HasseDiagram:
    """Hasse diagram of transfer reachability over a complete family.

    ``trees`` must be pairwise non-isomorphic and share one edge-weight
    multiset; every move result must land back in the family.
    """
    _check_mode(mode)
    if not trees:
        raise GraphError("empty tree family")
    if len(trees) > FAMILY_MAX:
        raise GraphError(f"family exceeds guard of {FAMILY_MAX} trees")
    multiset = trees[0].weight_multiset()
    for t in trees[1:]:
        if t.weight_multiset() != multiset:
            raise GraphError("trees do not share one weight multiset")
    codes = [canonical_form(t) for t in trees]  # kept by trees that were coded before
    if len(set(codes)) != len(codes):
        raise GraphError("trees are not pairwise non-isomorphic")

    order = sorted(range(len(trees)), key=codes.__getitem__)
    nodes = tuple(codes[i] for i in order)
    reps = tuple(trees[i] for i in order)
    index = {c: i for i, c in enumerate(nodes)}

    successors: list[set[int]] = []
    for i, t in enumerate(reps):
        succ = set()
        for move in legal_moves(t, mode):
            j = index.get(_tree_code(t.n, _moved_neighbors(t, move)))
            if j is None:
                raise GraphError("move left the provided family; family is incomplete")
            if j != i:
                succ.add(j)
        successors.append(succ)

    # bottom-up over the move DAG: a move's result is visited before the tree
    # it came from; i covers the successors that no other successor reaches
    try:
        order = list(TopologicalSorter(dict(enumerate(successors))).static_order())
    except CycleError as exc:
        raise ConsistencyError(f"{mode} moves lead back to a tree they left: {exc.args[1]}") from exc
    reach: dict[int, set[int]] = {}
    covers = []
    for i in order:
        below = set().union(*(reach[j] for j in successors[i]))
        reach[i] = successors[i] | below
        covers.extend((i, j) for j in successors[i] - below)
    return HasseDiagram(mode=mode, nodes=nodes, representatives=reps, covers=tuple(sorted(covers)))


def hasse_to_dot(diagram: HasseDiagram) -> str:
    """Deterministic DOT rendering; edges point from greater to smaller."""
    lines = ["digraph hasse {", '  rankdir=TB;', '  node [shape=box];']
    for i, tree in enumerate(diagram.representatives):
        degs = ",".join(str(d) for d in tree.degree_sequence())
        weights = ",".join(format_weight(w) for w in tree.weight_multiset())
        lines.append(f'  n{i} [label="deg=({degs})\\nw=({weights})"];')
    for i, j in diagram.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
