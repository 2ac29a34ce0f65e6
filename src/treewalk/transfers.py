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
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .errors import ConsistencyError, GraphError
from .graphs import WeightedGraph, canonical_form, format_weight
from .forests import alpha_forest, kappa_forest

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


def transfer_components(
    t: WeightedGraph, v1: int, v2: int, v3: int
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Components of T minus {e1, e2} containing v1, v2, v3 respectively."""
    blocks = t.components(removed=((v1, v2), (v2, v3)))
    by_vertex = {}
    for block in blocks:
        for x in block:
            by_vertex[x] = block
    return by_vertex[v1], by_vertex[v2], by_vertex[v3]


def _standalone_volume(t: WeightedGraph, block: frozenset[int]) -> float:
    """Volume of a component as a graph of its own: twice its internal weight."""
    return 2.0 * sum(w for u, v, w in t.edges if u in block and v in block)


def _component_stats(
    t: WeightedGraph, v1: int, v2: int, v3: int, mode: str
) -> tuple[float, float]:
    b1, b2, _ = transfer_components(t, v1, v2, v3)
    if mode == MODE_SIZE:
        return float(len(b1)), float(len(b2))
    return _standalone_volume(t, b1), _standalone_volume(t, b2)


def _strictly_greater(a: float, b: float) -> bool:
    return a - b > LEGALITY_RTOL * max(abs(a), abs(b))


def legal_moves(t: WeightedGraph, mode: str) -> list[TransferMove]:
    """All legal moves, both orientations of every adjacent edge pair."""
    _check_mode(mode)
    t.require_tree()
    moves = []
    for v2 in range(t.n):
        nbrs = [v for v, _ in t.neighbors[v2]]
        for v1 in nbrs:
            for v3 in nbrs:
                if v1 == v3:
                    continue
                s1, s2 = _component_stats(t, v1, v2, v3, mode)
                if _strictly_greater(s1, s2):
                    moves.append(TransferMove(v1, v2, v3, mode, s1, s2))
    return moves


def apply_move(t: WeightedGraph, move: TransferMove) -> WeightedGraph:
    """Tree with e2 = (v2, v3) replaced by (v1, v3) at the same weight."""
    v1, v2, v3 = move.v1, move.v2, move.v3
    if not (t.has_edge(v1, v2) and t.has_edge(v2, v3)):
        raise GraphError("move edges not present in tree")
    s1, s2 = _component_stats(t, v1, v2, v3, move.mode)
    if not _strictly_greater(s1, s2):
        raise GraphError("illegal move: component statistics not strictly decreasing")
    w2 = t.weight(v2, v3)
    edges = tuple(e for e in t.edges if {e[0], e[1]} != {v2, v3}) + ((v1, v3, w2),)
    out = WeightedGraph(t.n, edges)
    if not out.is_tree():
        raise ConsistencyError(f"move {move} did not leave a tree")
    return out


def verify_monotonicity(t: WeightedGraph, move: TransferMove) -> tuple[float, float]:
    """(stat before, stat after) for a legal move; asserts strict decrease.

    The statistic is the average hitting time for size moves and
    Kemeny's constant for volume moves; both are theorems, so a
    violation is an implementation bug.
    """
    stat = alpha_forest if move.mode == MODE_SIZE else kappa_forest
    before = stat(t)
    after = stat(apply_move(t, move))
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
    codes = [canonical_form(t) for t in trees]
    if len(set(codes)) != len(codes):
        raise GraphError("trees are not pairwise non-isomorphic")

    order = sorted(range(len(trees)), key=lambda i: codes[i])
    nodes = tuple(codes[i] for i in order)
    reps = tuple(trees[i] for i in order)
    index = {code: i for i, code in enumerate(nodes)}

    successors: list[set[int]] = []
    for i, t in enumerate(reps):
        succ = set()
        for move in legal_moves(t, mode):
            code = canonical_form(apply_move(t, move))
            j = index.get(code)
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
