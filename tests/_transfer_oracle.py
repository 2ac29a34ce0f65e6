"""Per-pair references for the transfer moves and the free-tree enumeration.

The move legality that finds T1, T2, T3 by one depth-first search per
ordered neighbour pair, the move result rebuilt as a WeightedGraph, the
Hasse diagram that codes every move result by canonical_form of that
graph, and the free trees deduplicated by canonical_form of one
WeightedGraph per rooted level sequence. treewalk.transfers derives the
moves for a whole family from one batched rooted pass and keys results
by batched AHU relabelling of edited edge rows; the outputs must be
equal, floats bit for bit.
"""

from graphlib import TopologicalSorter

from _enumeration import components as graph_components
from treewalk.errors import ConsistencyError, GraphError
from treewalk.graphs import WeightedGraph, _rooted_level_sequences, canonical_form
from treewalk.transfers import MODE_SIZE, HasseDiagram, TransferMove, _strictly_greater


def components(t, v1, v2, v3):
    """Components of T minus {(v1, v2), (v2, v3)} containing v1, v2, v3."""
    by_vertex = {}
    for block in graph_components(t, removed=((v1, v2), (v2, v3))):
        for x in block:
            by_vertex[x] = block
    return by_vertex[v1], by_vertex[v2], by_vertex[v3]


def standalone_volume(t, block):
    """Volume of a component as a graph of its own: twice its internal weight.

    Added one by one in edge order, so every Python version gives the
    same bits (3.12's ``sum`` compensates).
    """
    total = 0.0
    for u, v, w in t.edges:
        if u in block and v in block:
            total += w
    return 2.0 * total


def component_stats(t, v1, v2, v3, mode):
    b1, b2, _ = components(t, v1, v2, v3)
    if mode == MODE_SIZE:
        return float(len(b1)), float(len(b2))
    return standalone_volume(t, b1), standalone_volume(t, b2)


def legal_moves(t, mode):
    t.require_tree()
    moves = []
    for v2 in range(t.n):
        nbrs = [v for v, _ in t.neighbors[v2]]
        for v1 in nbrs:
            for v3 in nbrs:
                if v1 != v3:
                    s1, s2 = component_stats(t, v1, v2, v3, mode)
                    if _strictly_greater(s1, s2):
                        moves.append(TransferMove(v1, v2, v3, mode, s1, s2))
    return moves


def apply_move(t, move):
    v1, v2, v3 = move.v1, move.v2, move.v3
    w2 = t.weight(v2, v3)
    out = WeightedGraph(t.n, tuple(e for e in t.edges if {e[0], e[1]} != {v2, v3}) + ((v1, v3, w2),))
    if not out.is_tree():
        raise ConsistencyError(f"move {move} did not leave a tree")
    return out


def build_hasse(trees, mode):
    """The Hasse diagram with every move found per pair and every result built and coded."""
    codes = [canonical_form(t) for t in trees]
    order = sorted(range(len(trees)), key=lambda i: codes[i])
    nodes = tuple(codes[i] for i in order)
    reps = tuple(trees[i] for i in order)
    index = {code: i for i, code in enumerate(nodes)}
    successors = []
    for i, t in enumerate(reps):
        succ = set()
        for move in legal_moves(t, mode):
            j = index.get(canonical_form(apply_move(t, move)))
            if j is None:
                raise GraphError("move left the provided family")
            if j != i:
                succ.add(j)
        successors.append(succ)
    reach, covers = {}, []
    for i in TopologicalSorter(dict(enumerate(successors))).static_order():
        below = set().union(*(reach[j] for j in successors[i]))
        reach[i] = successors[i] | below
        covers.extend((i, j) for j in successors[i] - below)
    return HasseDiagram(mode=mode, nodes=nodes, representatives=reps, covers=tuple(sorted(covers)))


def free_trees(n):
    """One tree per class: the first level sequence met, sorted by canonical code."""
    if n == 1:
        return [WeightedGraph(1, ())]
    reps = {}
    for levels in _rooted_level_sequences(n):
        parents = [max(j for j in range(i) if levels[j] == levels[i] - 1) for i in range(1, n)]
        t = WeightedGraph(n, tuple((p, i, 1.0) for i, p in enumerate(parents, start=1)))
        reps.setdefault(canonical_form(t), t)
    return [reps[c] for c in sorted(reps)]
