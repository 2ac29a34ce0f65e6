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

One kernel does the work for a whole family of k trees on n vertices,
as arrays. One batched leaf peeling roots every tree at a centre and
gives each vertex its parent, subtree size and preorder interval. Every
ordered pair of adjacent edges is then a candidate move: T1 is v1's side
of (v1, v2) and T3 is v3's side of (v2, v3), both seen from v2, and T2
is the rest. Sizes come from subtree sizes; a block's volume sums the
weights of the edges inside it in edge order. A move's result is the
tree's edge rows with (v2, v3) replaced by (v1, v3), and ``build_hasse``
finds it in the family by an integer key: batched AHU relabelling (Aho,
Hopcroft & Ullman 1974) over the family and the results together.
Moves go through the kernel in chunks (see ``_CHUNK``), so memory stays
bounded on large trees. ``legal_moves`` and ``apply_move`` run the same
kernel on one tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import repeat

import numpy as np

from .errors import ConsistencyError, GraphError
from .extremal import _classes
from .forests import stats
from .graphs import WeightedGraph, _weight_classes, canonical_form, format_weight

MODE_SIZE = "size"
MODE_VOLUME = "volume"

LEGALITY_RTOL = 1e-12        # strict ">" with a float-tie guard
MONOTONE_MARGIN_RTOL = 1e-10
FAMILY_MAX = 50_000

# Moves per chunk on k trees of n vertices: max(_CHUNK // n, min(k, _CHUNK)). The vertex slots of
# a chunk's results stay near _CHUNK, unless the family is larger: build_hasse keys the family
# again with every chunk, and this bounds that overhead to about the work of keying the results.
_CHUNK = 1 << 15


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


def _strictly_greater(a, b):
    """``a > b`` with a float-tie guard, on floats or element-wise on arrays."""
    return a - b > LEGALITY_RTOL * np.maximum(np.abs(a), np.abs(b))


def _peel_layers(n: int, u: np.ndarray, v: np.ndarray):
    """Leaf layers of k trees on n vertices at once, as ``graphs._peel`` finds them one tree at a time.

    ``u`` and ``v`` hold each tree's edges as (k, n - 1) rows. Vertex x
    of tree i is ``i * n + x`` and edge r of it ``i * (n - 1) + r``.
    Every vertex keeps the XOR of its unpeeled neighbours and of their
    edges, so a leaf reads its one neighbour and edge from them. Returns
    ``(layers, centre, mate, central)``: each layer is (leaves, their
    neighbours, the edges between), peeled while the tree had more than
    two vertices left; ``centre`` lists the vertices never peeled, one or
    two per tree, and for two centres ``mate`` is the other one and
    ``central`` the edge between them (-1 for a lone centre).
    """
    k = len(u)
    shift = np.arange(0, k * n, n)[:, None]
    gu, gv, rows = (u + shift).ravel(), (v + shift).ravel(), np.arange(u.size)
    degree = np.bincount(gu, minlength=k * n) + np.bincount(gv, minlength=k * n)
    neighbor = np.zeros(k * n, np.int64)
    edge = np.zeros(k * n, np.int64)
    for a, b in ((gu, gv), (gv, gu)):
        np.bitwise_xor.at(neighbor, a, b)
        np.bitwise_xor.at(edge, a, rows)
    del gu, gv, rows  # not needed by the rounds below, which a deep tree makes many of
    left = np.full(k, n)
    last = np.empty(k * n, np.int64)  # where a vertex last occurs in the next layer's candidates
    layer = np.flatnonzero(degree == 1) if n > 2 else np.empty(0, np.int64)
    layers = []
    while layer.size:
        up, e = neighbor[layer], edge[layer]
        layers.append((layer, up, e))
        np.subtract.at(left, layer // n, 1)
        np.bitwise_xor.at(neighbor, up, layer)
        np.bitwise_xor.at(edge, up, e)
        np.subtract.at(degree, up, 1)
        degree[layer] = -1
        nxt = up[degree[up] == 1]
        last[nxt] = np.arange(nxt.size)
        nxt = nxt[last[nxt] == np.arange(nxt.size)]  # once each
        layer = nxt[left[nxt // n] > 2]
    centre = np.flatnonzero(degree >= 0)
    paired = degree[centre] == 1
    return layers, centre, np.where(paired, neighbor[centre], -1), np.where(paired, edge[centre], -1)


class _Trees:
    """k trees on n vertices as arrays, each rooted at a centre (the lower of two).

    ``u``, ``v``, ``w`` hold the edges as (k, n - 1) rows in edge order;
    ``parent``, ``size`` and ``pre`` are (k, n): the parent (-1 at the
    root), the subtree size and the preorder number of every vertex, so
    y lies in x's subtree iff pre[x] <= pre[y] < pre[x] + size[x].
    ``row`` gives every non-root vertex the edge row to its parent.
    """

    def __init__(self, trees) -> None:
        k, n = len(trees), trees[0].n
        e = np.array([t.edges for t in trees], dtype=float).reshape(k, n - 1, 3)
        self.n, self.u, self.v, self.w = n, e[..., 0].astype(np.int64), e[..., 1].astype(np.int64), e[..., 2]
        layers, centre, mate, _ = _peel_layers(n, self.u, self.v)
        parent = np.full(k * n, -1)
        size = np.ones(k * n, np.int64)
        for layer, up, _ in layers:
            parent[layer] = up
            np.add.at(size, up, size[layer])
        high = (mate >= 0) & (mate < centre)
        below = centre[high]  # the higher of two centres hangs below the lower
        parent[below] = mate[high]
        size[parent[below]] += size[below]
        # a child's preorder number follows its parent's and its earlier siblings' subtrees
        kids = np.flatnonzero(parent >= 0)
        kids = kids[np.argsort(parent[kids], kind="stable")]
        start = np.cumsum(size[kids]) - size[kids]
        skip = np.zeros(k * n, np.int64)
        skip[kids] = 1 + start - start[np.searchsorted(parent[kids], parent[kids])]
        pre = np.zeros(k * n, np.int64)
        for layer in [below, *(layer for layer, _, _ in reversed(layers))]:
            pre[layer] = pre[parent[layer]] + skip[layer]
        shift = np.repeat(np.arange(0, k * n, n), n)
        self.parent = np.where(parent >= 0, parent - shift, -1).reshape(k, n)
        self.size, self.pre = size.reshape(k, n), pre.reshape(k, n)
        lower = np.where(self.parent[np.arange(k)[:, None], self.u] == self.v, self.u, self.v)
        self.row = np.zeros((k, n), np.int64)
        np.put_along_axis(self.row, lower, np.arange(n - 1), axis=1)

    def triples(self):
        """Every move (tree, v1, v2, v3) in chunks (see ``_CHUNK``).

        Ordered by tree, then as ``legal_moves`` lists them: v2, then v1,
        then v3 ascending. Half-edges (v2, v1) are sorted so; the j-th
        move of one is its j-th sibling half-edge, skipping itself.
        """
        k, n = self.u.shape[0], self.n
        tree = np.tile(np.repeat(np.arange(k), n - 1), 2)
        at, to = np.concatenate((self.u.ravel(), self.v.ravel())), np.concatenate((self.v.ravel(), self.u.ravel()))
        order = np.argsort((tree * n + at) * n + to)
        tree, at, to = tree[order], at[order], to[order]
        group = tree * n + at
        start = np.searchsorted(group, group)  # the first half-edge at the same vertex
        count = np.bincount(group, minlength=k * n)[group] - 1
        total = np.cumsum(count)  # moves up to and including each half-edge's
        moves = int(total[-1]) if total.size else 0
        step = max(_CHUNK // n, min(k, _CHUNK))
        for a in range(0, moves, step):
            q = np.arange(a, min(a + step, moves))
            h = np.searchsorted(total, q, side="right")
            j = q - total[h] + count[h]
            h3 = start[h] + j + (j >= h - start[h])
            yield tree[h], to[h], at[h], to[h3]

    def blocks(self, t, v1, v2, v3) -> np.ndarray:
        """Per move, the block (1, 2 or 3 for T1, T2, T3) of every vertex: (moves, n) int8."""
        pre = self.pre[t]

        def side(a):  # a's side of (v2, a): a's subtree, or all but v2's
            child = self.parent[t, a] == v2
            top = np.where(child, a, v2)
            lo = self.pre[t, top][:, None]
            return ((pre >= lo) & (pre < lo + self.size[t, top][:, None])) ^ ~child[:, None]

        return np.where(side(v1), 1, np.where(side(v3), 3, 2)).astype(np.int8)

    def stats(self, t, v1, v2, v3, mode: str) -> tuple[np.ndarray, np.ndarray]:
        """The compared statistics of T1 and T2: sizes, or volumes as graphs of their own.

        A block's own volume is twice the weight of the edges inside it,
        added one by one in edge order (a ``cumsum``, not a pairwise sum).
        """
        if mode == MODE_SIZE:
            def side(a):
                return np.where(self.parent[t, a] == v2, self.size[t, a], self.n - self.size[t, v2])

            s1, s3 = side(v1), side(v3)
            return s1.astype(float), (self.n - s1 - s3).astype(float)
        block = self.blocks(t, v1, v2, v3)
        bu = np.take_along_axis(block, self.u[t], axis=1)
        bv = np.take_along_axis(block, self.v[t], axis=1)
        w = self.w[t]
        s1, s2 = (2.0 * np.cumsum(np.where((bu == b) & (bv == b), w, 0.0), axis=1)[:, -1] for b in (1, 2))
        return s1, s2

    def legal(self, mode: str):
        """Per chunk of moves, the legal ones as (tree, v1, v2, v3) and their statistics."""
        for move in self.triples():
            s1, s2 = self.stats(*move, mode)
            ok = _strictly_greater(s1, s2)
            yield tuple(x[ok] for x in move), s1[ok], s2[ok]

    def moved(self, t, v1, v2, v3) -> tuple[np.ndarray, np.ndarray]:
        """Edge rows of the move results: the tree's, with the row of (v2, v3) now (v1, v3).

        A legal move leaves a tree: v1 lies outside v3's side of (v2, v3).
        """
        row = self.row[t, np.where(self.parent[t, v3] == v2, v3, v2)]
        u, v = self.u[t], self.v[t]  # fancy indexing copies
        u[np.arange(len(t)), row], v[np.arange(len(t)), row] = v1, v3
        return u, v


def _keys(n: int, u: np.ndarray, v: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Per tree of k on n vertices, an integer equal for two trees iff they
    are isomorphic with their edge labels.

    ``u``, ``v`` and ``label`` hold (k, n - 1) edge rows. AHU relabelling
    over the leaf layers of all trees at once: each layer gives every
    peeled vertex the class of (label of its edge up, sorted classes of
    its children) in one ``_classes`` call, numbered past the layers
    before. The centres are classed last, with the central edge's label
    or -1, and a tree's key is the class of its sorted centre classes.
    """
    k = len(u)
    layers, centre, _, central = _peel_layers(n, u, v)
    label = np.append(label, -1)  # a lone centre's central edge, -1, reads label -1
    rounds = [(layer, label[e]) for layer, _, e in layers] + [(centre, label[central])]
    when, slot = np.empty(k * n, np.int64), np.empty(k * n, np.int64)
    for r, (xs, _) in enumerate(rounds):
        when[xs], slot[xs] = r, np.arange(len(xs))
    # every peeled vertex fills a cell of its parent's row: children grouped by the parent's round
    kid = np.concatenate([layer for layer, _, _ in layers] or [np.empty(0, np.int64)])
    parent = np.concatenate([up for _, up, _ in layers] or [np.empty(0, np.int64)])
    order = np.argsort(when[parent] * (k * n) + parent, kind="stable")
    kid, parent = kid[order], parent[order]
    group = when[parent] * (k * n) + parent
    row, col = slot[parent], 1 + np.arange(len(group)) - np.searchsorted(group, group)
    bounds = np.searchsorted(group, np.arange(len(rounds) + 1) * (k * n))
    cls = np.empty(k * n, np.int64)
    offset = 0
    for r, (xs, up) in enumerate(rounds):
        cells = slice(bounds[r], bounds[r + 1])
        table = np.full((len(xs), 1 + col[cells].max(initial=0)), -1, np.int64)
        table[:, 0] = up
        table[row[cells], col[cells]] = cls[kid[cells]]
        table[:, 1:].sort(axis=1)
        cls[xs] = _classes(table) + offset
        offset = int(cls[xs].max()) + 1
    pair = np.full((k, 2), -1, np.int64)
    pair[centre // n, np.r_[False, centre[1:] // n == centre[:-1] // n].astype(int)] = cls[centre]
    return _classes(np.sort(pair, axis=1))


def legal_moves(t: WeightedGraph, mode: str) -> list[TransferMove]:
    """All legal moves, both orientations of every adjacent edge pair."""
    _check_mode(mode)
    t.require_tree()
    moves = []
    for (_, v1, v2, v3), s1, s2 in _Trees([t]).legal(mode):
        moves += map(TransferMove, v1.tolist(), v2.tolist(), v3.tolist(), repeat(mode), s1.tolist(), s2.tolist())
    return moves


def apply_move(t: WeightedGraph, move: TransferMove) -> WeightedGraph:
    """Tree with e2 = (v2, v3) replaced by (v1, v3) at the same weight."""
    t.require_tree()
    tree = _Trees([t])
    v1, v2, v3 = move.v1, move.v2, move.v3
    parent = tree.parent[0].tolist()
    if not (
        v1 != v3
        and all(0 <= x < t.n for x in (v1, v2, v3))
        and all(parent[x] == v2 or parent[v2] == x for x in (v1, v3))
    ):
        raise GraphError("move edges not present in tree")
    one = np.zeros(1, np.int64), np.array([v1]), np.array([v2]), np.array([v3])
    if not _strictly_greater(*tree.stats(*one, move.mode))[0]:
        raise GraphError("illegal move: component statistics not strictly decreasing")
    u, v = tree.moved(*one)
    out = WeightedGraph(t.n, tuple(zip(u[0].tolist(), v[0].tolist(), tree.w[0].tolist())))
    if not out.is_tree():
        raise ConsistencyError(f"move {move} did not leave a tree")
    return out


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
    multiset; every move result must land back in the family. Each chunk
    of legal moves is keyed together with the family (family first) and
    looked up among the family's keys; the first chunk with a result
    outside the family stops the scan.
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

    family = _Trees(reps)
    k, label = len(reps), _weight_classes(family.w)
    successors: list[set[int]] = [set() for _ in reps]
    for move, _, _ in family.legal(mode):
        if not move[0].size:
            continue
        u, v = family.moved(*move)
        keys = _keys(family.n, np.concatenate((family.u, u)), np.concatenate((family.v, v)),
                     np.concatenate((label, label[move[0]])))
        index = np.full(int(keys.max()) + 1, -1)
        index[keys[:k]] = np.arange(k)
        found = index[keys[k:]]
        if (found < 0).any():
            raise GraphError("move left the provided family; family is incomplete")
        for i, j in zip(move[0].tolist(), found.tolist()):
            if i != j:
                successors[i].add(j)

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
