"""Weighted-graph representation, TWG text format, tree utilities, and enumeration.

Vertices are dense indices ``0..n-1``. Edges are undirected and loop-free,
carry positive real weights, and appear at most once per unordered pair.
Everything here is an immutable value; all operations are pure.

The TWG text format::

    # optional comment lines anywhere
    <n>
    <u> <v> <weight>
    ...

Weights serialize with up to 12 significant digits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConsistencyError, DisconnectedError, GraphError, NotATreeError, TwgParseError

WEIGHT_FORMAT = ".12g"

FREE_TREE_MAX = 10

_TWG_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def format_weight(w: float) -> str:
    return format(w, WEIGHT_FORMAT)


def sig12(x: float) -> float:
    """x rounded to the 12 significant digits that reports carry."""
    return float(format(x, WEIGHT_FORMAT))


def _checked_edge(n: int, u, v, w, seen: set[tuple[int, int]]) -> tuple[int, int, float]:
    """One edge of a graph on n vertices, validated and normalized to (min, max, float).

    ``seen`` holds the vertex pairs accepted so far; this one joins it.
    """
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        raise GraphError(f"vertex indices must be integers, got ({u!r}, {v!r})") from None
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
    w = float(w)
    if not (w > 0.0) or not math.isfinite(w):
        raise GraphError(f"edge ({u}, {v}) weight must be positive and finite, got {w}")
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
    seen.add(key)
    return key[0], key[1], w


@dataclass(frozen=True)
class WeightedGraph:
    """Loopless undirected graph with positive edge weights.

    ``edges`` is normalized at construction to a sorted tuple of
    ``(u, v, w)`` with ``u < v``. Connectivity is deliberately not an
    invariant; operations that need it call :meth:`require_connected`.
    It is computed at most once per graph, like the neighbour lists.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"vertex count must be positive, got {self.n}")
        seen: set[tuple[int, int]] = set()
        normalized = [_checked_edge(self.n, u, v, w, seen) for u, v, w in self.edges]
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @classmethod
    def _from_columns(cls, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> "WeightedGraph":
        """``WeightedGraph(n, zip(u, v, w))`` from nonempty int64 and float64 columns.

        The edge rules are checked as whole-array predicates. When one
        fails, a GraphError that names no edge is raised; ``parse_twg``
        then reads the text line by line for the numbered error.
        """
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        if (
            lo[0] < 0
            or hi.max() >= n
            or (lo == hi).any()
            or not (np.isfinite(w) & (w > 0.0)).all()
            or ((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])).any()
        ):
            raise GraphError("an edge breaks the edge rules")
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", tuple(zip(lo.tolist(), hi.tolist(), w.tolist())))
        return g

    # -- basic accessors -------------------------------------------------

    @cached_property
    def neighbors(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-vertex tuple of (neighbor, weight), sorted by neighbor."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> tuple[float, ...]:
        d = [0.0] * self.n
        for u, v, w in self.edges:
            d[u] += w
            d[v] += w
        return tuple(d)

    @property
    def vol(self) -> float:
        """Volume of the whole graph: sum of all weighted degrees.

        Added one by one in vertex order, so every Python version gives
        the same bits (3.12's ``sum`` compensates).
        """
        total = 0.0
        for d in self.degrees:
            total += d
        return total

    @cached_property
    def _weight_index(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    def degree(self, u: int) -> float:
        self._check_vertex(u)
        return self.degrees[u]

    def volume(self, vertices: Iterable[int]) -> float:
        """Sum of degrees over a vertex subset, degrees taken in this graph.

        This is the ambient volume: for a subgraph it generally differs
        from the subgraph's own internal volume.
        """
        total = 0.0
        for u in vertices:
            self._check_vertex(u)
            total += self.degrees[u]
        return total

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._weight_index

    def weight(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        try:
            return self._weight_index[key]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def subgraph_weight(self, edge_pairs: Iterable[tuple[int, int]]) -> float:
        """Product of the weights of the given edges; empty product is 1."""
        w = 1.0
        for u, v in edge_pairs:
            w *= self.weight(u, v)
        return w

    def weight_multiset(self) -> tuple[float, ...]:
        """Edge weights sorted descending."""
        return tuple(sorted((w for _, _, w in self.edges), reverse=True))

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range for n={self.n}")

    # -- structure predicates --------------------------------------------

    def components(self, removed: Iterable[tuple[int, int]] = ()) -> tuple[frozenset[int], ...]:
        """Connected components after deleting ``removed`` edges, sorted by min vertex."""
        banned = set()
        for u, v in removed:
            if not self.has_edge(u, v):
                raise GraphError(f"no edge ({u}, {v})")
            banned.add((u, v) if u < v else (v, u))
        seen = [False] * self.n
        blocks = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            block = [start]
            while stack:
                x = stack.pop()
                for y, _ in self.neighbors[x]:
                    key = (x, y) if x < y else (y, x)
                    if key in banned or seen[y]:
                        continue
                    seen[y] = True
                    stack.append(y)
                    block.append(y)
            blocks.append(frozenset(block))
        return tuple(sorted(blocks, key=min))

    @cached_property
    def _connected(self) -> bool:
        """Union-find with path halving over the edges, stopped once one component is left."""
        merges = self.n - 1  # unions still needed
        if len(self.edges) < merges:
            return False
        root = list(range(self.n))
        for u, v, _ in self.edges:
            if not merges:
                break
            while root[u] != u:
                root[u] = u = root[root[u]]
            while root[v] != v:
                root[v] = v = root[root[v]]
            if u != v:
                root[u] = v
                merges -= 1
        return not merges

    def is_connected(self) -> bool:
        return self._connected

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def require_connected(self) -> None:
        if not self.is_connected():
            raise DisconnectedError("graph is not connected")

    def require_tree(self) -> None:
        if not self.is_tree():
            raise NotATreeError("graph is not a tree")

    def degree_sequence(self) -> tuple[int, ...]:
        """Unweighted degree sequence, sorted descending."""
        counts = [len(a) for a in self.neighbors]
        return tuple(sorted(counts, reverse=True))

    def relabeled(self, mapping: Sequence[int]) -> "WeightedGraph":
        """Image under a vertex bijection given as old index -> new index."""
        if sorted(mapping) != list(range(self.n)):
            raise GraphError("mapping is not a bijection on the vertex set")
        return WeightedGraph(self.n, tuple((mapping[u], mapping[v], w) for u, v, w in self.edges))


def is_path_graph(g: WeightedGraph) -> bool:
    if g.n == 1:
        return len(g.edges) == 0
    seq = g.degree_sequence()
    return g.is_tree() and seq.count(1) == 2 and all(d <= 2 for d in seq)


def rooted_order(t: WeightedGraph) -> tuple[list[int], list[int]]:
    """Breadth-first order of a tree from vertex 0, with parents.

    The root's parent is -1. Reversing the order visits every child
    before its parent.
    """
    parent = [-1] * t.n
    order = [0]
    seen = [False] * t.n
    seen[0] = True
    for x in order:
        for y, _ in t.neighbors[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                order.append(y)
    return order, parent


# -- builders --------------------------------------------------------------


def path_graph(weights: Sequence[float]) -> WeightedGraph:
    """Path v_0 - v_1 - ... - v_m with the given edge weights in order."""
    m = len(weights)
    return WeightedGraph(m + 1, tuple((i, i + 1, w) for i, w in enumerate(weights)))


def star_graph(weights: Sequence[float]) -> WeightedGraph:
    """Star with center 0 and one spoke per weight."""
    m = len(weights)
    return WeightedGraph(m + 1, tuple((0, i + 1, w) for i, w in enumerate(weights)))


def cycle_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n, weight) for i in range(n)]
    return WeightedGraph(n, tuple(edges))


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    edges = [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph(n, tuple(edges))


# -- TWG text format --------------------------------------------------------


def parse_twg(text: str) -> WeightedGraph:
    """Parse the TWG format; every error reports its 1-based line number.

    The edge lines of ASCII text are read by one ``np.loadtxt`` call and
    checked as whole arrays. All else goes to the line-by-line reader,
    which gives the same graph or the first offending line's error:
    non-ASCII text (numpy reads some non-ASCII letters as digits),
    spellings only Python accepts (``1_000``), and broken rules.
    """
    if text.isascii():
        lines = list(filter(None, map(str.strip, text.splitlines())))
        if "#" in text:
            lines = [s for s in lines if s[0] != "#"]
        try:
            n = int(lines[0])
            if len(lines) == 1:
                return WeightedGraph(n, ())
            cols = np.loadtxt(lines[1:], dtype=_TWG_ROW, comments=None, ndmin=1)
            return WeightedGraph._from_columns(n, cols["u"], cols["v"], cols["w"])
        except (IndexError, ValueError):
            pass
    return _parse_twg_lines(text)


def _parse_twg_lines(text: str) -> WeightedGraph:
    """``parse_twg`` one line at a time: Python's ``int`` and ``float``, then ``_checked_edge``."""
    n: int | None = None
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise TwgParseError("expected a single vertex count", lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise TwgParseError(f"invalid vertex count {fields[0]!r}", lineno) from None
            if n < 1:
                raise TwgParseError(f"vertex count must be positive, got {n}", lineno)
            continue
        if len(fields) != 3:
            raise TwgParseError(f"expected 'u v w', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise TwgParseError(f"invalid vertex index in {line!r}", lineno) from None
        try:
            w = float(fields[2])
        except ValueError:
            raise TwgParseError(f"invalid weight {fields[2]!r}", lineno) from None
        try:
            edges.append(_checked_edge(n, u, v, w, seen))
        except GraphError as exc:
            raise TwgParseError(str(exc), lineno) from None
    if n is None:
        raise TwgParseError("empty input, expected vertex count", 1)
    return WeightedGraph(n, tuple(edges))


def format_twg(g: WeightedGraph) -> str:
    lines = [str(g.n)]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {format_weight(w)}")
    return "\n".join(lines) + "\n"


# -- canonical form ----------------------------------------------------------


def _peel(n: int, neighbors: Sequence[Sequence[tuple]]) -> tuple[list[list[int]], list[int], list]:
    """Leaf layers of the tree with these neighbour lists of (vertex, payload) pairs.

    Leaves are peeled layer by layer on a degree count. Returns
    ``(layers, parent, above)``: the layers run outermost first and end
    with the 1 or 2 centres; ``parent[x]`` is the neighbour that outlives
    x and ``above[x]`` the payload of the edge to it. Two centres hang
    below each other across the central edge; one centre has parent -1
    and payload None. Every child is peeled before its parent, so the
    layers are an AHU order. A graph that is not a tree raises
    ``ConsistencyError``: a cycle stalls the peeling, and a forest peels
    a leaf together with its neighbour, misses a vertex, or ends with
    two centres that are not adjacent.
    """
    degree = [len(a) for a in neighbors]
    parent = [-1] * n
    above: list = [None] * n
    layers = []
    layer = list(range(n)) if n <= 2 else [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        if not layer:
            raise ConsistencyError("leaf peeling stalled: the graph is not a tree")
        for leaf in layer:
            degree[leaf] = 0  # marks it peeled; an unpeeled neighbour still counts it, so stays above 0
        nxt = []
        for leaf in layer:
            for nb, payload in neighbors[leaf]:
                if degree[nb]:
                    break
            else:
                raise ConsistencyError("a leaf lost its last neighbour: the graph is not a tree")
            parent[leaf], above[leaf] = nb, payload
            degree[nb] -= 1
            if degree[nb] == 1:
                nxt.append(nb)
        layers.append(layer)
        remaining -= len(layer)
        layer = nxt
    if len(layer) != remaining:
        raise ConsistencyError("leaf peeling missed a vertex: the graph is not a tree")
    if remaining == 2:
        a, b = layer
        for nb, payload in neighbors[a]:
            if nb == b:
                break
        else:
            raise ConsistencyError("the two centres are not adjacent: the graph is not a tree")
        parent[a], parent[b] = b, a
        above[a] = above[b] = payload
    layers.append(layer)
    return layers, parent, above


def tree_centers(t: WeightedGraph) -> tuple[int, ...]:
    """The 1 or 2 central vertices of a tree (weight-agnostic)."""
    t.require_tree()
    return tuple(sorted(_peel(t.n, t.neighbors)[0][-1]))


def _tree_code(n: int, neighbors: Sequence[Sequence[tuple[int, float]]]) -> str:
    """The canonical code of the tree with these neighbour lists (see ``canonical_form``).

    The lists need not be sorted. A graph that is not a tree raises
    ``ConsistencyError`` (see ``_peel``).
    """
    layers, parent, above = _peel(n, neighbors)
    kids: list[list[str]] = [[] for _ in range(n)]

    def code(x: int, label: str) -> str:
        return "(" + label + "|" + "".join(sorted(kids[x])) + ")"

    for layer in layers[:-1]:
        for x in layer:
            kids[parent[x]].append(code(x, format_weight(above[x])))
            kids[x] = []  # frees the subtree's codes: a path keeps O(n) text alive, not O(n^2)
    centres = layers[-1]
    if len(centres) == 1:
        return code(centres[0], "")
    a, b = centres
    centre_edge = format_weight(above[a])
    kids[a], kids[b] = kids[a] + [code(b, centre_edge)], kids[b] + [code(a, centre_edge)]
    return min(code(a, ""), code(b, ""))


def canonical_form(t: WeightedGraph) -> str:
    """Canonical code of a weighted tree.

    Two trees get equal codes iff there is a weight-preserving
    isomorphism between them. The tree is rooted at its center; when the
    center is an edge, both rootings are encoded and the lexicographic
    minimum taken. Weights enter the code with 12 significant digits.
    Codes are built bottom-up over the leaf layers that find the
    center(s), so a deep tree needs no deep stack.
    """
    t.require_tree()
    return _tree_code(t.n, t.neighbors)


# -- enumeration -------------------------------------------------------------


def _rooted_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Level sequences of all rooted trees on n vertices, root level 1.

    Successor rule on level sequences in decreasing lexicographic order:
    from the path (1,2,...,n) down to the star (1,2,2,...,2).
    """
    s = list(range(1, n + 1))
    while True:
        yield tuple(s)
        p = max((i for i in range(n) if s[i] > 2), default=-1)
        if p < 0:
            return
        q = max(i for i in range(p) if s[i] == s[p] - 1)
        period = p - q
        for i in range(p, n):
            s[i] = s[i - period]


def _level_parents(levels: Sequence[int]) -> list[int]:
    """Parent of every vertex of a rooted level sequence: the nearest shallower vertex before it."""
    last: dict[int, int] = {}  # level -> latest vertex at that level
    parents = []
    for i, level in enumerate(levels):
        parents.append(last.get(level - 1, -1))
        last[level] = i
    return parents


def enumerate_free_trees(n: int) -> list[WeightedGraph]:
    """One unit-weight representative per isomorphism class of trees on n vertices.

    Each rooted level sequence is coded from its neighbour lists; only
    the first sequence of each class becomes a ``WeightedGraph``.
    """
    if not 1 <= n <= FREE_TREE_MAX:
        raise GraphError(f"free-tree enumeration supports 1 <= n <= {FREE_TREE_MAX}")
    if n == 1:
        return [WeightedGraph(1, ())]
    reps: dict[str, list[int]] = {}
    for levels in _rooted_level_sequences(n):
        parents = _level_parents(levels)
        neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for i, p in enumerate(parents[1:], start=1):
            neighbors[p].append((i, 1.0))
            neighbors[i].append((p, 1.0))
        reps.setdefault(_tree_code(n, neighbors), parents)
    return [
        WeightedGraph(n, tuple((p, i, 1.0) for i, p in enumerate(reps[c][1:], start=1)))
        for c in sorted(reps)
    ]
