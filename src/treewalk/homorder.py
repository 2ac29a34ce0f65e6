"""Tree homomorphism counting and empirical dominance over a graph corpus.

hom(T, G) counts edge-preserving maps from a tree T into a simple graph
G. ``hom_counts`` gives one tree's counts into a whole list of graphs
from one bottom-up dynamic program over the tree, run on the graphs'
concatenated adjacency lists with numpy; the conjecture scan builds
that table once and runs every tree's program on it. Counts are exact
integers.

The corpus of connected graphs is grown one vertex at a time: every
connected graph has a non-cut vertex, so each class on n vertices is a
class on n - 1 vertices plus a new vertex joined to a nonempty vertex
subset. An edge set on n vertices is a bitmask with the pair (0, 1) in
the highest bit and the pairs in lexicographic order below it, so among
edge sets of one size the larger mask is the lexicographically smaller
sorted edge list. A candidate's canonical edge list is therefore its
largest mask over the relabelings that sort degrees descending, found
for a whole level in a few numpy passes and decoded back to edge lists.

Comparing two trees by domination of hom counts over every simple graph
defines a partial order; a finite corpus can only approximate it, so the
verdicts here are necessary-condition semantics: corpus dominance is
implied by true dominance but does not certify it. The conjecture scan
checks that corpus-dominant trees never have a larger average hitting
time, and reports violations as data rather than failing, since a
violation may be a corpus false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, permutations, product
from typing import Iterator, Sequence

import numpy as np

from .errors import GraphError
from .graphs import WeightedGraph, _free_tree_classes, rooted_order, sig12
from .walks import stack_walk_stats

CORPUS_VERTEX_MAX = 6
SCAN_TREE_MAX = 8
ALPHA_SLACK = 1e-10

DOMINATES = "dominates"
DOMINATED = "dominated"
EQUAL = "equal-on-corpus"
INCOMPARABLE = "incomparable-on-corpus"


@dataclass(frozen=True)
class PairVerdict:
    code_a: str
    code_b: str
    verdict: str
    # corpus index and both hom counts at the first strict difference
    witness: tuple[int, int, int] | None


@dataclass(frozen=True)
class HomDominanceReport:
    tree_size: int
    corpus_size: int
    pairs: tuple[PairVerdict, ...]
    alphas: tuple[tuple[str, float], ...]
    violations: tuple[tuple[str, str, float, float], ...]  # (code_a, code_b, alpha_a, alpha_b)

    def to_json_dict(self) -> dict:
        return {
            "tree_size": self.tree_size,
            "corpus_size": self.corpus_size,
            "alphas": [{"code": c, "alpha": sig12(a)} for c, a in self.alphas],
            "pairs": [
                {
                    "a": p.code_a,
                    "b": p.code_b,
                    "verdict": p.verdict,
                    "witness": None
                    if p.witness is None
                    else {"graph": p.witness[0], "hom_a": p.witness[1], "hom_b": p.witness[2]},
                }
                for p in self.pairs
            ],
            "violations": [
                {"a": a, "b": b, "alpha_a": aa, "alpha_b": ab}
                for a, b, aa, ab in self.violations
            ],
        }


def _hom_matrix(trees: Sequence[WeightedGraph], graphs: Sequence[WeightedGraph]) -> np.ndarray:
    """hom(t, g) for every tree against every graph, one row per tree.

    The graphs' adjacency lists are concatenated once, and each tree
    runs one bottom-up dynamic program over a rooted orientation on
    that table, all graphs' vertices at once: a tree vertex's entry at
    image a multiplies, over its children, the sums of the child
    entries over the neighbours of a. No entry exceeds
    max |V(G)| * maxdeg^(|T|-1), so the tables are int64 when that bound
    fits for the largest tree and Python integers otherwise; either way
    the counts are exact.
    """
    for t in trees:
        t.require_tree()
    if not graphs:
        return np.zeros((len(trees), 0), dtype=np.int64)
    first, deg, nbr = [], [], []
    for g in graphs:
        offset = len(deg)
        first.append(offset)
        for adj in g.neighbors:
            deg.append(len(adj))
            nbr.extend(offset + v for v, _ in adj)
    bound = max(g.n for g in graphs) * max(deg) ** (max(t.n for t in trees) - 1)
    dtype = np.int64 if bound < 2**63 else object
    deg = np.array(deg)
    nbr = np.array(nbr, dtype=np.intp)
    # reduceat sums a segment of length zero to the element at its start
    has_nbr = deg > 0
    seg = (np.cumsum(deg) - deg)[has_nbr]
    counts = np.empty((len(trees), len(graphs)), dtype=dtype)
    for i, t in enumerate(trees):
        order, parent = rooted_order(t)
        table = np.ones((t.n, len(deg)), dtype=dtype)
        for x in reversed(order[1:]):
            sums = np.zeros(len(deg), dtype=dtype)
            sums[has_nbr] = np.add.reduceat(table[x][nbr], seg)
            table[parent[x]] *= sums
        counts[i] = np.add.reduceat(table[0], first)
    return counts


def hom_counts(t: WeightedGraph, graphs: Sequence[WeightedGraph]) -> list[int]:
    """Exact number of homomorphisms from tree t into each simple graph (one row of _hom_matrix)."""
    return _hom_matrix([t], graphs)[0].tolist()


def hom_count(t: WeightedGraph, g: WeightedGraph) -> int:
    """Exact number of homomorphisms from tree t into simple graph g."""
    return hom_counts(t, [g])[0]


def _next_level(prev: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Canonical edge lists of the classes one vertex larger, sorted, and their adjacency.

    prev holds the adjacency matrices of the classes on n - 1 vertices.
    Every (class, nonempty subset) candidate gets the largest edge mask
    over the relabelings that sort its degrees descending. Candidates
    with the same degree-block sizes and edge count share one array of
    such relabelings (permutations within blocks), read as the new
    label of each place in the candidate's own descending-degree order.
    The masks are decoded to edge lists and the classes sorted by those,
    not by mask: mask order follows list order only between edge sets
    of one size.
    """
    count, new = prev.shape[0], prev.shape[1]
    n = new + 1
    pairs = list(combinations(range(n), 2))  # lexicographic; pair p is bit len(pairs) - 1 - p
    top = len(pairs) - 1
    lo, hi = np.array(pairs).T
    bit = np.zeros((n, n), dtype=np.int64)
    bit[lo, hi] = bit[hi, lo] = [1 << (top - p) for p in range(len(pairs))]
    joins = np.array([[s >> v & 1 for v in range(new)] for s in range(1, 1 << new)], dtype=bool)
    adj = np.zeros((count, len(joins), n, n), dtype=bool)
    adj[:, :, :new, :new] = prev[:, None]
    adj[:, :, :new, new] = joins
    adj[:, :, new, :new] = joins
    adj = adj.reshape(-1, n, n)

    present = adj[:, lo, hi]
    deg = adj.sum(axis=2)
    mine, other = deg[:, :, None], deg[:, None, :]
    start = (other > mine).sum(axis=2)  # first place of each vertex's degree block
    earlier = np.arange(n) < np.arange(n)[:, None]
    rank = start + ((other == mine) & earlier).sum(axis=2)  # ties keep label order
    opens = (start[:, :, None] == np.arange(n)).any(axis=1)  # a block opens at this place
    keys = (opens * [1 << p for p in range(n)]).sum(axis=1) * (len(pairs) + 1) + present.sum(axis=1)

    masks = np.empty(len(adj), dtype=np.int64)
    relabelings = {}
    for key in set(keys.tolist()):
        rows = np.flatnonzero(keys == key)
        cuts = [*np.flatnonzero(opens[rows[0]]).tolist(), n]
        blocks = tuple(zip(cuts, cuts[1:]))
        if blocks not in relabelings:
            relabelings[blocks] = np.array([
                sum(parts, ())
                for parts in product(*(permutations(range(a, b)) for a, b in blocks))
            ])
        places = relabelings[blocks]
        edges = present[rows].nonzero()[1].reshape(len(rows), -1)
        ends_u = np.take_along_axis(rank[rows], lo[edges], axis=1)
        ends_v = np.take_along_axis(rank[rows], hi[edges], axis=1)
        masks[rows] = bit[places[:, ends_u], places[:, ends_v]].sum(axis=2).max(axis=0)

    found = ([m >> (top - p) & 1 for p in range(len(pairs))] for m in set(masks.tolist()))
    decoded = sorted((tuple(compress(pairs, row)), row) for row in found)
    level = np.zeros((len(decoded), n, n), dtype=bool)
    level[:, lo, hi] = level[:, hi, lo] = np.array([row for _, row in decoded], dtype=bool)
    return [edges for edges, _ in decoded], level


def require_scan_size(n: int) -> None:
    if not 1 <= n <= SCAN_TREE_MAX:
        raise GraphError(f"conjecture scan needs 1 <= n <= {SCAN_TREE_MAX}, got n={n}")


def connected_graph_corpus(min_n: int = 2, max_n: int = 5) -> list[WeightedGraph]:
    """All connected simple graphs on min_n..max_n vertices, up to isomorphism.

    Deterministic order: by vertex count, then by canonical edge list,
    which is also each graph's labelling. The classes on n vertices come
    from those on n - 1 by joining a new vertex to a nonempty subset of
    the old ones: deleting a leaf of a spanning tree keeps a connected
    graph connected, so every class is reached.
    """
    if not 1 <= min_n <= max_n <= CORPUS_VERTEX_MAX:
        raise GraphError(
            f"corpus needs 1 <= min_n <= max_n <= {CORPUS_VERTEX_MAX}, got min_n={min_n}, max_n={max_n}"
        )
    level: list[tuple] = [()]  # the one class on a single vertex
    adj = np.zeros((1, 1, 1), dtype=bool)
    corpus = []
    for n in range(1, max_n + 1):
        if n > 1:
            level, adj = _next_level(adj)
        if n >= min_n:
            corpus.extend(WeightedGraph(n, tuple((u, v, 1.0) for u, v in pairs)) for pairs in level)
    return corpus


def _pair_verdicts(counts: np.ndarray) -> Iterator[tuple[int, int, str, tuple[int, int, int] | None]]:
    """(i, j, verdict, witness) for every ordered pair of distinct rows, row by row.

    Both comparisons and the first difference come from broadcasting the
    count matrix against itself over the corpus axis.
    """
    a, b = counts[:, None], counts[None]
    differ = a != b
    # an empty corpus separates nothing, and argmax cannot search an empty axis
    at = differ.argmax(axis=2) if counts.shape[1] else np.zeros(differ.shape[:2], dtype=np.intp)
    kind = np.select(
        [~differ.any(axis=2), (a >= b).all(axis=2), (a <= b).all(axis=2)], [0, 1, 2], default=3
    ).tolist()
    at = at.tolist()
    rows = counts.tolist()
    names = (EQUAL, DOMINATES, DOMINATED, INCOMPARABLE)
    for i, row in enumerate(rows):
        for j, other in enumerate(rows):
            if i == j:
                continue
            k = kind[i][j]
            f = at[i][j]
            yield i, j, names[k], None if k == 0 else (f, row[f], other[f])


def corpus_dominates(
    t: WeightedGraph, t2: WeightedGraph, corpus: list[WeightedGraph]
) -> str:
    """Verdict of t against t2 over the corpus (necessary-condition semantics)."""
    if t.n != t2.n:
        raise GraphError("trees must have equal size")
    _, _, verdict, _ = next(_pair_verdicts(_hom_matrix([t, t2], corpus)))
    return verdict


def conjecture_scan(n: int, corpus: list[WeightedGraph] | None = None) -> HomDominanceReport:
    """Check all ordered free-tree pairs of size n for dominance vs alpha order.

    For every corpus-dominant pair (T, T'), the average hitting time of
    T' must not fall below that of T by more than ALPHA_SLACK; exceptions
    are collected, not raised.
    """
    require_scan_size(n)
    if corpus is None:
        corpus = connected_graph_corpus()
    codes, trees = zip(*_free_tree_classes(n))  # the codes the enumeration sorted by
    alphas = stack_walk_stats(trees)[0].tolist()  # one batched inverse for all the trees

    pairs = []
    violations = []
    for i, j, verdict, witness in _pair_verdicts(_hom_matrix(trees, corpus)):
        pairs.append(PairVerdict(codes[i], codes[j], verdict, witness))
        if verdict == DOMINATES and alphas[j] < alphas[i] - ALPHA_SLACK:
            violations.append((codes[i], codes[j], alphas[i], alphas[j]))
    return HomDominanceReport(
        tree_size=n,
        corpus_size=len(corpus),
        pairs=tuple(pairs),
        alphas=tuple(zip(codes, alphas)),
        violations=tuple(violations),
    )
