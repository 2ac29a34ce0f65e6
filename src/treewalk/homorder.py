"""Tree homomorphism counting and empirical dominance over a graph corpus.

hom(T, G) counts edge-preserving maps from a tree T into a simple graph
G. ``hom_counts`` gives one tree's counts into a whole list of graphs
from one bottom-up dynamic program over the tree, run on the graphs'
concatenated adjacency lists with numpy; counts are exact integers.
The corpus of connected graphs is grown one vertex at a time: every
connected graph has a non-cut vertex, so each class on n vertices is a
class on n - 1 vertices plus a new vertex joined to a nonempty vertex
subset, and a canonical edge list removes the repeats.

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
from itertools import permutations, product
from typing import Collection, Sequence

import numpy as np

from .errors import GraphError
from .graphs import WeightedGraph, canonical_form, enumerate_free_trees, rooted_order, sig12
from .walks import average_hitting_time

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


def hom_counts(t: WeightedGraph, graphs: Sequence[WeightedGraph]) -> list[int]:
    """Exact number of homomorphisms from tree t into each simple graph.

    One dynamic program over a rooted orientation of t, run on all the
    graphs' vertices at once: a tree vertex's table entry at image a
    multiplies, over its children, the sums of the child tables over the
    neighbours of a. No entry exceeds max |V(G)| * maxdeg^(|T|-1), so
    the tables are int64 when that bound fits and Python integers
    otherwise; either way the counts are exact.
    """
    t.require_tree()
    if not graphs:
        return []
    first, deg, nbr = [], [], []
    for g in graphs:
        offset = len(deg)
        first.append(offset)
        for adj in g.neighbors:
            deg.append(len(adj))
            nbr.extend(offset + v for v, _ in adj)
    bound = max(g.n for g in graphs) * max(deg) ** (t.n - 1)
    dtype = np.int64 if bound < 2**63 else object
    deg = np.array(deg)
    nbr = np.array(nbr, dtype=np.intp)
    # reduceat sums a segment of length zero to the element at its start
    has_nbr = deg > 0
    seg = (np.cumsum(deg) - deg)[has_nbr]
    order, parent = rooted_order(t)
    table = np.ones((t.n, len(deg)), dtype=dtype)
    for x in reversed(order[1:]):
        sums = np.zeros(len(deg), dtype=dtype)
        sums[has_nbr] = np.add.reduceat(table[x][nbr], seg)
        table[parent[x]] *= sums
    return np.add.reduceat(table[0], first).tolist()


def hom_count(t: WeightedGraph, g: WeightedGraph) -> int:
    """Exact number of homomorphisms from tree t into simple graph g."""
    return hom_counts(t, [g])[0]


def _simple_canonical(n: int, pairs: Collection[tuple[int, int]]) -> tuple:
    """Minimum edge list over relabelings that sort degrees descending.

    Restricting to arrangements with non-increasing degree by new label
    is isomorphism-invariant, so the minimum is a proper canonical form
    while skipping most of the n! relabelings.
    """
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    groups = [
        [v for v in range(n) if deg[v] == d] for d in sorted(set(deg), reverse=True)
    ]
    best = None
    for parts in product(*(permutations(group) for group in groups)):
        arrangement = [v for part in parts for v in part]
        pos = [0] * n
        for i, v in enumerate(arrangement):
            pos[v] = i
        relabeled = tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in pairs))
        if best is None or relabeled < best:
            best = relabeled
    return best


def connected_graph_corpus(min_n: int = 2, max_n: int = 5) -> list[WeightedGraph]:
    """All connected simple graphs on min_n..max_n vertices, up to isomorphism.

    Deterministic order: by vertex count, then by canonical edge list,
    which is also each graph's labelling. The classes on n vertices come
    from those on n - 1 by joining a new vertex to a nonempty subset of
    the old ones: deleting a leaf of a spanning tree keeps a connected
    graph connected, so every class is reached.
    """
    if not 1 <= min_n <= max_n <= CORPUS_VERTEX_MAX:
        raise GraphError(f"corpus guarded to {CORPUS_VERTEX_MAX} vertices")
    level: list[tuple] = [()]  # the one class on a single vertex
    corpus = []
    for n in range(1, max_n + 1):
        if n > 1:
            new = n - 1
            level = sorted({
                _simple_canonical(n, pairs + tuple((v, new) for v in range(new) if mask >> v & 1))
                for pairs in level
                for mask in range(1, 1 << new)
            })
        if n >= min_n:
            corpus.extend(WeightedGraph(n, tuple((u, v, 1.0) for u, v in pairs)) for pairs in level)
    return corpus


def _compare_counts(counts_a: list[int], counts_b: list[int]) -> tuple[str, tuple[int, int, int] | None]:
    ge = all(a >= b for a, b in zip(counts_a, counts_b))
    le = all(a <= b for a, b in zip(counts_a, counts_b))
    witness = next(
        ((i, a, b) for i, (a, b) in enumerate(zip(counts_a, counts_b)) if a != b), None
    )
    if witness is None:
        return EQUAL, None
    if ge:
        return DOMINATES, witness
    if le:
        return DOMINATED, witness
    return INCOMPARABLE, witness


def corpus_dominates(
    t: WeightedGraph, t2: WeightedGraph, corpus: list[WeightedGraph]
) -> str:
    """Verdict of t against t2 over the corpus (necessary-condition semantics)."""
    if t.n != t2.n:
        raise GraphError("trees must have equal size")
    verdict, _ = _compare_counts(hom_counts(t, corpus), hom_counts(t2, corpus))
    return verdict


def conjecture_scan(n: int, corpus: list[WeightedGraph] | None = None) -> HomDominanceReport:
    """Check all ordered free-tree pairs of size n for dominance vs alpha order.

    For every corpus-dominant pair (T, T'), the average hitting time of
    T' must not fall below that of T by more than ALPHA_SLACK; exceptions
    are collected, not raised.
    """
    if not 1 <= n <= SCAN_TREE_MAX:
        raise GraphError(f"conjecture scan guarded to trees of size {SCAN_TREE_MAX}")
    if corpus is None:
        corpus = connected_graph_corpus()
    trees = enumerate_free_trees(n)
    codes = [canonical_form(t) for t in trees]
    alphas = [average_hitting_time(t) if t.n > 1 else 0.0 for t in trees]
    counts = [hom_counts(t, corpus) for t in trees]

    pairs = []
    violations = []
    for i in range(len(trees)):
        for j in range(len(trees)):
            if i == j:
                continue
            verdict, witness = _compare_counts(counts[i], counts[j])
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
