"""Tree homomorphism counting and empirical dominance over a graph corpus.

hom(T, G) counts edge-preserving maps from a tree T into a simple graph
G, computed exactly by bottom-up dynamic programming. Comparing two
trees by domination of hom counts over every simple graph defines a
partial order; a finite corpus can only approximate it, so the verdicts
here are necessary-condition semantics: corpus dominance is implied by
true dominance but does not certify it. The conjecture scan checks that
corpus-dominant trees never have a larger average hitting time, and
reports violations as data rather than failing, since a violation may
be a corpus false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

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


def hom_count(t: WeightedGraph, g: WeightedGraph) -> int:
    """Exact number of homomorphisms from tree t into simple graph g.

    Dynamic programming over a rooted orientation of t: a vertex's table
    entry at image a multiplies, over its children, the sums of the
    child tables over the neighbors of a. Integer exact.
    """
    t.require_tree()
    if t.n == 1:
        return g.n
    nbrs = [[v for v, _ in g.neighbors[u]] for u in range(g.n)]
    order, parent = rooted_order(t)
    table = [[1] * g.n for _ in range(t.n)]
    for x in reversed(order[1:]):
        child = table[x]
        up = table[parent[x]]
        for a in range(g.n):
            up[a] *= sum(child[b] for b in nbrs[a])
    return sum(table[0])


def _simple_canonical(n: int, pairs: frozenset[tuple[int, int]]) -> tuple:
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

    Deterministic order: by vertex count, then by canonical edge list.
    """
    if not 1 <= min_n <= max_n <= CORPUS_VERTEX_MAX:
        raise GraphError(f"corpus guarded to {CORPUS_VERTEX_MAX} vertices")
    corpus = []
    for n in range(min_n, max_n + 1):
        if n == 1:
            corpus.append(WeightedGraph(1, ()))
            continue
        all_pairs = list(combinations(range(n), 2))
        found: dict[tuple, WeightedGraph] = {}
        for r in range(n - 1, len(all_pairs) + 1):
            for subset in combinations(all_pairs, r):
                g = WeightedGraph(n, tuple((u, v, 1.0) for u, v in subset))
                if not g.is_connected():
                    continue
                canon = _simple_canonical(n, frozenset(subset))
                if canon not in found:
                    found[canon] = g
        corpus.extend(found[c] for c in sorted(found))
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
    counts_a = [hom_count(t, g) for g in corpus]
    counts_b = [hom_count(t2, g) for g in corpus]
    verdict, _ = _compare_counts(counts_a, counts_b)
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
    counts = [[hom_count(t, g) for g in corpus] for t in trees]

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
