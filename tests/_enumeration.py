"""Brute-force reference values and test-only tree helpers.

Subset enumeration of spanning trees and spanning 2-forests (graphs of
at most ENUM_EDGE_MAX edges), and the tree edge cuts: each cut's two
sides with their sizes and ambient volumes, summed directly by
math.fsum, and the closed forms built from them. None of it calls the
routes it checks. Also every labeled tree by Pruefer decoding, the
free-tree counts, seeded random labeled and weighted trees, the star
predicate, the components left by deleting edges (a depth-first search,
the reference for the union-find connectivity test of WeightedGraph),
the partition a set of edge cuts leaves, the centres by leaf
peeling on a degree count and the recursive canonical coder, which only
the tests use. Last, the graph corpus by enumerating every edge subset
and by vertex extension with a scalar canonical edge list, the
homomorphism count by one Python dynamic program per target graph, and
the dominance verdicts one pair of count lists at a time: the
references for the array corpus levels, the array hom-count program and
the broadcast verdicts.
"""

import heapq
import math
import random
from itertools import combinations, permutations, product

from treewalk.errors import ConsistencyError, GraphError
from treewalk.graphs import WeightedGraph, format_weight, rooted_order, tree_centers
from treewalk.homorder import DOMINATED, DOMINATES, EQUAL, INCOMPARABLE

ENUM_EDGE_MAX = 20
LABELED_TREE_MAX = 9  # n^(n-2) blows up past this

# non-isomorphic trees on 1..10 vertices
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def prufer_tree(seq, n=None):
    """Unit-weight labeled tree decoded from a Pruefer sequence."""
    seq = tuple(seq)
    if n is None:
        n = len(seq) + 2
    if n == 1:
        if seq:
            raise GraphError("sequence must be empty for n=1")
        return WeightedGraph(1, ())
    if len(seq) != n - 2:
        raise GraphError(f"sequence length must be {n - 2} for n={n}")
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise GraphError(f"sequence entry {x} out of range")
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x, 1.0))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v, 1.0))
    return WeightedGraph(n, tuple(edges))


def enumerate_labeled_trees(n):
    """All n^(n-2) labeled trees on n vertices, unit weights, via Pruefer."""
    if not 1 <= n <= LABELED_TREE_MAX:
        raise GraphError(f"labeled enumeration supports 1 <= n <= {LABELED_TREE_MAX}")
    if n <= 2:
        yield prufer_tree((), n)
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_tree(seq, n)


def random_labeled_tree(rng: random.Random, n: int) -> WeightedGraph:
    if n <= 2:
        return prufer_tree((), n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return prufer_tree(seq, n)


def random_weighted_tree(
    rng: random.Random, n: int, low: float = 0.1, high: float = 10.0
) -> WeightedGraph:
    """Random labeled tree with weights log-uniform in [low, high]."""
    t = random_labeled_tree(rng, n)
    lo, hi = math.log10(low), math.log10(high)
    edges = tuple((u, v, 10.0 ** rng.uniform(lo, hi)) for u, v, _ in t.edges)
    return WeightedGraph(n, edges)


def is_star_graph(g):
    if g.n <= 2:
        return g.is_tree()
    return g.is_tree() and g.degree_sequence()[0] == g.n - 1


def peeled_centres(n, neighbors):
    """The 1 or 2 central vertices of a tree, by leaf peeling on a degree count alone."""
    if n <= 2:
        return list(range(n))
    degree = [len(a) for a in neighbors]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        if not layer:
            raise ConsistencyError("leaf peeling stalled: the graph is not a tree")
        remaining -= len(layer)
        nxt = []
        for leaf in layer:
            for nb, _ in neighbors[leaf]:
                degree[nb] -= 1
                if degree[nb] == 1:
                    nxt.append(nb)
        layer = nxt
    return sorted(layer)


def recursive_canonical_form(t):
    """canonical_form by recursion from each centre: the reference for the bottom-up coder."""
    adj = t.neighbors

    def code(v, parent, w_in):
        kids = sorted(code(u, v, w) for u, w in adj[v] if u != parent)
        label = "" if w_in is None else format_weight(w_in)
        return "(" + label + "|" + "".join(kids) + ")"

    return min(code(c, -1, None) for c in tree_centers(t))


def components(g, removed=()):
    """Connected components of g less the ``removed`` edges, by depth-first search, sorted by min vertex."""
    banned = set()
    for u, v in removed:
        if not g.has_edge(u, v):
            raise GraphError(f"no edge ({u}, {v})")
        banned.add((u, v) if u < v else (v, u))
    seen = [False] * g.n
    blocks = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        block = [start]
        while stack:
            x = stack.pop()
            for y, _ in g.neighbors[x]:
                key = (x, y) if x < y else (y, x)
                if key in banned or seen[y]:
                    continue
                seen[y] = True
                stack.append(y)
                block.append(y)
        blocks.append(frozenset(block))
    return tuple(sorted(blocks, key=min))


def remove_edges_partition(t, edge_pairs):
    """Vertex partition of a tree after deleting the given edges: k cuts leave k+1 blocks."""
    t.require_tree()
    pairs = list(edge_pairs)
    blocks = components(t, removed=pairs)
    assert len(blocks) == len(pairs) + 1
    return blocks


def _components(n, kept):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in kept:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None  # the subset has a cycle
        parent[ru] = rv
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return list(blocks.values())


def spanning_tree_weight(g):
    """tau(g): sum over acyclic (n-1)-edge subsets of the weight product."""
    assert len(g.edges) <= ENUM_EDGE_MAX
    return math.fsum(
        math.prod(w for _, _, w in kept)
        for kept in combinations(g.edges, g.n - 1)
        if _components(g.n, kept) is not None
    )


def _degrees(g):
    incident = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        incident[u].append(w)
        incident[v].append(w)
    return [math.fsum(ws) for ws in incident]


def edge_cut(t, u, v):
    """The two sides of tree t less edge (u, v), by least vertex, with their sizes
    and their ambient volumes: degrees taken in t, summed by math.fsum."""
    kept = [e for e in t.edges if {e[0], e[1]} != {u, v}]
    assert len(kept) == t.n - 2, f"({u}, {v}) is not an edge of the tree"
    sides = tuple(map(frozenset, _components(t.n, kept)))
    degrees = _degrees(t)
    return sides, tuple(map(len, sides)), tuple(math.fsum(degrees[x] for x in b) for b in sides)


def two_forest_sums(g):
    """(tau, S-weighted sum, V-weighted sum) over every spanning 2-forest."""
    assert len(g.edges) <= ENUM_EDGE_MAX
    degrees = _degrees(g)
    s_terms, v_terms = [], []
    for kept in combinations(g.edges, g.n - 2):
        blocks = _components(g.n, kept)
        if blocks is None:
            continue
        b1, b2 = blocks
        weight = math.prod(w for _, _, w in kept)
        s_terms.append(len(b1) * len(b2) * weight)
        v_terms.append(math.fsum(degrees[x] for x in b1) * math.fsum(degrees[x] for x in b2) * weight)
    return spanning_tree_weight(g), math.fsum(s_terms), math.fsum(v_terms)


def enumerated_stats(g):
    """(alpha, kappa) from the enumerated forest sums."""
    t, s_sum, v_sum = two_forest_sums(g)
    vol = math.fsum(_degrees(g))
    return vol * s_sum / (g.n * g.n * t), v_sum / (vol * t)


def tree_stats(g):
    """(alpha, kappa) of a tree from its edge cuts, both side volumes summed directly."""
    vol = math.fsum(_degrees(g))
    s_terms, v_terms = [], []
    for u, v, w in g.edges:
        _, (n1, n2), (vol1, vol2) = edge_cut(g, u, v)
        s_terms.append(n1 * n2 / w)
        v_terms.append(vol1 * vol2 / w)
    return vol / (g.n * g.n) * math.fsum(s_terms), math.fsum(v_terms) / vol


def _simple_canonical(n, pairs):
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


def extension_graph_corpus(min_n, max_n):
    """connected_graph_corpus with one _simple_canonical call per extension candidate."""
    level = [()]
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


def subset_graph_corpus(min_n, max_n):
    """connected_graph_corpus by testing every edge subset for connectivity.

    Same classes in the same order; each class is represented by the
    first subset of it met, not by its canonical labelling.
    """
    corpus = []
    for n in range(min_n, max_n + 1):
        if n == 1:
            corpus.append(WeightedGraph(1, ()))
            continue
        all_pairs = list(combinations(range(n), 2))
        found = {}
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


def scalar_hom_count(t, g):
    """hom(t, g) by a rooted dynamic program over t, one Python loop per image."""
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


def compare_counts(counts_a, counts_b):
    """(verdict, witness) of one pair of count lists, by three passes over the corpus."""
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


def scalar_pair_verdicts(rows):
    """(i, j, verdict, witness) for every ordered pair of distinct count lists, row by row."""
    return [
        (i, j, *compare_counts(rows[i], rows[j]))
        for i in range(len(rows))
        for j in range(len(rows))
        if i != j
    ]
