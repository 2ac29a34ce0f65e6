"""Forest formulas: weighted spanning-tree sums and spanning 2-forest routes.

tau(G) sums the weights (edge-weight products) of all spanning trees.
Every spanning 2-forest F with components (T1, T2) contributes its size
product S(F) = |T1||T2| and its ambient volume product
V_G(F) = vol_G(T1) vol_G(T2); the weighted sums of those recover the
average hitting time and Kemeny's constant:

    alpha = vol * sum S(F) w(F) / (n^2 tau)
    kappa = sum V_G(F) w(F) / (vol * tau)

Trees use O(n) closed forms (one cut per edge, w(T\\e) = tau/w(e)).
General graphs use the all-minors matrix-tree theorem: the 2-forests
that separate u and v weigh tau * R(u, v) in total, with R the effective
resistance, so one Cholesky factor of the reduced Laplacian gives every
sum. ``two_forest_cuts`` still lists the 2-forests of small graphs one
by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import ConsistencyError, GraphError
from .graphs import WeightedGraph
from .walks import adjacency_matrix, check_error_bound, condition_bound

ENUM_EDGE_MAX = 20


@dataclass(frozen=True)
class TwoForestCut:
    """A spanning 2-forest with its component partition and statistics.

    ``s_value`` multiplies the component sizes; ``v_value`` multiplies
    component volumes taken with degrees in the ambient graph, not in
    the components themselves.
    """

    kept_edges: tuple[tuple[int, int], ...]
    deleted_edges: tuple[tuple[int, int], ...]
    blocks: tuple[frozenset[int], frozenset[int]]
    s_value: int
    v_value: float
    weight: float


@dataclass(frozen=True)
class ForestSums:
    tau: float
    s_sum: float
    v_sum: float


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _reduced_laplacian(g: WeightedGraph) -> np.ndarray:
    """Laplacian with the row and column of vertex 0 removed."""
    lap = np.diag(np.array(g.degrees)) - adjacency_matrix(g)
    return lap[1:, 1:]


def _cholesky(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"reduced Laplacian is not numerically positive definite: {exc}") from exc


def tau(g: WeightedGraph) -> float:
    """Weighted spanning-tree sum: the determinant of the reduced Laplacian."""
    g.require_connected()
    if g.n == 1:
        return 1.0
    return float(np.prod(np.diag(_cholesky(_reduced_laplacian(g))))) ** 2


def _cut_from_kept(g: WeightedGraph, kept: tuple[tuple[int, int, float], ...]) -> TwoForestCut:
    kept_pairs = tuple((u, v) for u, v, _ in kept)
    kept_set = set(kept_pairs)
    deleted = tuple((u, v) for u, v, _ in g.edges if (u, v) not in kept_set)
    blocks = _blocks_from_kept(g.n, kept_pairs)
    assert len(blocks) == 2
    b1, b2 = blocks
    weight = 1.0
    for _, _, w in kept:
        weight *= w
    return TwoForestCut(
        kept_edges=kept_pairs,
        deleted_edges=deleted,
        blocks=(b1, b2),
        s_value=len(b1) * len(b2),
        v_value=g.volume(b1) * g.volume(b2),
        weight=weight,
    )


def _blocks_from_kept(n: int, kept_pairs: tuple[tuple[int, int], ...]) -> tuple[frozenset[int], ...]:
    uf = _UnionFind(n)
    for u, v in kept_pairs:
        uf.union(u, v)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    return tuple(sorted((frozenset(b) for b in groups.values()), key=min))


def tree_cut(t: WeightedGraph, u: int, v: int) -> TwoForestCut:
    """The 2-forest obtained from a tree by deleting one edge."""
    t.require_tree()
    if not t.has_edge(u, v):
        raise GraphError(f"no edge ({u}, {v})")
    kept = tuple(e for e in t.edges if {e[0], e[1]} != {u, v})
    return _cut_from_kept(t, kept)


def two_forest_cuts(g: WeightedGraph) -> Iterator[TwoForestCut]:
    """All spanning 2-forests. One per edge for a tree; brute force otherwise."""
    g.require_connected()
    if g.n < 2:
        return
    if g.is_tree():
        for u, v, _ in g.edges:
            yield tree_cut(g, u, v)
        return
    if len(g.edges) > ENUM_EDGE_MAX:
        raise GraphError(f"2-forest enumeration guarded to {ENUM_EDGE_MAX} edges")
    # acyclic with n-2 edges <=> spanning forest with exactly 2 components
    for kept in combinations(g.edges, g.n - 2):
        uf = _UnionFind(g.n)
        if all(uf.union(u, v) for u, v, _ in kept):
            yield _cut_from_kept(g, kept)


def _tree_sums(t: WeightedGraph) -> tuple[float, float]:
    """sum S(T-e) / w(e) and sum V_T(T-e) / w(e) over the edges of a tree.

    Deleting e leaves a 2-forest of weight tau / w(e). One rooted pass:
    for the cut at the edge above vertex c, the child side has ambient
    volume 2*(weight inside the subtree) + w(edge).
    """
    n = t.n
    adj = t.neighbors
    parent = [-1] * n
    parent_w = [0.0] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for x in order:
        for y, w in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                parent_w[y] = w
                order.append(y)
    size = [1] * n
    inner = [0.0] * n  # total edge weight inside the subtree
    for x in reversed(order[1:]):
        p = parent[x]
        size[p] += size[x]
        inner[p] += inner[x] + parent_w[x]
    vol = t.vol
    s_sum = v_sum = 0.0
    for x in order[1:]:
        w = parent_w[x]
        side_vol = 2.0 * inner[x] + w
        s_sum += size[x] * (n - size[x]) / w
        v_sum += side_vol * (vol - side_vol) / w
    return s_sum, v_sum


def _resistance_sums(g: WeightedGraph) -> tuple[float, float, float]:
    """tau, sum_{u<v} R(u, v) and sum_{u<v} d(u) d(v) R(u, v) from one Cholesky factor.

    With vertex 0 grounded, G = L0^-1 padded by a zero row and column
    gives the effective resistance R(u, v) = G[u][u] + G[v][v] - 2 G[u][v].
    Refused when the conditioning of L0 bounds the relative error above
    ERROR_BOUND_RTOL.
    """
    lap0 = _reduced_laplacian(g)
    c = _cholesky(lap0)
    c_inv = np.linalg.inv(c)
    grounded = np.zeros((g.n, g.n))
    grounded[1:, 1:] = c_inv.T @ c_inv
    check_error_bound(condition_bound(lap0, grounded), "2-forest sums")
    diag = np.diag(grounded)
    r = diag[:, None] + diag[None, :] - 2.0 * grounded
    d = np.array(g.degrees)
    return float(np.prod(np.diag(c))) ** 2, float(r.sum()) / 2.0, float(d @ r @ d) / 2.0


def forest_sums(g: WeightedGraph) -> ForestSums:
    """tau together with the S- and V-weighted 2-forest sums.

    Every pair u < v separated by a 2-forest F adds 1 to S(F) and
    d(u) d(v) to V_G(F), and those forests weigh tau * R(u, v) in total.
    """
    g.require_connected()
    if g.n == 1:
        return ForestSums(tau=1.0, s_sum=0.0, v_sum=0.0)
    t, r_sum, dr_sum = _resistance_sums(g)
    return ForestSums(tau=t, s_sum=t * r_sum, v_sum=t * dr_sum)


def stats(g: WeightedGraph) -> tuple[float, float]:
    """(alpha, kappa): tree closed forms, else one factorization.

    alpha = vol * sum S(F) w(F) / (n^2 tau) and kappa = sum V_G(F) w(F) /
    (vol tau). For general graphs tau cancels against the resistance sums,
    so the route never divides by it (tau overflows on large dense graphs).
    """
    g.require_connected()
    n = g.n
    if n == 1:
        return 0.0, 0.0
    vol = g.vol
    if g.is_tree():
        s_sum, v_sum = _tree_sums(g)
    else:
        _, s_sum, v_sum = _resistance_sums(g)
    return (vol / (n * n)) * s_sum, v_sum / vol


def alpha_forest(g: WeightedGraph) -> float:
    """Average hitting time from the 2-forest sum."""
    return stats(g)[0]


def kappa_forest(g: WeightedGraph) -> float:
    """Kemeny's constant from the 2-forest sum."""
    return stats(g)[1]
