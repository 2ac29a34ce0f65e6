"""Forest formulas: weighted spanning-tree sums and spanning 2-forest routes.

tau(G) sums the weights (edge-weight products) of all spanning trees.
Every spanning 2-forest F with components (T1, T2) contributes its size
product S(F) = |T1||T2| and its ambient volume product
V_G(F) = vol_G(T1) vol_G(T2); the weighted sums of those recover the
average hitting time and Kemeny's constant:

    alpha = vol * sum S(F) w(F) / (n^2 tau)
    kappa = sum V_G(F) w(F) / (vol * tau)

Trees use O(n) closed forms (one cut per edge, w(T\\e) = tau/w(e)), and
``two_forest_cuts`` lists a tree's edge cuts. General graphs use the
all-minors matrix-tree theorem: the 2-forests that separate u and v
weigh tau * R(u, v) in total, with R the effective resistance, so one
Cholesky factor of the reduced Laplacian gives every sum without
listing a single 2-forest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConsistencyError, GraphError
from .graphs import WeightedGraph, rooted_order
from .walks import check_error_bound, condition_bound, laplacian


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


def _cholesky(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"reduced Laplacian is not numerically positive definite: {exc}") from exc


def _check_float_range(log_value: float, what: str) -> None:
    if not math.log(sys.float_info.min) <= log_value <= math.log(sys.float_info.max):
        raise ConsistencyError(f"{what} exp({log_value:.6g}) is outside the normal float range")


def _log_tau(c: np.ndarray) -> float:
    """log tau = 2 sum log diag C, refused outside the normal float range."""
    log_tau = 2.0 * float(np.log(np.diag(c)).sum())
    _check_float_range(log_tau, "spanning-tree sum")
    return log_tau


def tau(g: WeightedGraph) -> float:
    """Weighted spanning-tree sum: the determinant of the reduced Laplacian."""
    g.require_connected()
    if g.n == 1:
        return 1.0
    return math.exp(_log_tau(_cholesky(laplacian(g)[1:, 1:])))


def tree_cut(t: WeightedGraph, u: int, v: int) -> TwoForestCut:
    """The 2-forest obtained from a tree by deleting one edge."""
    t.require_tree()
    if not t.has_edge(u, v):
        raise GraphError(f"no edge ({u}, {v})")
    cut = (u, v) if u < v else (v, u)
    kept = tuple((a, b) for a, b, _ in t.edges if (a, b) != cut)
    b1, b2 = t.components(removed=(cut,))
    return TwoForestCut(
        kept_edges=kept,
        deleted_edges=(cut,),
        blocks=(b1, b2),
        s_value=len(b1) * len(b2),
        v_value=t.volume(b1) * t.volume(b2),
        weight=t.subgraph_weight(kept),
    )


def two_forest_cuts(t: WeightedGraph) -> Iterator[TwoForestCut]:
    """The spanning 2-forests of a tree, one per deleted edge, in edge order."""
    t.require_tree()
    for u, v, _ in t.edges:
        yield tree_cut(t, u, v)


def tree_stats(shape: WeightedGraph, weights: Sequence[float] | np.ndarray) -> tuple:
    """(alpha, kappa) of a tree on two or more vertices from its O(n) closed form.

    ``weights`` holds one weight per edge of ``shape``, in edge order:
    floats for one tree, or numpy arrays with each edge's weight in many
    trees of this shape, which give arrays of alpha and kappa. Every
    update builds a new value (``a = a + b``), so the same statements do
    both, bit for bit alike. Deleting edge e leaves a 2-forest of weight
    tau / w(e); for the cut above vertex c, the child side has ambient
    volume 2*(weight inside the subtree) + w(edge).
    """
    n = shape.n
    order, parent = rooted_order(shape)
    degree = [0.0] * n
    up = [0.0] * n  # weight of the edge above each vertex
    for (u, v, _), w in zip(shape.edges, weights):
        degree[u] = degree[u] + w
        degree[v] = degree[v] + w
        up[v if parent[v] == u else u] = w
    vol = 0.0
    for d in degree:
        vol = vol + d
    size = [1] * n
    inner = [0.0] * n  # total edge weight inside the subtree
    for x in reversed(order[1:]):
        p = parent[x]
        size[p] += size[x]
        inner[p] = inner[p] + (inner[x] + up[x])
    s_sum = v_sum = 0.0
    for x in order[1:]:
        side_vol = 2.0 * inner[x] + up[x]
        s_sum = s_sum + size[x] * (n - size[x]) / up[x]
        v_sum = v_sum + side_vol * (vol - side_vol) / up[x]
    return (vol / (n * n)) * s_sum, v_sum / vol


def _resistance_sums(g: WeightedGraph) -> tuple[np.ndarray, float, float]:
    """The Cholesky factor C of L0, sum_{u<v} R(u, v) and sum_{u<v} d(u) d(v) R(u, v).

    tau is left to the caller: it leaves the float range on large dense
    graphs, where the sums themselves are fine.

    With vertex 0 grounded, G = L0^-1 padded by a zero row and column
    gives the effective resistance R(u, v) = G[u][u] + G[v][v] - 2 G[u][v].
    Refused when the conditioning of L0 bounds the relative error above
    ERROR_BOUND_RTOL.
    """
    lap0 = laplacian(g)[1:, 1:]
    c = _cholesky(lap0)
    c_inv = np.linalg.inv(c)
    grounded = np.zeros((g.n, g.n))
    grounded[1:, 1:] = c_inv.T @ c_inv
    check_error_bound(condition_bound(lap0, grounded), "2-forest sums")
    diag = np.diag(grounded)
    r = diag[:, None] + diag[None, :] - 2.0 * grounded
    d = np.array(g.degrees)
    return c, float(r.sum()) / 2.0, float(d @ r @ d) / 2.0


def forest_sums(g: WeightedGraph) -> ForestSums:
    """tau together with the S- and V-weighted 2-forest sums.

    Every pair u < v separated by a 2-forest F adds 1 to S(F) and
    d(u) d(v) to V_G(F), and those forests weigh tau * R(u, v) in total.
    Each product is range-checked in log space like tau itself.
    """
    g.require_connected()
    if g.n == 1:
        return ForestSums(tau=1.0, s_sum=0.0, v_sum=0.0)
    c, r_sum, dr_sum = _resistance_sums(g)
    log_tau = _log_tau(c)
    _check_float_range(log_tau + math.log(r_sum), "S-weighted 2-forest sum")
    _check_float_range(log_tau + math.log(dr_sum), "V-weighted 2-forest sum")
    t = math.exp(log_tau)
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
    if g.is_tree():
        return tree_stats(g, [w for _, _, w in g.edges])
    vol = g.vol
    _, s_sum, v_sum = _resistance_sums(g)
    return (vol / (n * n)) * s_sum, v_sum / vol


def alpha_forest(g: WeightedGraph) -> float:
    """Average hitting time from the 2-forest sum."""
    return stats(g)[0]


def kappa_forest(g: WeightedGraph) -> float:
    """Kemeny's constant from the 2-forest sum."""
    return stats(g)[1]
