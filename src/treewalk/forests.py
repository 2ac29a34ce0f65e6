"""Forest formulas: (alpha, kappa) from spanning 2-forest sums.

Every spanning 2-forest F with components (T1, T2) contributes its size
product S(F) = |T1||T2| and its ambient volume product
V_G(F) = vol_G(T1) vol_G(T2); with tau the weighted spanning-tree sum,
the weighted sums of those recover the average hitting time and
Kemeny's constant:

    alpha = vol * sum S(F) w(F) / (n^2 tau)
    kappa = sum V_G(F) w(F) / (vol * tau)

Trees use O(n) closed forms (one cut per edge, w(T\\e) = tau/w(e)).
General graphs use the all-minors matrix-tree theorem: the 2-forests
that separate u and v weigh tau * R(u, v) in total, with R the
effective resistance, so one inverse of the reduced Laplacian gives
both quotients without listing a single 2-forest or forming tau.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConsistencyError
from .graphs import WeightedGraph, rooted_order
from .walks import check_error_bound, check_finite, condition_bound, laplacian


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


def _resistance_sums(g: WeightedGraph, lap0: np.ndarray) -> tuple[float, float]:
    """sum_{u<v} R(u, v) and sum_{u<v} d(u) d(v) R(u, v) from one inverse G0 of L0.

    These are the S- and V-weighted 2-forest sums divided by tau: every
    pair u < v separated by a 2-forest F adds 1 to S(F) and d(u) d(v) to
    V_G(F), and those forests weigh tau * R(u, v) in total. With vertex 0
    grounded, R(u, v) = G[u][u] + G[v][v] - 2 G[u][v] for G = G0 padded
    by a zero row and column, which adds nothing to either sum: they are
    n tr(G0) - sum(G0) and vol (d' . diag G0) - d'^T G0 d', with d' the
    degrees of vertices 1..n-1. Refused when the conditioning of L0
    bounds the relative error above ERROR_BOUND_RTOL, which also refuses
    every L0 that is not numerically positive definite.
    """
    try:
        g0 = np.linalg.inv(lap0)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"reduced Laplacian is singular: {exc}") from exc
    check_error_bound(condition_bound(lap0, g0), "2-forest sums")
    diag = np.diag(g0)
    d = np.array(g.degrees[1:])
    return g.n * float(diag.sum()) - float(g0.sum()), g.vol * float(d @ diag) - float(d @ g0 @ d)


def stats(g: WeightedGraph) -> tuple[float, float]:
    """(alpha, kappa): tree closed forms, else one inverse of the reduced Laplacian.

    alpha = vol * sum S(F) w(F) / (n^2 tau) and kappa = sum V_G(F) w(F) /
    (vol tau). For general graphs tau cancels against the resistance sums,
    so the route never forms it (tau overflows on large dense graphs).
    A result that is not finite is refused.
    """
    g.require_connected()
    n = g.n
    if n == 1:
        return 0.0, 0.0
    if g.is_tree():
        alpha, kappa = tree_stats(g, [w for _, _, w in g.edges])
    else:
        vol = g.vol
        r_sum, dr_sum = _resistance_sums(g, laplacian(g)[1:, 1:])
        alpha, kappa = (vol / (n * n)) * r_sum, dr_sum / vol
    check_finite(alpha, "forest-route alpha")
    check_finite(kappa, "forest-route kappa")
    return alpha, kappa
