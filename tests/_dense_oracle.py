"""Degrees, dense matrices and the exact route, one graph at a time.

The references for ``WeightedGraph.degrees`` (one ``np.bincount`` over
the edge columns) and for ``walks.adjacency_matrix`` and
``walks.laplacian`` (filled from those columns): the weighted degrees
added in a Python loop over ``edges``, the adjacency matrix from one
``np.fromiter`` over the flattened tuples, and the Laplacian as
``diag(d) - A``, as the package built them before it kept the columns.

``hitting_matrix`` and ``walk_stats`` are the exact route as the package
ran it before it ran on stacks: one graph, one inverse, every check with
its message. The tolerances are read from ``treewalk.walks`` per call,
so a test that changes one changes it for both.
"""

from itertools import chain

import numpy as np

from treewalk import walks
from treewalk.errors import ConsistencyError


def loop_degrees(g):
    d = [0.0] * g.n
    for u, v, w in g.edges:
        d[u] += w
        d[v] += w
    return tuple(d)


def loop_vol(g):
    total = 0.0
    for d in loop_degrees(g):
        total += d
    return total


def fromiter_adjacency(g):
    e = np.fromiter(chain.from_iterable(g.edges), float, count=3 * len(g.edges))
    u, v, w = e[0::3].astype(np.intp), e[1::3].astype(np.intp), e[2::3]
    a = np.zeros((g.n, g.n))
    a[u, v] = w
    a[v, u] = w
    return a


def reference_laplacian(g):
    return np.diag(np.array(loop_degrees(g))) - fromiter_adjacency(g)


def hitting_matrix(g):
    g.require_connected()
    n = g.n
    if n == 1:
        return np.zeros((1, 1))
    d = np.array(loop_degrees(g))
    p = fromiter_adjacency(g) / d[:, None]
    pi = d / d.sum()
    residual = np.max(np.abs(pi @ p - pi))
    if not residual <= walks.STATIONARY_RTOL:
        raise ConsistencyError(f"stationary fixed-point residual {residual:.3e}")
    i_minus_p = np.eye(n) - p
    a = i_minus_p + pi[None, :]
    try:
        z = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"fundamental matrix is singular: {exc}") from exc
    bound = walks.EPS * float(np.abs(a).sum(axis=0).max()) * float(np.abs(z).sum(axis=0).max())
    if not bound <= walks.ERROR_BOUND_RTOL:
        raise ConsistencyError(f"hitting times: a-priori error bound {bound:.3e} exceeds {walks.ERROR_BOUND_RTOL}")
    h = (np.diag(z)[None, :] - z) / pi[None, :]
    np.fill_diagonal(h, 0.0)
    if not np.isfinite(h).all():
        raise ConsistencyError("hitting times: not finite, the arithmetic left the float range")
    residual = i_minus_p @ h - 1.0
    residual[np.diag_indices(n)] += 1.0 / pi
    worst = float(np.abs(residual).max())
    if not worst <= walks.ONE_STEP_RESIDUAL_RTOL * float(np.abs(h).max()):
        raise ConsistencyError(f"one-step equation residual {worst:.3e}")
    return h


def walk_stats(g):
    if g.n == 1:
        g.require_connected()
        return 0.0, 0.0
    h = hitting_matrix(g)
    d = np.array(loop_degrees(g))
    per_start = h @ (d / d.sum())
    kap = float(per_start.mean())
    spread = float(np.max(np.abs(per_start - kap)))
    if not spread <= walks.KEMENY_INDEPENDENCE_RTOL * abs(kap):
        raise ConsistencyError(
            f"Kemeny start-independence violated: spread {spread:.3e} at value {kap:.6g}"
        )
    return float(h.sum()) / (g.n * g.n), kap
