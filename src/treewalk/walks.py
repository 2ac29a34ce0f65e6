"""First-principles random-walk computations via dense linear algebra.

This is the ground-truth route: transition matrix, stationary
distribution, the full hitting-time matrix from the fundamental matrix
Z = (I - P + 1 pi^T)^-1 (Kemeny & Snell), and the two scalar summaries
(average hitting time, Kemeny's constant). The forest and spectral
modules are checked against it.

On a simple (unit-weight) tree, the tree closed form
alpha = (vol / n^2) sum_e s_e (n - s_e) / w_e, with s_e the vertex count
on one side of edge e, becomes alpha = 2 (n - 1) W / n^2: vol = 2 (n - 1),
and W = sum_e s_e (n - s_e) is the Wiener index, the sum of the distances
of all vertex pairs. The conjecture scan (``homorder``) takes alpha from
that identity in exact integers. It is derived here, not taken from the
paper, and the tests check it against this route on every free tree up to
``FREE_TREE_MAX`` vertices.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DisconnectedError
from .graphs import WeightedGraph

STATIONARY_RTOL = 1e-10
KEMENY_INDEPENDENCE_RTOL = 1e-8
ONE_STEP_RESIDUAL_RTOL = 1e-9
# every route refuses a result whose relative error bound exceeds this
ERROR_BOUND_RTOL = 1e-8
EPS = float(np.finfo(float).eps)


def check_error_bound(bound: float, what: str, kind: str = "a-priori") -> None:
    """Raise ConsistencyError unless the error bound is within ERROR_BOUND_RTOL;
    a NaN bound is refused too. ``kind`` is a-priori for a condition bound,
    a-posteriori for one from residuals."""
    if not bound <= ERROR_BOUND_RTOL:
        raise ConsistencyError(f"{what}: {kind} error bound {float(bound):.3e} exceeds {ERROR_BOUND_RTOL}")


def check_finite(values, what: str) -> None:
    """Raise ConsistencyError unless every value is finite (not inf, not NaN)."""
    if not np.isfinite(values).all():
        raise ConsistencyError(f"{what}: not finite, the arithmetic left the float range")


def condition_bound(a: np.ndarray, a_inv: np.ndarray) -> float:
    """eps * ||A||_1 * ||A^-1||_1, the relative error to expect from inverting A."""
    return EPS * np.abs(a).sum(axis=0).max() * np.abs(a_inv).sum(axis=0).max()


def _adjacency_and_degrees(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency matrix, filled from the edge columns, and weighted degrees."""
    lo, hi, w = g.columns
    a = np.zeros((g.n, g.n))
    a[lo, hi] = w
    a[hi, lo] = w
    return a, np.array(g.degrees)


def adjacency_matrix(g: WeightedGraph) -> np.ndarray:
    """Symmetric matrix of edge weights, zero off the edges."""
    return _adjacency_and_degrees(g)[0]


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Combinatorial Laplacian D - A, written over A.

    ``0.0 - A`` rather than ``-A`` keeps the zeros off the edges +0.0,
    so the result has the same bits as ``diag(d) - A``.
    """
    lap, d = _adjacency_and_degrees(g)
    np.subtract(0.0, lap, out=lap)
    np.fill_diagonal(lap, d)
    return lap


def _transitions(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix P = A / d and degrees d of a connected graph on n >= 2 vertices."""
    g.require_connected()
    if g.n < 2:
        raise DisconnectedError("walk needs at least 2 vertices")
    a, d = _adjacency_and_degrees(g)
    return np.divide(a, d[:, None], out=a), d


def transition_matrix(g: WeightedGraph) -> np.ndarray:
    """Row-stochastic matrix p[u][v] = w(uv) / d(u)."""
    return _transitions(g)[0]


def _stationary_of(d: np.ndarray) -> np.ndarray:
    """pi = d / vol; a lone vertex, of degree 0, holds its walk throughout."""
    return d / d.sum() if len(d) > 1 else np.ones_like(d)


def _checked_stationary(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    pi = _stationary_of(d)
    residual = np.abs((pi[None, :] @ p)[0] - pi).max()
    if not residual <= STATIONARY_RTOL:
        raise ConsistencyError(f"stationary fixed-point residual {residual:.3e}")
    return pi


def stationary(g: WeightedGraph) -> np.ndarray:
    """Stationary distribution pi[u] = d(u) / vol, checked against pi P = pi."""
    return _checked_stationary(*_transitions(g))


def hitting_matrix(g: WeightedGraph) -> np.ndarray:
    """Expected steps h[u][v] from u until first arrival at v; zero diagonal.

    h[u][v] = (Z[v][v] - Z[u][v]) / pi[v] with the fundamental matrix
    Z = (I - P + 1 pi^T)^-1, from one inverse, checked against the
    one-step equations (I - P) H = J - diag(1/pi) and refused when the
    conditioning of the inverse bounds the relative error above
    ERROR_BOUND_RTOL. One vertex gives [[0.0]]: the walk starts where it
    is headed.
    """
    if g.n == 1:
        return np.zeros((1, 1))
    p, d = _transitions(g)
    pi = _checked_stationary(p, d)
    n = g.n
    i_minus_p = np.subtract(np.eye(n), p, out=p)
    a = i_minus_p + pi  # pi in every row
    try:
        z = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"fundamental matrix is singular: {exc}") from exc
    check_error_bound(condition_bound(a, z), "hitting times")
    del a
    diag = np.arange(n)
    h = np.subtract(z[diag, diag], z, out=z)
    h /= pi
    h[diag, diag] = 0.0
    check_finite(h, "hitting times")
    residual = i_minus_p @ h
    residual -= 1.0
    residual[diag, diag] += 1.0 / pi
    worst = np.abs(residual, out=residual).max()
    if not worst <= ONE_STEP_RESIDUAL_RTOL * max(h.max(), -h.min()):  # max |h|
        raise ConsistencyError(f"one-step equation residual {worst:.3e}")
    return h


def walk_stats(g: WeightedGraph, h: np.ndarray | None = None) -> tuple[float, float]:
    """The tuple (alpha, kappa) from one hitting matrix: ``h``, when the caller
    already holds ``hitting_matrix(g)``, else computed here.

    alpha is the mean of h[u][v] over all ordered pairs, zero diagonal
    included. kappa is sum_v h[u][v] pi[v] for every start u; the values
    must agree before their mean is returned.
    """
    if h is None:
        h = hitting_matrix(g)
    pi = _stationary_of(np.array(g.degrees))  # checked by hitting_matrix
    per_start = (h @ pi[:, None])[:, 0]
    kappa = per_start.mean()
    spread = np.abs(per_start - kappa).max()
    if not spread <= KEMENY_INDEPENDENCE_RTOL * np.abs(kappa):
        raise ConsistencyError(f"Kemeny start-independence violated: spread {spread:.3e} at value {kappa:.6g}")
    return float(h.sum() / (g.n * g.n)), float(kappa)
