"""First-principles random-walk computations via dense linear algebra.

This is the ground-truth route: transition matrix, stationary
distribution, the full hitting-time matrix from the fundamental matrix
Z = (I - P + 1 pi^T)^-1 (Kemeny & Snell), and the two scalar summaries
(average hitting time, Kemeny's constant). The forest and spectral
modules are checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConsistencyError, DisconnectedError
from .graphs import WeightedGraph

STATIONARY_RTOL = 1e-10
KEMENY_INDEPENDENCE_RTOL = 1e-8
ONE_STEP_RESIDUAL_RTOL = 1e-9
# every route refuses a result whose a-priori relative error bound exceeds this
ERROR_BOUND_RTOL = 1e-8
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ScalarStats:
    """Scalar summary of the walk on one graph."""

    alpha: float
    kappa: float
    vol: float
    n: int


def check_error_bound(bound: float, what: str) -> None:
    """Raise ConsistencyError unless the a-priori error bound is within ERROR_BOUND_RTOL."""
    if not bound <= ERROR_BOUND_RTOL:  # a NaN bound is refused too
        raise ConsistencyError(f"{what}: a-priori error bound {bound:.3e} exceeds {ERROR_BOUND_RTOL}")


def check_finite(values, what: str) -> None:
    """Raise ConsistencyError unless every value is finite (not inf, not NaN)."""
    if not np.isfinite(values).all():
        raise ConsistencyError(f"{what}: not finite, the arithmetic left the float range")


def condition_bound(a: np.ndarray, a_inv: np.ndarray) -> float:
    """eps * ||A||_1 * ||A^-1||_1, the relative error to expect from inverting A."""
    return EPS * float(np.abs(a).sum(axis=0).max()) * float(np.abs(a_inv).sum(axis=0).max())


def adjacency_matrix(g: WeightedGraph) -> np.ndarray:
    """Symmetric matrix of edge weights, zero off the edges."""
    e = np.fromiter(chain.from_iterable(g.edges), float, count=3 * len(g.edges))
    u, v, w = e[0::3].astype(np.intp), e[1::3].astype(np.intp), e[2::3]
    a = np.zeros((g.n, g.n))
    a[u, v] = w
    a[v, u] = w
    return a


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Combinatorial Laplacian D - A."""
    return np.diag(np.array(g.degrees)) - adjacency_matrix(g)


def transition_matrix(g: WeightedGraph) -> np.ndarray:
    """Row-stochastic matrix p[u][v] = w(uv) / d(u)."""
    g.require_connected()
    if g.n < 2:
        raise DisconnectedError("walk needs at least 2 vertices")
    a = adjacency_matrix(g)
    d = np.array(g.degrees)
    return a / d[:, None]


def _checked_stationary(g: WeightedGraph, p: np.ndarray) -> np.ndarray:
    d = np.array(g.degrees)
    pi = d / d.sum()
    residual = np.max(np.abs(pi @ p - pi))
    if not residual <= STATIONARY_RTOL:
        raise ConsistencyError(f"stationary fixed-point residual {residual:.3e}")
    return pi


def stationary(g: WeightedGraph) -> np.ndarray:
    """Stationary distribution pi[u] = d(u) / vol, checked against pi P = pi."""
    return _checked_stationary(g, transition_matrix(g))


def hitting_matrix(g: WeightedGraph) -> np.ndarray:
    """Expected steps h[u][v] from u until first arrival at v; zero diagonal.

    h[u][v] = (Z[v][v] - Z[u][v]) / pi[v] with the fundamental matrix
    Z = (I - P + 1 pi^T)^-1, checked against the one-step equations
    (I - P) H = J - diag(1/pi) and refused when the conditioning of the
    inverse bounds the relative error above ERROR_BOUND_RTOL.
    """
    g.require_connected()
    if g.n == 1:
        return np.zeros((1, 1))
    p = transition_matrix(g)
    pi = _checked_stationary(g, p)
    n = g.n
    i_minus_p = np.eye(n) - p
    a = i_minus_p + pi[None, :]
    try:
        z = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"fundamental matrix is singular: {exc}") from exc
    check_error_bound(condition_bound(a, z), "hitting times")
    h = (np.diag(z)[None, :] - z) / pi[None, :]
    np.fill_diagonal(h, 0.0)
    check_finite(h, "hitting times")
    residual = i_minus_p @ h - 1.0
    residual[np.diag_indices(n)] += 1.0 / pi
    worst = float(np.abs(residual).max())
    if not worst <= ONE_STEP_RESIDUAL_RTOL * float(np.abs(h).max()):
        raise ConsistencyError(f"one-step equation residual {worst:.3e}")
    return h


def average_hitting_time(g: WeightedGraph) -> float:
    """Mean of h[u][v] over all ordered pairs, zero diagonal included."""
    h = hitting_matrix(g)
    return float(h.sum()) / (g.n * g.n)


def kemeny(g: WeightedGraph) -> float:
    """Expected time to a stationary-random destination, start-independent."""
    return walk_stats(g).kappa


def walk_stats(g: WeightedGraph) -> ScalarStats:
    """alpha and kappa from one hitting matrix.

    kappa is sum_v h[u][v] pi[v] for every start u; the values must agree
    before their mean is returned.
    """
    if g.n == 1:
        g.require_connected()
        return ScalarStats(alpha=0.0, kappa=0.0, vol=g.vol, n=1)
    h = hitting_matrix(g)
    d = np.array(g.degrees)
    per_start = h @ (d / d.sum())  # pi, already checked by hitting_matrix
    kap = float(per_start.mean())
    spread = float(np.max(np.abs(per_start - kap)))
    if not spread <= KEMENY_INDEPENDENCE_RTOL * abs(kap):
        raise ConsistencyError(
            f"Kemeny start-independence violated: spread {spread:.3e} at value {kap:.6g}"
        )
    return ScalarStats(
        alpha=float(h.sum()) / (g.n * g.n),
        kappa=kap,
        vol=g.vol,
        n=g.n,
    )
