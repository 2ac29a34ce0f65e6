"""First-principles random-walk computations via dense linear algebra.

This is the ground-truth route: transition matrix, stationary
distribution, the full hitting-time matrix from the fundamental matrix
Z = (I - P + 1 pi^T)^-1 (Kemeny & Snell), and the two scalar summaries
(average hitting time, Kemeny's constant). The forest and spectral
modules are checked against it.

It runs on stacks: k graphs on one vertex count n give (k, n, n) arrays,
one batched inverse and every check on each graph (``stack_walk_stats``).
A single graph runs the same statements on its (n, n) arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConsistencyError, DisconnectedError, GraphError
from .graphs import WeightedGraph

STATIONARY_RTOL = 1e-10
KEMENY_INDEPENDENCE_RTOL = 1e-8
ONE_STEP_RESIDUAL_RTOL = 1e-9
# every route refuses a result whose a-priori relative error bound exceeds this
ERROR_BOUND_RTOL = 1e-8
EPS = float(np.finfo(float).eps)


def _refuse_first(ok: np.ndarray, message: str, *values: np.ndarray) -> None:
    """Raise ConsistencyError(message) with the values of the first graph whose
    check is not ok; each argument holds one entry per graph, or is 0-d."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ConsistencyError(message.format(*(float(np.ravel(v)[bad[0]]) for v in values)))


def check_error_bound(bound, what: str) -> None:
    """Raise ConsistencyError unless the a-priori error bound (one, or one per
    graph of a stack) is within ERROR_BOUND_RTOL; a NaN bound is refused too."""
    bound = np.asarray(bound)
    message = f"{what}: a-priori error bound {{:.3e}} exceeds {ERROR_BOUND_RTOL}"
    _refuse_first(bound <= ERROR_BOUND_RTOL, message, bound)


def check_finite(values, what: str) -> None:
    """Raise ConsistencyError unless every value is finite (not inf, not NaN)."""
    if not np.isfinite(values).all():
        raise ConsistencyError(f"{what}: not finite, the arithmetic left the float range")


def condition_bound(a: np.ndarray, a_inv: np.ndarray):
    """eps * ||A||_1 * ||A^-1||_1, the relative error to expect from inverting A: one
    value, or one per matrix of a (k, n, n) stack."""
    return EPS * np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(a_inv).sum(axis=-2).max(axis=-1)


def _stack(graphs: Sequence[WeightedGraph], lead: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency matrices and weighted degrees of graphs on one vertex count n,
    shaped ``lead + (n, n)`` and ``lead + (n,)``, ``lead`` () for one graph
    and (k,) for k, from one concatenation of their edge columns with graph
    j's rows shifted by j*n. The degrees are one ``bincount`` over ``hi``,
    then ``lo``: each graph's own ``degrees``, bit for bit.
    """
    n, k = graphs[0].n, len(graphs)
    cols = [g.columns for g in graphs]
    lo, hi, w = (np.concatenate(c) for c in zip(*cols))
    rows = np.repeat(np.arange(0, k * n, n), [len(c[2]) for c in cols])
    d = np.bincount(np.concatenate((hi + rows, lo + rows)), np.concatenate((w, w)), k * n)
    a = np.zeros((k * n, n))
    a[lo + rows, hi] = w
    a[hi + rows, lo] = w
    return a.reshape(lead + (n, n)), d.astype(float, copy=False).reshape(lead + (n,))


def adjacency_matrix(g: WeightedGraph) -> np.ndarray:
    """Symmetric matrix of edge weights, zero off the edges."""
    return _stack([g], ())[0]


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Combinatorial Laplacian D - A, written over A.

    ``0.0 - A`` rather than ``-A`` keeps the zeros off the edges +0.0,
    so the result has the same bits as ``diag(d) - A``.
    """
    lap, d = _stack([g], ())
    np.subtract(0.0, lap, out=lap)
    np.fill_diagonal(lap, d)
    return lap


def _transitions(graphs: Sequence[WeightedGraph], lead: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrices P = A / d and degrees d (see ``_stack``) of connected
    graphs that share one vertex count n >= 2."""
    counts = {g.n for g in graphs}
    if len(counts) != 1:
        raise GraphError(f"a stack needs graphs on one vertex count, got {sorted(counts)}")
    for g in graphs:
        g.require_connected()
    if graphs[0].n < 2:
        raise DisconnectedError("walk needs at least 2 vertices")
    a, d = _stack(graphs, lead)
    return np.divide(a, d[..., None], out=a), d


def transition_matrix(g: WeightedGraph) -> np.ndarray:
    """Row-stochastic matrix p[u][v] = w(uv) / d(u)."""
    return _transitions([g], ())[0]


def _stationary_of(d: np.ndarray) -> np.ndarray:
    """pi = d / vol per graph; a lone vertex, of degree 0, holds its walk throughout."""
    return d / d.sum(axis=-1, keepdims=True) if d.shape[-1] > 1 else np.ones_like(d)


def _checked_stationary(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    pi = _stationary_of(d)
    residual = np.abs((pi[..., None, :] @ p)[..., 0, :] - pi).max(axis=-1)
    _refuse_first(residual <= STATIONARY_RTOL, "stationary fixed-point residual {:.3e}", residual)
    return pi


def stationary(g: WeightedGraph) -> np.ndarray:
    """Stationary distribution pi[u] = d(u) / vol, checked against pi P = pi."""
    return _checked_stationary(*_transitions([g], ()))


def _hitting(graphs: Sequence[WeightedGraph], lead: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Hitting matrices and stationary distributions of connected graphs on one
    vertex count, shaped as in ``_stack``, from one (batched) inverse.

    h[u][v] = (Z[v][v] - Z[u][v]) / pi[v] with the fundamental matrix
    Z = (I - P + 1 pi^T)^-1, checked against the one-step equations
    (I - P) H = J - diag(1/pi) and refused when the conditioning of the
    inverse bounds the relative error above ERROR_BOUND_RTOL. Each check
    runs on every graph; the first graph that fails it raises.
    """
    if {g.n for g in graphs} == {1}:  # the walk starts where it is headed
        return np.zeros(lead + (1, 1)), np.ones(lead + (1,))
    p, d = _transitions(graphs, lead)
    pi = _checked_stationary(p, d)
    n = p.shape[-1]
    i_minus_p = np.subtract(np.eye(n), p, out=p)
    a = i_minus_p + pi[..., None, :]
    try:
        z = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"fundamental matrix is singular: {exc}") from exc
    check_error_bound(condition_bound(a, z), "hitting times")
    del a
    diag = np.arange(n)
    h = np.subtract(z[..., diag, diag][..., None, :], z, out=z)
    h /= pi[..., None, :]
    h[..., diag, diag] = 0.0
    check_finite(h, "hitting times")
    residual = i_minus_p @ h
    residual -= 1.0
    residual[..., diag, diag] += 1.0 / pi
    worst = np.abs(residual, out=residual).max(axis=(-2, -1))
    scale = np.maximum(h.max(axis=(-2, -1)), -h.min(axis=(-2, -1)))  # max |h|
    _refuse_first(worst <= ONE_STEP_RESIDUAL_RTOL * scale, "one-step equation residual {:.3e}", worst)
    return h, pi


def hitting_matrix(g: WeightedGraph) -> np.ndarray:
    """Expected steps h[u][v] from u until first arrival at v; zero diagonal.

    From the fundamental matrix Z = (I - P + 1 pi^T)^-1, with every check
    of the exact route (see ``_hitting``); one vertex gives [[0.0]].
    """
    return _hitting([g], ())[0]


def _stats(h: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha and kappa of each hitting matrix, Kemeny start-independence checked.

    alpha is the mean of h[u][v] over all ordered pairs, zero diagonal
    included. kappa is sum_v h[u][v] pi[v] for every start u; the values
    must agree before their mean is returned.
    """
    per_start = (h @ pi[..., None])[..., 0]
    kap = per_start.mean(axis=-1)
    spread = np.abs(per_start - kap[..., None]).max(axis=-1)
    _refuse_first(
        spread <= KEMENY_INDEPENDENCE_RTOL * np.abs(kap),
        "Kemeny start-independence violated: spread {:.3e} at value {:.6g}",
        spread,
        kap,
    )
    n = h.shape[-1]
    return h.sum(axis=(-2, -1)) / (n * n), kap


def walk_stats(g: WeightedGraph, h: np.ndarray | None = None) -> tuple[float, float]:
    """The tuple (alpha, kappa) from one hitting matrix: ``h``, when the caller
    already holds ``hitting_matrix(g)``, else computed here. See ``_stats``.
    """
    if h is None:
        h = hitting_matrix(g)
    alpha, kappa = _stats(h, _stationary_of(np.array(g.degrees)))  # pi, checked by hitting_matrix
    return float(alpha), float(kappa)


def stack_walk_stats(graphs: Sequence[WeightedGraph]) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of alpha and kappa of graphs on one vertex count, from one batched
    inverse: each entry is ``walk_stats`` of that graph alone, bit for bit. The
    first graph to fail a check of the exact route raises, with its own values.
    """
    return _stats(*_hitting(graphs, (len(graphs),)))
