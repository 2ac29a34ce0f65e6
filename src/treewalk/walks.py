"""The exact route: hitting times from first principles.

On a graph with a cycle the route is dense linear algebra: transition
matrix, stationary distribution, the full hitting-time matrix from the
fundamental matrix Z = (I - P + 1 pi^T)^-1 (Kemeny & Snell), and the two
scalar summaries (average hitting time, Kemeny's constant).

On a tree, hitting times add along the unique path, and crossing the
edge above vertex c takes (2 inner_c + w_c) / w_c steps upwards and
(2 outer_c + w_c) / w_c downwards on average, with inner_c the edge
weight inside c's subtree and outer_c the edge weight outside it and
its edge. So ``walk_stats`` takes (alpha, kappa) from one O(n) pass of
positive sums over the rooting the forest and spectral routes share,
with no inverse; ``hitting_matrix`` stays dense on every graph.

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
from .graphs import WeightedGraph, rooted_order

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


def _check_stationary(pi: np.ndarray, pi_p: np.ndarray) -> None:
    """Raise ConsistencyError unless pi P, given as ``pi_p``, is within STATIONARY_RTOL of pi."""
    residual = np.abs(pi_p - pi).max()
    if not residual <= STATIONARY_RTOL:
        raise ConsistencyError(f"stationary fixed-point residual {residual:.3e}")


def _checked_stationary(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    pi = _stationary_of(d)
    _check_stationary(pi, (pi[None, :] @ p)[0])
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


def _check_kemeny(spread: float, kappa: float) -> None:
    if not spread <= KEMENY_INDEPENDENCE_RTOL * np.abs(kappa):
        raise ConsistencyError(f"Kemeny start-independence violated: spread {spread:.3e} at value {kappa:.6g}")


def _tree_walk_stats(g: WeightedGraph) -> tuple[float, float]:
    """(alpha, kappa) of a tree on n >= 2 vertices from one O(n) pass of positive sums.

    Rooted at r = 0, with w_c the weight of the edge above c and s_c the
    vertex count of c's subtree: up_c = (2 inner_c + w_c) / w_c and
    down_c = (2 outer_c + w_c) / w_c are the mean times to cross that edge
    up and down, h(r, v) sums down_c along the path to v, and

        kappa = sum_v pi_v h(r, v)
        alpha = n^-2 sum_c s_c (n - s_c) (up_c + down_c).

    ``inner`` is summed bottom-up. ``outer`` is summed top-down from the
    parent's, the sides of the earlier siblings (a running sum) and those
    of the later ones (recorded bottom-up, where the siblings come in
    reverse), so no sum subtracts.

    The checks are the dense route's: the stationary residual (from the
    edge columns), finite hitting times, an a-priori bound and Kemeny's
    constant from every start. The bound is 6 n eps: kappa is a positive
    expression of the weights in which no weight passes through more than
    9 n + 2 roundings of eps / 2 (an edge sum 4 n, a path of crossings n,
    pi 3 n, the sum over v n), and alpha through fewer. Kemeny's constant
    from a child's start is the parent's plus
    up_c Pi(outside c's subtree) - down_c Pi(c's subtree), 0 in exact
    arithmetic, with the masses summed from the degrees, not from the
    edge sums.
    """
    n = g.n
    d = np.array(g.degrees)
    pi = _stationary_of(d)
    lo, hi, w = g.columns
    pi_p = np.bincount(np.concatenate((hi, lo)), np.concatenate((pi[lo] * (w / d[lo]), pi[hi] * (w / d[hi]))), n)
    _check_stationary(pi, pi_p)
    check_error_bound(6 * n * EPS, "hitting times")
    order, parent = rooted_order(g)
    weight = [0.0] * n  # w_c; 0.0 above the root
    for u, v, x in g.edges:
        weight[v if parent[v] == u else u] = x
    degree = g.degrees
    size = [1] * n
    inner = [0.0] * n
    below = [0.0] * n  # degree mass of the subtree: the children's, then the vertex's own
    later = [0.0] * n  # sides of c's later siblings: edge weight
    later_mass = [0.0] * n  # ... and degree mass
    for c in reversed(order[1:]):
        p = parent[c]
        size[p] += size[c]
        later[c], later_mass[c] = inner[p], below[p]
        inner[p] += inner[c] + weight[c]
        below[c] = degree[c] + below[c]
        below[p] += below[c]
    vol = float(d.sum())  # the one pi is divided by
    outer = [0.0] * n
    above = [0.0] * n  # degree mass outside the subtree
    earlier = [0.0] * n  # running sums over each vertex's children so far: edge weight
    earlier_mass = [0.0] * n  # ... and degree mass
    hit = [0.0] * n  # h(r, v)
    shift = [0.0] * n  # Kemeny's constant from v's start less r's
    pairs = 0.0  # sum_c s_c (n - s_c) (up_c + down_c)
    for c in order[1:]:
        p, wc = parent[c], weight[c]
        outer[c] = outer[p] + weight[p] + earlier[p] + later[c]
        above[c] = above[p] + degree[p] + earlier_mass[p] + later_mass[c]
        earlier[p] += inner[c] + wc
        earlier_mass[p] += below[c]
        up = (2.0 * inner[c] + wc) / wc
        down = (2.0 * outer[c] + wc) / wc
        hit[c] = hit[p] + down
        shift[c] = shift[p] + (up * (above[c] / vol) - down * (below[c] / vol))
        pairs += size[c] * (n - size[c]) * (up + down)
    hit = np.array(hit)
    kappa = float(pi @ hit)
    alpha = pairs / (n * n)
    check_finite(np.append(hit, (alpha, kappa)), "hitting times")
    _check_kemeny(max(map(abs, shift)), kappa)
    return alpha, kappa


def walk_stats(g: WeightedGraph, h: np.ndarray | None = None) -> tuple[float, float]:
    """The tuple (alpha, kappa): on a tree of two or more vertices from the
    O(n) sums of ``_tree_walk_stats``, ``h`` unused; otherwise from one
    hitting matrix, ``h`` when the caller already holds ``hitting_matrix(g)``,
    else computed here.

    alpha is the mean of h[u][v] over all ordered pairs, zero diagonal
    included. kappa is sum_v h[u][v] pi[v] for every start u; the values
    must agree before their mean is returned.
    """
    if g.n > 1 and g.is_tree():
        return _tree_walk_stats(g)
    if h is None:
        h = hitting_matrix(g)
    pi = _stationary_of(np.array(g.degrees))  # checked by hitting_matrix
    per_start = (h @ pi[:, None])[:, 0]
    kappa = per_start.mean()
    _check_kemeny(np.abs(per_start - kappa).max(), kappa)
    return float(h.sum() / (g.n * g.n)), float(kappa)
