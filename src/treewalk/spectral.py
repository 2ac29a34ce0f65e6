"""The eigenvalue route to alpha and kappa.

The route needs one factorization, giving the eigenpairs of the
normalized Laplacian N = D^{-1/2} L D^{-1/2}, L = D - A. With its
nonzero eigenvalues mu_i, orthonormal eigenvectors phi_i and
psi_i = D^{-1/2} phi_i (Lovasz, "Random walks on graphs: a survey",
1993, Thm 3.1),

    alpha = (vol / n) * sum (1/mu_i) * ||psi_i - mean(psi_i)||^2
    kappa = sum 1/mu_i

alpha is a sum of squares, so nothing cancels. It is formed from
sqrt(vol) * psi_i = sqrt(vol / d) * phi_i, and vol / d is at most
n^2 / (n - 1) * alpha (the edges at a vertex cut it off, so each
resistance from it is at least 1/d): an intermediate value leaves the
float range only where n * alpha does.

On a graph with a cycle the factorization is one ``eigh`` of N. A tree
is bipartite: with its vertices split by depth parity into sides of n1
and n2, D^{-1/2} A D^{-1/2} = [[0, C], [C^T, 0]] for the n1 x n2 block
C = D_1^{-1/2} W_12 D_2^{-1/2}. One SVD C = U S V^T gives every
eigenpair of N (Chung, "Spectral Graph Theory", 1997, ch. 1): mu = 1 - s
and 1 + s, with phi = [u; v] / sqrt(2) and [u; -v] / sqrt(2), and
|n1 - n2| eigenvalues 1, on the columns of U or V that no singular value
pairs. When the SVD's checks refuse a tree, ``eigh`` decides it instead,
so the tree path refuses nothing that ``eigh`` answers. Both sources'
eigenpairs pass the same checks: residual, spectrum and a-posteriori bound.

The single zero eigenvalue is excluded by index after sorting, never by
thresholding, so near-disconnected weighted trees cannot drop a second
eigenvalue by accident. A near-disconnected graph still loses digits in
its smallest nonzero eigenvalue; the route refuses such a graph instead
of returning them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .graphs import WeightedGraph, rooted_order
from .walks import check_error_bound, check_finite, laplacian

ZERO_EIGENVALUE_ATOL = 1e-9
RESIDUAL_RTOL = 1e-9
NORMALIZED_RANGE_TOL = 1e-9


def _normalized_laplacian(g: WeightedGraph) -> np.ndarray:
    lap = laplacian(g)
    dinv_sqrt = 1.0 / np.sqrt(np.array(g.degrees))
    norm = dinv_sqrt[:, None] * lap * dinv_sqrt[None, :]
    return (norm + norm.T) / 2.0  # kill rounding asymmetry before eigh


def _check_pairs(mu: np.ndarray, worst: float, scale: float) -> None:
    """Checks on N's ascending eigenvalues mu, with worst the largest eigenpair
    residual norm and scale N's Frobenius norm, in order: worst is within
    RESIDUAL_RTOL of scale; mu starts at 0 (within ZERO_EIGENVALUE_ATOL), then
    is positive, and lies in [0, 2]; and the a-posteriori bound
    max_i ||N phi_i - mu_i phi_i|| / mu_2 is within ERROR_BOUND_RTOL."""
    if not worst <= RESIDUAL_RTOL * max(scale, 1e-30):
        raise ConsistencyError(f"eigenpair residual {worst:.3e} exceeds tolerance")
    if abs(mu[0]) > ZERO_EIGENVALUE_ATOL:
        raise ConsistencyError("smallest Laplacian eigenvalue is not numerically zero")
    if mu[1] <= 0.0:
        raise ConsistencyError("second eigenvalue not positive on a connected graph")
    if mu[-1] > 2.0 + NORMALIZED_RANGE_TOL or mu[0] < -NORMALIZED_RANGE_TOL:
        raise ConsistencyError("normalized spectrum outside [0, 2]")
    check_error_bound(worst / mu[1], "normalized spectrum", kind="a-posteriori")


def _tree_eigenpairs(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N's ascending eigenvalues and orthonormal eigenvectors from one SVD of
    the bipartite block C, with the degrees in the eigenvectors' row order
    (the even-depth side, then the odd one), checked as ``eigh``'s are.

    The residuals come from the block: ||N phi - mu phi|| is
    sqrt((||C v - s u||^2 + ||C^T u - s v||^2) / 2) for both signs of a pair,
    and ||C^T u|| or ||C v|| for an unpaired column.
    """
    order, parent = rooted_order(g)
    odd = [False] * g.n
    for x in order[1:]:
        odd[x] = not odd[parent[x]]
    odd = np.array(odd)
    rows = np.argsort(odd, kind="stable")  # the even side, then the odd one
    n, n2 = g.n, int(np.count_nonzero(odd))
    n1 = n - n2
    rank = np.empty(n, np.int64)
    rank[rows] = np.arange(n)
    d = np.array(g.degrees)
    dinv_sqrt = 1.0 / np.sqrt(d)
    lo, hi, w = g.columns
    a = np.where(odd[lo], hi, lo)  # each edge's even-side end
    b = lo + hi - a
    # the n x n eigenvectors first: a tree whose arrays cannot be had is
    # refused before the SVD has reserved (and started to fill) its own
    phi = np.zeros((n, n))
    c = np.zeros((n1, n2))
    c[rank[a], rank[b] - n1] = dinv_sqrt[a] * w * dinv_sqrt[b]
    try:
        u, s, vt = np.linalg.svd(c)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"SVD failed to converge: {exc}") from exc
    v = vt.T
    k = s.size
    uk, vk = u[:, :k], v[:, :k]
    pair = np.hypot(np.linalg.norm(c @ vk - uk * s, axis=0), np.linalg.norm(c.T @ uk - vk * s, axis=0))
    free = np.linalg.norm(c.T @ u[:, k:], axis=0) if n1 > k else np.linalg.norm(c @ v[:, k:], axis=0)
    worst = float(max(pair.max() / np.sqrt(2.0), free.max(initial=0.0)))
    mu = np.concatenate((1.0 - s, np.ones(n - 2 * k), 1.0 + s[::-1]))
    _check_pairs(mu, worst, np.sqrt(n + 2.0 * np.einsum("ij,ij->", c, c)))
    h = np.sqrt(0.5)
    phi[:n1, :k] = uk * h
    phi[n1:, :k] = vk * h
    phi[:n1, n - k :] = uk[:, ::-1] * h
    phi[n1:, n - k :] = vk[:, ::-1] * -h
    if n1 > k:
        phi[:n1, k : n - k] = u[:, k:]
    else:
        phi[n1:, k : n - k] = v[:, k:]
    return mu, phi, d[rows]


def _eigenpairs(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N's ascending eigenvalues and orthonormal eigenvectors, with the
    degrees in the eigenvectors' row order: from the SVD on a tree, else
    (or when the SVD's checks refuse) from one ``eigh`` of N."""
    if g.is_tree():
        try:
            return _tree_eigenpairs(g)
        except ConsistencyError:
            pass  # eigh's residuals can be smaller on wide weights: it decides
    norm = _normalized_laplacian(g)
    try:
        mu, phi = np.linalg.eigh(norm)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"eigensolver failed to converge: {exc}") from exc
    worst = float(np.linalg.norm(norm @ phi - phi * mu, axis=0).max())
    _check_pairs(mu, worst, np.linalg.norm(norm))
    return mu, phi, np.array(g.degrees)


def stats(g: WeightedGraph) -> tuple[float, float]:
    """(alpha, kappa) from the normalized Laplacian's eigenpairs: one SVD
    of the bipartite block on a tree, one eigendecomposition otherwise.

    Refused when max_i ||N phi_i - mu_i phi_i|| / mu_2 exceeds
    ERROR_BOUND_RTOL, on both the SVD and the eigendecomposition where a
    tree tries both. That a-posteriori bound covers the eigenpairs only:
    the sums add rounding of about n * eps on top of it (K2's bound is
    exactly 0, and its alpha is 0.5000000000000002).
    """
    g.require_connected()
    if g.n == 1:
        return 0.0, 0.0
    mu, phi, d = _eigenpairs(g)
    inv = 1.0 / mu[1:]
    # sqrt(vol) * psi_i, with no D^-1/2 or vol formed on its own
    chi = phi[:, 1:] * np.sqrt(g.vol / d)[:, None]
    chi -= chi.mean(axis=0)
    alpha = float(inv @ np.einsum("ij,ij->j", chi, chi)) / g.n
    kappa = sum(inv.tolist())
    check_finite(alpha, "spectral alpha")
    check_finite(kappa, "spectral kappa")
    return alpha, kappa
