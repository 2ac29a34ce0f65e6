"""Laplacian spectra and the eigenvalue route to alpha and kappa.

The route needs one eigendecomposition, of the normalized Laplacian
N = D^{-1/2} L D^{-1/2}, L = D - A. With its nonzero eigenvalues mu_i,
orthonormal eigenvectors phi_i and psi_i = D^{-1/2} phi_i (Lovasz,
"Random walks on graphs: a survey", 1993, Thm 3.1),

    alpha = (vol / n) * sum (1/mu_i) * ||psi_i - mean(psi_i)||^2
    kappa = sum 1/mu_i

alpha is a sum of squares, so nothing cancels. It is formed from
sqrt(vol) * psi_i = sqrt(vol / d) * phi_i, and vol / d is at most
n^2 / (n - 1) * alpha (the edges at a vertex cut it off, so each
resistance from it is at least 1/d): an intermediate value leaves the
float range only where n * alpha does.

The single zero eigenvalue is excluded by index after sorting, never by
thresholding, so near-disconnected weighted trees cannot drop a second
eigenvalue by accident. A near-disconnected graph still loses digits in
its smallest nonzero eigenvalue; the route refuses such a graph instead
of returning them. ``laplacian_spectra`` gives both spectra, the
combinatorial Laplacian's included, for callers that want them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .graphs import WeightedGraph
from .walks import check_error_bound, check_finite, laplacian

ZERO_EIGENVALUE_ATOL = 1e-9
RESIDUAL_RTOL = 1e-9
NORMALIZED_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues of both Laplacians."""

    combinatorial: tuple[float, ...]
    normalized: tuple[float, ...]


def laplacian_matrices(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    lap = laplacian(g)
    dinv_sqrt = 1.0 / np.sqrt(np.array(g.degrees))
    norm = dinv_sqrt[:, None] * lap * dinv_sqrt[None, :]
    norm = (norm + norm.T) / 2.0  # kill rounding asymmetry before eigh
    return lap, norm


def _checked_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascending eigenvalues, eigenvectors and the largest eigenpair residual norm."""
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"eigensolver failed to converge: {exc}") from exc
    scale = np.linalg.norm(m)
    residual = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    worst = float(residual.max()) if residual.size else 0.0
    if not worst <= RESIDUAL_RTOL * max(scale, 1e-30):
        raise ConsistencyError(f"eigenpair residual {worst:.3e} exceeds tolerance")
    return vals, vecs, worst


def _check_spectrum(vals: np.ndarray, scale: float = 1.0) -> None:
    """A connected graph's Laplacian spectrum, ascending: 0 first (within
    ZERO_EIGENVALUE_ATOL * scale), then positive."""
    if abs(vals[0]) > ZERO_EIGENVALUE_ATOL * scale:
        raise ConsistencyError("smallest Laplacian eigenvalue is not numerically zero")
    if vals.size >= 2 and vals[1] <= 0.0:
        raise ConsistencyError("second eigenvalue not positive on a connected graph")


def _check_normalized(nrm: np.ndarray) -> None:
    """The normalized spectrum of a connected graph: as ``_check_spectrum``, and within [0, 2]."""
    _check_spectrum(nrm)
    if nrm[-1] > 2.0 + NORMALIZED_RANGE_TOL or nrm[0] < -NORMALIZED_RANGE_TOL:
        raise ConsistencyError("normalized spectrum outside [0, 2]")


def laplacian_spectra(g: WeightedGraph) -> SpectrumResult:
    """Both spectra, sorted ascending, with residual and range checks."""
    g.require_connected()
    lap, norm = laplacian_matrices(g)
    comb = _checked_eigh(lap)[0]
    nrm = _checked_eigh(norm)[0]
    _check_spectrum(comb, scale=max(float(np.abs(comb).max()), 1.0))
    _check_normalized(nrm)
    return SpectrumResult(combinatorial=tuple(map(float, comb)), normalized=tuple(map(float, nrm)))


def stats(g: WeightedGraph) -> tuple[float, float]:
    """(alpha, kappa) from one eigendecomposition, of the normalized Laplacian.

    Refused when max_i ||N phi_i - mu_i phi_i|| / mu_2, an a-posteriori
    bound on the relative error to expect in the smallest nonzero
    eigenvalue and in both sums, exceeds ERROR_BOUND_RTOL.
    """
    g.require_connected()
    if g.n == 1:
        return 0.0, 0.0
    mu, phi, residual = _checked_eigh(laplacian_matrices(g)[1])
    _check_normalized(mu)
    check_error_bound(residual / mu[1], "normalized spectrum", kind="a-posteriori")
    inv = 1.0 / mu[1:]
    # sqrt(vol) * psi_i, with no D^-1/2 or vol formed on its own
    chi = phi[:, 1:] * np.sqrt(g.vol / np.array(g.degrees))[:, None]
    chi -= chi.mean(axis=0)
    alpha = float(inv @ np.einsum("ij,ij->j", chi, chi)) / g.n
    kappa = sum(inv.tolist())
    check_finite(alpha, "spectral alpha")
    check_finite(kappa, "spectral kappa")
    return alpha, kappa
