"""Laplacian spectra and the eigenvalue routes to alpha and kappa.

For a connected graph with combinatorial Laplacian L = D - A and
normalized Laplacian D^{-1/2} L D^{-1/2}, the nonzero eigenvalues give

    alpha = (vol / n) * sum 1/lambda_i      (combinatorial)
    kappa = sum 1/mu_i                      (normalized)

The single zero eigenvalue is excluded by index after sorting, never by
thresholding, so near-disconnected weighted trees cannot drop a second
eigenvalue by accident. A near-disconnected graph still loses digits in
its smallest nonzero eigenvalue; the route refuses such a graph instead
of returning them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .graphs import WeightedGraph
from .walks import EPS, check_error_bound, check_finite, laplacian

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


def _checked_spectrum(m: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"eigensolver failed to converge: {exc}") from exc
    scale = np.linalg.norm(m)
    residual = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    worst = float(residual.max()) if residual.size else 0.0
    if not worst <= RESIDUAL_RTOL * max(scale, 1e-30):
        raise ConsistencyError(f"eigenpair residual {worst:.3e} exceeds tolerance")
    return vals


def laplacian_spectra(g: WeightedGraph) -> SpectrumResult:
    """Both spectra, sorted ascending, with residual and range checks."""
    g.require_connected()
    lap, norm = laplacian_matrices(g)
    comb = _checked_spectrum(lap)
    nrm = _checked_spectrum(norm)
    scale = max(float(np.abs(comb).max()), 1.0)
    if abs(comb[0]) > ZERO_EIGENVALUE_ATOL * scale or abs(nrm[0]) > ZERO_EIGENVALUE_ATOL:
        raise ConsistencyError("smallest Laplacian eigenvalue is not numerically zero")
    if g.n >= 2 and (comb[1] <= 0.0 or nrm[1] <= 0.0):
        raise ConsistencyError("second eigenvalue not positive on a connected graph")
    if nrm[-1] > 2.0 + NORMALIZED_RANGE_TOL or nrm[0] < -NORMALIZED_RANGE_TOL:
        raise ConsistencyError("normalized spectrum outside [0, 2]")
    return SpectrumResult(combinatorial=tuple(map(float, comb)), normalized=tuple(map(float, nrm)))


def stats(g: WeightedGraph) -> tuple[float, float]:
    """(alpha, kappa) from one call of laplacian_spectra.

    Refused when eps * lambda_max / lambda_2 (combinatorial) or
    eps * mu_max / mu_2 (normalized), the relative error to expect in the
    smallest nonzero eigenvalue, exceeds ERROR_BOUND_RTOL.
    """
    g.require_connected()
    if g.n == 1:
        return 0.0, 0.0
    spectrum = laplacian_spectra(g)
    comb, nrm = spectrum.combinatorial, spectrum.normalized
    check_error_bound(EPS * comb[-1] / comb[1], "combinatorial spectrum")
    check_error_bound(EPS * nrm[-1] / nrm[1], "normalized spectrum")
    alpha = (g.vol / g.n) * sum(1.0 / lam for lam in comb[1:])
    kappa = sum(1.0 / mu for mu in nrm[1:])
    check_finite(alpha, "spectral alpha")
    check_finite(kappa, "spectral kappa")
    return alpha, kappa


def alpha_spectral(g: WeightedGraph) -> float:
    """Average hitting time as (vol/n) * sum of reciprocal nonzero eigenvalues."""
    return stats(g)[0]


def kappa_spectral(g: WeightedGraph) -> float:
    """Kemeny's constant as the reciprocal sum over the normalized spectrum."""
    return stats(g)[1]
