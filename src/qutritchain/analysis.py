"""Fixed-exponent power-law fits and the error-scaling crossover."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_FIT_POINTS = 3  # fewest (k, error) points fit_power fits


@dataclass(frozen=True)
class PowerLawFit:
    """Zero-intercept fit error = prefactor * k^exponent."""

    exponent: int
    prefactor: float
    rms_residual: float


def _split(data) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty sequence of (k, error) pairs")
    return arr[:, 0], arr[:, 1]


def fit_power(data, exponent: int) -> PowerLawFit:
    """Least squares on the single regressor k^exponent (no intercept):
    prefactor = sum(err * k^p) / sum(k^(2p))."""
    k, err = _split(data)
    if len(k) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points")
    reg = k**float(exponent)
    prefactor = float(np.sum(err * reg) / np.sum(reg * reg))
    rms = float(np.sqrt(np.mean((err - prefactor * reg) ** 2)))
    return PowerLawFit(exponent, max(prefactor, 0.0), rms)


def free_exponent_fit(data) -> tuple[float, float]:
    """Diagnostic log-log fit; returns (exponent, prefactor).  Points with
    nonpositive error are dropped."""
    k, err = _split(data)
    keep = err > 0
    if keep.sum() < 2:
        raise ValueError("not enough positive points for a log-log fit")
    p, logc = np.polyfit(np.log(k[keep]), np.log(err[keep]), 1)
    return float(p), float(np.exp(logc))


def crossover(a: PowerLawFit, b: PowerLawFit) -> float:
    """Step count k* where the k^4 curve overtakes the linear one:
    A k*^4 = B k* gives k* = (B/A)^(1/3)."""
    if {a.exponent, b.exponent} != {4, 1}:
        raise ValueError("crossover expects one quartic and one linear fit")
    quartic, linear = (a, b) if a.exponent == 4 else (b, a)
    if quartic.prefactor <= 0 or linear.prefactor <= 0:
        raise ValueError("crossover needs strictly positive prefactors")
    return float((linear.prefactor / quartic.prefactor) ** (1.0 / 3.0))
