"""Dense complex linear algebra and time-ordered evolution.

Hamiltonians handed to this module are matrices of angular frequencies in
rad/ns; times are in ns.  The integrator is a midpoint-sampled product of
piecewise-constant exponentials, so every returned propagator is unitary by
construction (each step is exp(-i H dt) of a Hermitian H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-9
CHUNK_BYTES = 32_000_000  # step or run unitaries evolve/evolve_affine build at once


def hermiticity_defect(h: np.ndarray) -> float:
    """Max absolute asymmetry |h - h^dagger|."""
    return float(np.abs(h - h.conj().T).max()) if h.size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U^dagger U - I."""
    d = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(d)))


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h (rad/ns) over t (ns), via eigendecomposition.

    Raises ValueError for non-Hermitian input, reporting the max asymmetry.
    """
    h = np.asarray(h)
    defect = hermiticity_defect(h)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dagger| = {defect:.3e}")
    return _batch_step_unitaries(h[None], t)[0]


@dataclass(frozen=True)
class Propagator:
    """Unitary time-evolution matrix with its basis labels and time window."""

    matrix: np.ndarray
    basis: tuple[str, ...]
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.matrix.shape != (len(self.basis), len(self.basis)):
            raise ValueError("propagator shape does not match basis size")
        defect = unitarity_defect(self.matrix)
        if defect > UNITARY_TOL:
            raise ValueError(f"propagator is not unitary: |U^dag U - I|_F = {defect:.3e}")

    def index(self, label: str) -> int:
        return self.basis.index(label)

    def amplitude(self, final: str, initial: str) -> complex:
        """<final|U|initial> by basis label."""
        return complex(self.matrix[self.index(final), self.index(initial)])


def _batch_step_unitaries(hs: np.ndarray, dt) -> np.ndarray:
    """exp(-i H dt) for a stack of Hermitian matrices (k, d, d); dt is one
    duration or one per matrix."""
    dt = np.asarray(dt, dtype=float)[..., None]
    if np.abs(hs.imag).max(initial=0.0) == 0.0:
        w, v = np.linalg.eigh(hs.real)
        phases = np.exp(-1j * w * dt)
        return np.matmul(v * phases[:, None, :], v.transpose(0, 2, 1).astype(complex))
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * dt)
    return np.matmul(v * phases[:, None, :], v.conj().transpose(0, 2, 1))


def _fold(us: np.ndarray) -> np.ndarray:
    """Time-ordered product us[-1] @ ... @ us[0] of a (k, d, d) stack, by
    multiplying neighbouring pairs in one batched matmul per level; each
    level halves the stack (rounding up), so ceil(log2 k) levels leave one."""
    for _ in range((len(us) - 1).bit_length()):
        m = len(us) - len(us) % 2
        us = np.concatenate((np.matmul(us[1:m:2], us[0:m:2]), us[m:]))
    return us[0]


def _runs(new_run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run, given a flag per step that is True
    where the step differs from the one before (the first step included)."""
    starts = np.flatnonzero(new_run)
    return starts, np.diff(np.append(starts, len(new_run)))


def _n_steps(length: float, dt: float) -> int:
    """Steps of about dt over a window: round(length/dt), at least one
    unless the window is empty."""
    return max(1, int(round(length / dt))) if length > 0 else 0


def _midpoints(t_span: tuple[float, float], dt: float) -> tuple[np.ndarray, float]:
    """Midpoint times and step of the grid of _n_steps equal steps over t_span."""
    t0, t1 = t_span
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    n = _n_steps(t1 - t0, dt)
    dt_eff = (t1 - t0) / max(n, 1)
    return t0 + (np.arange(n) + 0.5) * dt_eff, dt_eff


def evolve_affine(
    d: np.ndarray,
    w: np.ndarray,
    scale_of_t,
    t_span: tuple[float, float],
    dt: float,
    basis: tuple[str, ...] | None = None,
) -> Propagator:
    """Evolution under h(t) = d + c(t) w with Hermitian d, w and real c(t).

    Same midpoint integrator as evolve(), but each run of equal sampled c
    values is one exponential exp(-i h dt * run) from one eigendecomposition;
    a pulse plateau then costs one eigendecomposition and is exact.  Runs
    are found, exponentiated and folded in batches of at most
    CHUNK_BYTES of run unitaries, with no loop over steps.
    scale_of_t must accept an array of times.

    The window is split into round((t1 - t0) / dt) equal steps (at least one
    if it is not empty), counted from the float difference t1 - t0.  Windows
    of equal length at different offsets can therefore get step counts one
    apart: at dt = 0.002, (0, 0.005) takes 2 steps and (0.1, 0.105) takes 3.
    The package's callers evolve every window at offset 0.
    """
    for name, m in (("d", d), ("w", w)):
        defect = hermiticity_defect(np.asarray(m))
        if defect > HERMITIAN_TOL:
            raise ValueError(f"{name} is not Hermitian: max asymmetry {defect:.3e}")
    mids, dt_eff = _midpoints(t_span, dt)
    dim = d.shape[0]
    if basis is None:
        basis = tuple(str(i) for i in range(dim))
    u = np.eye(dim, dtype=complex)
    if not len(mids):
        return Propagator(u, basis, *t_span)
    c = np.asarray(scale_of_t(mids), dtype=float)
    if c.shape != mids.shape:
        raise ValueError("scale_of_t must return one value per time")

    real = np.abs(d.imag).max(initial=0.0) == 0.0 and np.abs(w.imag).max(initial=0.0) == 0.0
    d, w = (d.real, w.real) if real else (d, w)
    starts, lengths = _runs(np.append(True, c[1:] != c[:-1]))
    chunk = max(16, CHUNK_BYTES // (dim * dim * 16))
    for lo in range(0, len(starts), chunk):
        cs = c[starts[lo : lo + chunk]]
        hs = d[None, :, :] + cs[:, None, None] * w[None, :, :]
        u = _fold(_batch_step_unitaries(hs, dt_eff * lengths[lo : lo + chunk])) @ u
    return Propagator(u, basis, *t_span)


def _sampled(h_of_t, ts: np.ndarray, dim: int | None = None) -> np.ndarray:
    """h_of_t(ts) as a complex (len(ts), dim, dim) stack; any other shape
    is rejected."""
    hs = np.asarray(h_of_t(ts), dtype=complex)
    if dim is None and hs.ndim == 3:
        dim = hs.shape[-1]
    if hs.shape != (len(ts), dim, dim):
        raise ValueError(
            f"h_of_t must return a (k, d, d) stack for k = {len(ts)} times, got shape {hs.shape}"
        )
    return hs


def evolve(
    h_of_t,
    t_span: tuple[float, float],
    dt: float,
    basis: tuple[str, ...] | None = None,
) -> Propagator:
    """Time-ordered evolution under a time-dependent Hermitian h(t).

    h_of_t maps an array of k times in ns to a (k, d, d) stack of
    Hamiltonians in rad/ns, as evolve_affine's scale_of_t maps times to
    values.  Steps are midpoint-sampled: U = prod_k exp(-i h(t_k + dt/2) dt),
    earliest step applied first.  Non-Hermitian samples are rejected with
    the max asymmetry.
    """
    mids, dt_eff = _midpoints(t_span, dt)
    dim = _sampled(h_of_t, np.array([t_span[0]])).shape[-1]
    if basis is None:
        basis = tuple(str(i) for i in range(dim))
    u = np.eye(dim, dtype=complex)
    chunk = max(16, CHUNK_BYTES // (dim * dim * 16))
    for lo in range(0, len(mids), chunk):
        ts = mids[lo : lo + chunk]
        hs = _sampled(h_of_t, ts, dim)
        defects = np.abs(hs - hs.conj().transpose(0, 2, 1)).reshape(len(ts), -1).max(axis=1)
        worst = int(np.argmax(defects))
        if defects[worst] > HERMITIAN_TOL:
            raise ValueError(
                f"h(t) is not Hermitian at t = {ts[worst]:.6f} ns: "
                f"max |h - h^dagger| = {defects[worst]:.3e}"
            )
        # a run of identical steps (a pulse plateau) is one exponential
        starts, lengths = _runs(np.append(True, np.any(hs[1:] != hs[:-1], axis=(1, 2))))
        u = _fold(_batch_step_unitaries(hs[starts], dt_eff * lengths)) @ u
    return Propagator(u, basis, *t_span)
