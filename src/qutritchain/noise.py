"""Single-qutrit T1/T2 decoherence as Kraus channels.

Both channels come from the damped-harmonic-oscillator picture truncated to
three levels.  Amplitude damping with gamma = 1 - exp(-t/T1):

    E0 = diag(1, sqrt(1-gamma), 1-gamma)
    E1 = sqrt(gamma) |0><1| + sqrt(2 gamma (1-gamma)) |1><2|
    E2 = gamma |0><2|

Pure dephasing multiplies rho_mn by exp(-(m-n)^2 t / T_phi) with
1/T_phi = 1/T2 - 1/(2 T1), so the 0-1 coherence of the combined channel
decays as exp(-t/T2) and the rate grows quadratically with level distance.
The idle error curve of the chain is this channel in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True)
class QutritChannel:
    """Kraus map on a single-qutrit density matrix."""

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        defect = self.completeness_defect()
        if defect > COMPLETENESS_TOL:
            raise ValueError(f"Kraus set not trace preserving: defect {defect:.3e}")

    def completeness_defect(self) -> float:
        s = sum(e.conj().T @ e for e in self.kraus_ops)
        return float(np.abs(s - np.eye(3)).max())

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(e @ rho @ e.conj().T for e in self.kraus_ops)

    def choi(self) -> np.ndarray:
        """Choi matrix sum_k vec(E_k) vec(E_k)^dag; PSD iff the map is CP."""
        c = np.zeros((9, 9), dtype=complex)
        for e in self.kraus_ops:
            v = e.reshape(-1)
            c += np.outer(v, v.conj())
        return c


def _dephasing_rate(t: float, t1: float, t2: float) -> float:
    """Pure-dephasing rate 1/T_phi = 1/T2 - 1/(2 T1) in 1/us, for a duration
    t >= 0 ns and positive t1, t2 with T2 <= 2 T1."""
    if t < 0 or t1 <= 0 or t2 <= 0:
        raise ValueError("need t >= 0 and positive t1, t2")
    rate_phi = 1.0 / t2 - 0.5 / t1
    if rate_phi < -1e-15:
        raise ValueError(f"T2 = {t2} us exceeds 2 T1 = {2 * t1} us: invalid regime")
    return max(rate_phi, 0.0)


def amplitude_damping(t: float, t1: float) -> QutritChannel:
    """Three-level energy relaxation over t ns with lifetime t1 us."""
    if t < 0 or t1 <= 0:
        raise ValueError("need t >= 0 and t1 > 0")
    gamma = 1.0 - np.exp(-(t * 1e-3) / t1)
    s = np.sqrt(1.0 - gamma)
    e0 = np.diag([1.0, s, 1.0 - gamma]).astype(complex)
    e1 = np.zeros((3, 3), dtype=complex)
    e1[0, 1] = np.sqrt(gamma)
    e1[1, 2] = np.sqrt(2.0 * gamma * (1.0 - gamma))
    e2 = np.zeros((3, 3), dtype=complex)
    e2[0, 2] = gamma
    return QutritChannel((e0, e1, e2))


def phase_damping(t: float, t1: float, t2: float) -> QutritChannel:
    """Pure dephasing over t ns given measured T1, T2 in us.

    Requires T2 <= 2 T1 (otherwise the extracted pure-dephasing rate would
    be negative, which is unphysical).  Populations are untouched; the Kraus
    operators are diagonal, obtained from the eigendecomposition of the
    positive semidefinite coherence-decay kernel exp(-(m-n)^2 t / T_phi).
    """
    rate_phi = _dephasing_rate(t, t1, t2)
    m = np.arange(3)
    kernel = np.exp(-((m[:, None] - m[None, :]) ** 2) * rate_phi * t * 1e-3)
    w, v = np.linalg.eigh(kernel)
    ops = tuple(
        np.diag(np.sqrt(max(wi, 0.0)) * v[:, i]).astype(complex)
        for i, wi in enumerate(w)
    )
    return QutritChannel(ops)


def decohered_state(rho: np.ndarray, t: float, t1: float, t2: float) -> np.ndarray:
    """rho after amplitude then phase damping over t ns (the two commute)."""
    return phase_damping(t, t1, t2).apply(amplitude_damping(t, t1).apply(rho))


def decoherence_error_curve(
    n_steps: int, t_qst: float, t1: float = 60.0, t2: float = 60.0
) -> np.ndarray:
    """Idle-qutrit infidelity 1 - <psi_unif|rho(k t_qst)|psi_unif> for
    k = 1..n_steps; returns an (n_steps, 2) array of (k, error).

    The chain protocol leaves every qutrit idle except the transferring
    pair, so decoherence acts like this single-qutrit channel for the whole
    t = k * t_qst duration.  The curve is decohered_state's channel in
    closed form, for all k at once and with no Kraus operators.  With
    gamma = 1 - exp(-t/T1), r = exp(-t/T_phi) and u the uniform state,
    amplitude damping takes |u><u| to (a a^T + b b^T + c c^T) / 3 with
    a = (1, sqrt(1-gamma), 1-gamma), b = (sqrt(gamma), sqrt(2 gamma (1-gamma)), 0)
    and c = (gamma, 0, 0); dephasing multiplies element mn by r^((m-n)^2).
    The overlap with u is the mean of the elements, which is

        1/3 + 2/9 [sqrt(1-gamma) (2 + (sqrt 2 - 1) gamma) r + (1-gamma) r^4].

    It matches the channel loop to a few 1e-15.  Raises the ValueErrors of
    phase_damping for t_qst < 0, t1 <= 0, t2 <= 0 and T2 > 2 T1.
    """
    rate_phi = _dephasing_rate(t_qst, t1, t2)
    k = np.arange(1, n_steps + 1)
    t = k * t_qst * 1e-3  # us
    keep = np.exp(-t / t1)  # 1 - gamma
    overlap = 1.0 / 3.0 + 2.0 / 9.0 * (
        np.sqrt(keep) * (2.0 + (np.sqrt(2.0) - 1.0) * (1.0 - keep)) * np.exp(-rate_phi * t)
        + keep * np.exp(-4.0 * rate_phi * t)
    )
    return np.column_stack((k, 1.0 - overlap))
