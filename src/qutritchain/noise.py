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

from .evolution import _check_n_steps, _finite

COMPLETENESS_TOL = 1e-12
# T2 may pass 2 T1 by this relative amount, the roundoff of a T2 given as 2 T1
T2_RTOL = 1e-12


@dataclass(frozen=True)
class QutritChannel:
    """Kraus map on a single-qutrit density matrix."""

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        defect = self.completeness_defect()
        if not defect <= COMPLETENESS_TOL:  # a NaN defect fails too
            raise ValueError(f"Kraus set not trace preserving: defect {defect:.3e}")

    def completeness_defect(self) -> float:
        s = sum(e.conj().T @ e for e in self.kraus_ops)
        return float(np.abs(s - np.eye(3)).max())

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(e @ rho @ e.conj().T for e in self.kraus_ops)


def check_lifetimes(t: float, t1: float, t2: float | None = None) -> None:
    """The one rule on a duration t (ns) and lifetimes t1, t2 (us), called
    by every channel and curve here and by the CLI's config check: t finite
    and >= 0, t1 (and t2 unless None) a positive normal float (finite and
    at least 2.2e-308), and T2 <= 2 T1 up to the relative T2_RTOL.
    ValueError otherwise, NaN and a number past the float range included.
    What it accepts gives finite channels and curves."""
    tiny, lifetimes = np.finfo(float).tiny, (t1,) if t2 is None else (t1, t2)
    if not (_finite(t) and t >= 0 and all(_finite(x) and x >= tiny for x in lifetimes)):
        raise ValueError(f"need finite t >= 0 ns and positive normal T1, T2, got {t}, {lifetimes}")
    if t2 is not None and 0.5 * t2 - t1 > T2_RTOL * t1:  # halves: 2 T1 may overflow
        raise ValueError(f"T2 = {t2} us exceeds 2 T1 = {2 * t1} us: invalid regime")


def _dephasing_rate(t: float, t1: float, t2: float) -> float:
    """Pure-dephasing rate 1/T_phi = 1/T2 - 1/(2 T1) in 1/us, after
    check_lifetimes(t, t1, t2); a T2 within T2_RTOL above 2 T1 gives 0."""
    check_lifetimes(t, t1, t2)
    return max(1.0 / t2 - 0.5 / t1, 0.0)


def amplitude_damping(t: float, t1: float) -> QutritChannel:
    """Three-level energy relaxation over t ns with lifetime t1 us."""
    check_lifetimes(t, t1)
    with np.errstate(over="ignore"):  # t / T1 past the float range: gamma = 1
        gamma = 1.0 - np.exp(-(t * 1e-3) / t1)
    s = np.sqrt(1.0 - gamma)
    e0 = np.diag([1.0, s, 1.0 - gamma]).astype(complex)
    e1 = np.diag([np.sqrt(gamma), np.sqrt(2.0 * gamma * (1.0 - gamma))], k=1).astype(complex)
    e2 = np.diag([gamma], k=2).astype(complex)
    return QutritChannel((e0, e1, e2))


def phase_damping(t: float, t1: float, t2: float) -> QutritChannel:
    """Pure dephasing over t ns given measured T1, T2 in us.

    Requires T2 <= 2 T1 (otherwise the extracted pure-dephasing rate would
    be negative, which is unphysical).  Populations are untouched; the Kraus
    operators are diagonal, obtained from the eigendecomposition of the
    positive semidefinite coherence-decay kernel exp(-(m-n)^2 t / T_phi).
    """
    rate_phi = _dephasing_rate(t, t1, t2)
    with np.errstate(over="ignore"):  # t / T_phi past the float range: r = 0
        x = rate_phi * t * 1e-3
        r1, r4 = np.exp(-x), np.exp(-4.0 * x)  # exp(-(m-n)^2 x) at |m-n| = 1, 2
    kernel = np.array([[1.0, r1, r4], [r1, 1.0, r1], [r4, r1, 1.0]])
    w, v = np.linalg.eigh(kernel)
    cols = v * np.sqrt(np.maximum(w, 0.0))  # column i: sqrt(w_i) v_i
    return QutritChannel(tuple(np.diag(c).astype(complex) for c in cols.T))


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

    It matches the channel loop to a few 1e-15.  An n_steps that is not a
    nonnegative integer is a ValueError, as for chain.intrinsic_error_curve.
    So is check_lifetimes' rule, the one phase_damping raises: t_qst finite
    and >= 0, t1 and t2 positive normal floats and T2 <= 2 T1.
    """
    _check_n_steps(n_steps)
    rate_phi = _dephasing_rate(t_qst, t1, t2)
    k = np.arange(1, n_steps + 1)
    with np.errstate(over="ignore"):  # t or t / T past the float range: full decay
        t = k * t_qst * 1e-3  # us
        keep = np.exp(-t / t1)  # 1 - gamma
        x = rate_phi * t if rate_phi > 0 else np.zeros(n_steps)  # t / T_phi; 0 * inf is NaN
        overlap = 1.0 / 3.0 + 2.0 / 9.0 * (
            np.sqrt(keep) * (2.0 + (np.sqrt(2.0) - 1.0) * (1.0 - keep)) * np.exp(-x)
            + keep * np.exp(-4.0 * x)
        )
    return np.column_stack((k, 1.0 - overlap))
