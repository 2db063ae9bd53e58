"""Transmon-qutrit Hamiltonians: lab frame, rotating frame, RWA, and chains.

Each transmon keeps its three lowest levels.  Public parameters are cyclic
frequencies in MHz and times in ns; matrices are built in angular rad/ns
(factor 2*pi*1e-3).  Basis ordering for n qutrits is lexicographic with
qutrit 1 most significant: index("ab..") = 3^(n-1)*a + 3^(n-2)*b + ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .evolution import evolve, evolve_affine

MHZ_TO_RAD_NS = 2.0 * np.pi * 1e-3

DELTA_RANGE_MHZ = 2500.0  # detuning tunable within -2.5 .. +2.5 GHz
COUPLING_CAP_MHZ = 55.0   # inductive coupler range 0 .. 55 MHz
MAX_FULL_QUTRITS = 4      # full Hilbert-space evolution is for validation only

_SQRT2 = np.sqrt(2.0)


def x_op() -> np.ndarray:
    """Spin-1 generalization of sigma^x for the three transmon levels."""
    return np.array([[0, 1, 0], [1, 0, _SQRT2], [0, _SQRT2, 0]], dtype=complex)


def y_op() -> np.ndarray:
    """Spin-1 generalization of sigma^y; Hermitian, i*(lowering - raising)."""
    return np.array(
        [[0, -1j, 0], [1j, 0, -1j * _SQRT2], [0, 1j * _SQRT2, 0]], dtype=complex
    )


def number_op() -> np.ndarray:
    """Local excitation number diag(0, 1, 2)."""
    return np.diag([0.0, 1.0, 2.0]).astype(complex)


def basis_labels(n: int) -> tuple[str, ...]:
    """Ordered product-basis labels, e.g. ("00", "01", ..., "22") for n=2."""
    labels = [""]
    for _ in range(n):
        labels = [s + d for s in labels for d in "012"]
    return tuple(labels)


def basis_index(label: str) -> int:
    """Index of a product-basis label under the ordering contract."""
    return int(label, 3)


def embed(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """Embed a single-qutrit operator on qutrit k (0-based) into n qutrits."""
    out = np.eye(1, dtype=complex)
    for j in range(n):
        out = np.kron(out, op if j == k else np.eye(3, dtype=complex))
    return out


def _as_callable(x) -> Callable[[float], float]:
    return x if callable(x) else (lambda t, _v=float(x): _v)


@dataclass(frozen=True)
class QutritParams:
    """Single-transmon parameters; eta > 0, |delta(t)| within the tuning range."""

    eta: float                 # anharmonicity, MHz
    delta: float | Callable[[float], float] = 0.0  # detuning Delta(t), MHz
    omega: float = 0.0         # clock frequency, MHz (lab-frame use only)

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("anharmonicity eta must be positive")
        if not callable(self.delta) and abs(self.delta) > DELTA_RANGE_MHZ:
            raise ValueError(f"|delta| exceeds {DELTA_RANGE_MHZ} MHz tuning range")

    def delta_at(self, t: float) -> float:
        return float(_as_callable(self.delta)(t))


@dataclass(frozen=True)
class QutritSystem:
    """N coupled qutrits with per-edge time-dependent couplings g_k(t) in MHz."""

    params: Sequence[QutritParams]
    couplings: Sequence = field(default_factory=list)  # n-1 entries, MHz or callable

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qutrit")
        if len(self.couplings) != self.n - 1:
            raise ValueError("couplings must have n-1 entries")

    @property
    def n(self) -> int:
        return len(self.params)

    def coupling_at(self, k: int, t: float) -> float:
        g = float(_as_callable(self.couplings[k])(t))
        if g < -1e-12 or g > COUPLING_CAP_MHZ + 1e-9:
            raise ValueError(f"g_{k}(t) = {g} MHz outside 0..{COUPLING_CAP_MHZ} MHz")
        return g


def _local_diag(e01: float, e02: float) -> np.ndarray:
    """diag(0, e01, e02) in rad/ns from cyclic MHz inputs."""
    return np.diag([0.0, e01 * MHZ_TO_RAD_NS, e02 * MHZ_TO_RAD_NS]).astype(complex)


def lab_hamiltonian(sys: QutritSystem, t: float) -> np.ndarray:
    """Two-qutrit lab-frame Hamiltonian: local diag(0, eps, 2 eps - eta) plus
    the inductive coupling g(t) X1 X2 (the XX term keeps the counter-rotating
    part, e.g. <00|H|11> = g)."""
    if sys.n != 2:
        raise ValueError("lab_hamiltonian is defined for two qutrits")
    h = np.zeros((9, 9), dtype=complex)
    for i, p in enumerate(sys.params):
        eps = p.omega + p.delta_at(t)  # lab-frame qutrit frequency, MHz
        h += embed(_local_diag(eps, 2 * eps - p.eta), i, 2)
    g = sys.coupling_at(0, t) * MHZ_TO_RAD_NS
    x = x_op()
    return h + g * np.kron(x, x)


def _clock_diag(sys: QutritSystem) -> np.ndarray:
    """Diagonal of the clock Hamiltonian (rad/ns) for the rotating frame."""
    d = np.zeros(9)
    for i, p in enumerate(sys.params):
        d += np.diag(embed(_local_diag(p.omega, 2 * p.omega), i, 2)).real
    return d


def coupling_operator(k: int, n: int) -> np.ndarray:
    """(X_k X_k+1 + Y_k Y_k+1) / 2 embedded in n qutrits (0-based edge k)."""
    xx = embed(x_op(), k, n) @ embed(x_op(), k + 1, n)
    yy = embed(y_op(), k, n) @ embed(y_op(), k + 1, n)
    return (xx + yy) / 2.0


def chain_hamiltonian(sys: QutritSystem, t: float) -> np.ndarray:
    """N-qutrit nearest-neighbor RWA Hamiltonian.

    Full Hilbert-space construction is capped at 4 qutrits; longer chains are
    handled by front propagation, not by dense evolution.
    """
    n = sys.n
    if n > MAX_FULL_QUTRITS:
        raise ValueError(
            f"full Hilbert space capped at {MAX_FULL_QUTRITS} qutrits (3^{n} dims requested)"
        )
    dim = 3**n
    h = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(sys.params):
        d = p.delta_at(t)
        h += embed(_local_diag(d, 2 * d - p.eta), i, n)
    for k in range(n - 1):
        h += sys.coupling_at(k, t) * MHZ_TO_RAD_NS * coupling_operator(k, n)
    return h


def resonant_pair(eta: float) -> QutritSystem:
    """Two qutrits on resonance (Delta1 = Delta2 = 0) with no coupling yet."""
    return QutritSystem([QutritParams(eta), QutritParams(eta)], couplings=[0.0])


def rwa_residual(
    eta: float,
    g_of_t: Callable[[float], float],
    t_span: tuple[float, float],
    omega: float,
    dt: float = 0.001,
) -> float:
    """Operator-norm gap between exact-rotating-frame and RWA propagators.

    Both frames share the clock omega (MHz) on both qutrits and the same
    resonant coupling schedule; the gap is O(g / omega) from the dropped
    terms oscillating at omega_1 + omega_2.  g_of_t (MHz) is called on
    arrays of times, as evolve_affine's scale_of_t is; a scalar return is
    broadcast to every time.
    """
    params = [QutritParams(eta, omega=omega), QutritParams(eta, omega=omega)]
    sys = QutritSystem(params, couplings=[0.0])
    labels = basis_labels(2)

    diag = chain_hamiltonian(sys, 0.0)
    xx = np.kron(x_op(), x_op())
    w_rwa = coupling_operator(0, 2)
    e = _clock_diag(sys)
    de = e[None, :] - e[:, None]

    def g_values(ts):
        ts = np.atleast_1d(ts)
        return np.broadcast_to(np.asarray(g_of_t(ts), dtype=float), ts.shape) * MHZ_TO_RAD_NS

    def h_exact(ts):
        g = g_values(ts)
        v = xx[None, :, :] * np.exp(1j * de[None, :, :] * np.atleast_1d(ts)[:, None, None])
        return diag[None, :, :] + g[:, None, None] * v

    u_exact = evolve(h_exact, t_span, dt, basis=labels, vectorized=True)
    u_rwa = evolve_affine(diag, w_rwa, g_values, t_span, dt, basis=labels)
    return float(np.linalg.norm(u_exact.matrix - u_rwa.matrix, ord=2))
