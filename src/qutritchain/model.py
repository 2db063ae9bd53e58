"""Transmon-qutrit chain Hamiltonians in the RWA, and the RWA residual.

Each transmon keeps its three lowest levels.  Public parameters are cyclic
frequencies in MHz and times in ns; matrices are built in angular rad/ns
(factor 2*pi*1e-3).  Basis ordering for n qutrits is lexicographic with
qutrit 1 most significant: index("ab..") = 3^(n-1)*a + 3^(n-2)*b + ...
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# evolve is not called here; it stays imported because bench/tracing.py wraps model.evolve
from .evolution import _finite, _per_time, evolve, evolve_affine  # noqa: F401

MHZ_TO_RAD_NS = 2.0 * np.pi * 1e-3

DELTA_RANGE_MHZ = 2500.0  # detuning tunable within -2.5 .. +2.5 GHz
COUPLING_CAP_MHZ = 55.0   # inductive coupler range 0 .. 55 MHz
MAX_FULL_QUTRITS = 4      # full Hilbert-space evolution is for validation only

_SQRT2 = np.sqrt(2.0)


def _check_eta(eta: float) -> None:
    # the angular eta must be a normal float: below ~3.5e-306 MHz it loses
    # digits, and below ~8e-322 MHz it rounds to 0 and 1 / eta divides by 0
    if not (_finite(eta) and eta * MHZ_TO_RAD_NS >= np.finfo(float).tiny):
        raise ValueError(
            f"eta must be positive and finite, with a normal angular value, got {eta}"
        )


def x_op() -> np.ndarray:
    """Spin-1 generalization of sigma^x for the three transmon levels."""
    return np.array([[0, 1, 0], [1, 0, _SQRT2], [0, _SQRT2, 0]], dtype=complex)


def y_op() -> np.ndarray:
    """Spin-1 generalization of sigma^y; Hermitian, i*(lowering - raising)."""
    return np.array(
        [[0, -1j, 0], [1j, 0, -1j * _SQRT2], [0, 1j * _SQRT2, 0]], dtype=complex
    )


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


def coupling_operator(k: int, n: int) -> np.ndarray:
    """(X_k X_k+1 + Y_k Y_k+1) / 2 embedded in n qutrits (0-based edge k)."""
    xx = embed(x_op(), k, n) @ embed(x_op(), k + 1, n)
    yy = embed(y_op(), k, n) @ embed(y_op(), k + 1, n)
    return (xx + yy) / 2.0


def chain_hamiltonian(eta: float, couplings: Sequence[float]) -> np.ndarray:
    """RWA Hamiltonian (rad/ns) of len(couplings) + 1 identical qutrits on
    resonance: diag(0, 0, -eta) on every qutrit plus g_k (X X + Y Y)/2 on
    edge k, with eta and the constant couplings g_k in MHz.

    Full Hilbert-space construction is capped at 4 qutrits; longer chains are
    handled by front propagation, not by dense evolution.
    """
    n = len(couplings) + 1
    _check_eta(eta)
    if n > MAX_FULL_QUTRITS:
        raise ValueError(
            f"full Hilbert space capped at {MAX_FULL_QUTRITS} qutrits (3^{n} dims requested)"
        )
    dim = 3**n
    h = np.zeros((dim, dim), dtype=complex)
    local = np.diag([0.0, 0.0, -eta * MHZ_TO_RAD_NS]).astype(complex)
    for i in range(n):
        h += embed(local, i, n)
    for k, g in enumerate(couplings):
        if not -1e-12 <= g <= COUPLING_CAP_MHZ + 1e-9:
            raise ValueError(f"g_{k} = {g} MHz outside 0..{COUPLING_CAP_MHZ} MHz")
        if g:  # a zero coupling adds 0.0 to every entry, which changes none
            h += g * MHZ_TO_RAD_NS * coupling_operator(k, n)
    return h


def rwa_residual(
    eta: float,
    g_of_t: Callable[[np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    omega: float,
    dt: float = 0.001,
) -> float:
    """Operator-norm gap between exact and RWA propagators of a qutrit pair.

    Both qutrits share the clock omega (MHz) and the same resonant coupling
    schedule; the gap is O(g / omega) from the dropped terms oscillating at
    omega_1 + omega_2.  Both sides evolve in the frame where h is affine in
    g: h = D - omega N + g(t) V with N the total excitation number, V = X X
    (exact) or (X X + Y Y)/2 (RWA), and both run on evolve_affine with the
    same D - omega N and g(t).  That frame differs from the rotating frame
    by exp(-i omega N t) on both sides, which leaves the 2-norm of the gap
    unchanged, and every plateau step is equal, so a plateau costs one
    eigendecomposition on either side.  g_of_t (MHz) is called on arrays of
    times and follows evolve_affine's rule for scale_of_t: one value per
    time, or a 0-d constant broadcast to every time.  A non-finite omega is
    a ValueError.
    """
    if not _finite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    n_total = np.add.outer(np.arange(3), np.arange(3)).ravel()
    d_lab = chain_hamiltonian(eta, [0.0]) - np.diag(omega * MHZ_TO_RAD_NS * n_total)
    xx = np.kron(x_op(), x_op())

    def g_values(ts):
        return _per_time(g_of_t(ts), ts, "g_of_t") * MHZ_TO_RAD_NS

    u_exact = evolve_affine(d_lab, xx, g_values, t_span, dt)
    u_rwa = evolve_affine(d_lab, coupling_operator(0, 2), g_values, t_span, dt)
    return float(np.linalg.norm(u_exact - u_rwa, ord=2))
