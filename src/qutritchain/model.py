"""Transmon-qutrit chain Hamiltonians in the RWA, and the spin-1 operators
they are built from.  The check of the RWA itself, rwa_residual, lives in
transfer, next to the pair's exchange blocks that both its sides run on.

Each transmon keeps its three lowest levels.  Public parameters are cyclic
frequencies in MHz and times in ns; matrices are built in angular rad/ns
(factor 2*pi*1e-3).  Basis ordering for n qutrits is lexicographic with
qutrit 1 most significant: index("ab..") = 3^(n-1)*a + 3^(n-2)*b + ...
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# evolve is not called here; it stays imported because bench/tracing.py wraps model.evolve
from .evolution import _finite, evolve  # noqa: F401

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


def basis_index(label: str) -> int:
    """Index of a product-basis label under the ordering contract."""
    return int(label, 3)


def embed(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """Embed a single-qutrit operator on qutrit k (0-based) into n qutrits:
    I_(3^k) x op x I_(3^(n-k-1))."""
    return np.kron(np.kron(np.eye(3**k, dtype=complex), op),
                   np.eye(3 ** (n - k - 1), dtype=complex))


def coupling_operator(k: int, n: int) -> np.ndarray:
    """(X_k X_k+1 + Y_k Y_k+1) / 2 embedded in n qutrits (0-based edge k):
    the 9x9 pair operator between identities on the qutrits before and
    after the edge."""
    pair = (np.kron(x_op(), x_op()) + np.kron(y_op(), y_op())) / 2.0
    return np.kron(np.kron(np.eye(3**k, dtype=complex), pair),
                   np.eye(3 ** (n - k - 2), dtype=complex))


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
    # the diagonal qutrit by qutrit: qutrit i's (0, 0, -eta), each entry
    # repeated over the qutrits after it and tiled over those before it
    diagonal = np.zeros(3**n)
    local = np.array([0.0, 0.0, -eta * MHZ_TO_RAD_NS])
    for i in range(n):
        diagonal += np.tile(np.repeat(local, 3 ** (n - i - 1)), 3**i)
    h = np.diag(diagonal).astype(complex)
    for k, g in enumerate(couplings):
        if not -1e-12 <= g <= COUPLING_CAP_MHZ + 1e-9:
            raise ValueError(f"g_{k} = {g} MHz outside 0..{COUPLING_CAP_MHZ} MHz")
        if g:  # a zero coupling adds 0.0 to every entry, which changes none
            h += g * MHZ_TO_RAD_NS * coupling_operator(k, n)
    return h

