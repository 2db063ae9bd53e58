"""Concatenated transfer along a qutrit chain via exact front propagation.

Couplings are switched sequentially, so a qutrit that has handed its state
on never re-couples; projecting it onto |0> commutes with every later step.
The transferred state is therefore carried exactly by an unnormalized
3-amplitude front, with the norm deficit recording all leakage left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import Propagator, evolve_affine
from .model import (
    MAX_FULL_QUTRITS,
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    embed,
)
from .pulse import TrapezoidPulse
from .transfer import evolve_transfer, measure_compensation, phase_gate

KET0 = np.array([1.0, 0.0, 0.0], dtype=complex)


def uniform_state() -> np.ndarray:
    """(|0> + |1> + |2>) / sqrt(3)."""
    return np.ones(3, dtype=complex) / np.sqrt(3.0)


@dataclass(frozen=True)
class FrontState:
    """Unnormalized 3-amplitude state carried along the chain."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape != (3,):
            raise ValueError("front state needs exactly 3 amplitudes")
        object.__setattr__(self, "amplitudes", a)
        if self.norm_deficit < -1e-12:
            raise ValueError("front state norm exceeds 1")

    @property
    def norm_deficit(self) -> float:
        """1 - |amplitudes|^2: total probability left behind so far."""
        return 1.0 - float(np.vdot(self.amplitudes, self.amplitudes).real)

    def overlap(self, target: np.ndarray) -> complex:
        return complex(np.vdot(target, self.amplitudes))


@dataclass(frozen=True)
class ChainSchedule:
    """One optimized step pulse repeated for every edge, abutting in time."""

    step_pulse: TrapezoidPulse
    n_steps: int
    compensation: tuple[float, float]  # (theta, phi) applied after each step

    def pulse_for_step(self, k: int) -> TrapezoidPulse:
        """Pulse on edge k (0-based), active during [k T, (k+1) T]."""
        if not 0 <= k < self.n_steps:
            raise IndexError("step index out of range")
        return self.step_pulse.shifted(k * self.step_pulse.t_total)

    @property
    def total_duration(self) -> float:
        return self.n_steps * self.step_pulse.t_total

    def coupling_values(self, ts) -> np.ndarray:
        """g_k(t) array of shape (n_steps, len(ts)) for the whole schedule."""
        ts = np.atleast_1d(ts)
        return np.stack([self.pulse_for_step(k).value(ts) for k in range(self.n_steps)])


def step_transfer(front: FrontState, u_step: Propagator, comp: np.ndarray) -> FrontState:
    """One adjacent-pair transfer: embed front x |0>, evolve, project the
    sending qutrit onto |0> (unnormalized), compensate the receiver."""
    pair = np.kron(front.amplitudes, KET0)
    out = u_step.matrix @ pair
    return FrontState(np.asarray(comp) @ out[:3])


def intrinsic_error_curve(
    n_steps: int,
    u_step: Propagator,
    comp: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Error 1 - |<psi_unif|psi_k>|^2 of the unnormalized front after each of
    k = 1..n_steps identical transfer steps.  Returns an (n_steps, 2) array
    of (k, error)."""
    psi0 = uniform_state() if initial is None else np.asarray(initial, dtype=complex)
    front = FrontState(psi0)
    out = np.empty((n_steps, 2))
    for k in range(1, n_steps + 1):
        front = step_transfer(front, u_step, comp)
        out[k - 1] = (k, 1.0 - abs(front.overlap(psi0)) ** 2)
    return out


def make_schedule(
    g_max: float, t_qst: float, t_ramp: float, eta: float, n_steps: int, dt: float = 0.001
) -> tuple[ChainSchedule, Propagator, np.ndarray]:
    """Build the repeated-pulse schedule plus its step propagator and the
    per-step compensation gate measured from that propagator."""
    pulse = TrapezoidPulse(g_max, t_qst, t_ramp)
    u_step = evolve_transfer(pulse, eta, dt=dt)
    theta, phi = measure_compensation(u_step)
    return ChainSchedule(pulse, n_steps, (theta, phi)), u_step, phase_gate(theta, phi)


def edge_permutation(k: int, n: int) -> np.ndarray:
    """Basis-index permutation that relabels qutrit q as q + k (mod n).

    With p = edge_permutation(k, n), m[np.ix_(p, p)] is the operator m with
    edge 0 moved to edge k: coupling_operator(0, n) becomes
    coupling_operator(k, n), and a Hamiltonian diagonal shared by all
    qutrits is left unchanged.
    """
    axes = [(q - k) % n for q in range(n)]
    return np.arange(3**n).reshape((3,) * n).transpose(axes).reshape(-1)


def evolve_chain_full(
    schedule: ChainSchedule, n: int, eta: float, dt: float = 0.001
) -> np.ndarray:
    """Full 3^n-dim propagation of the schedule, compensation gates included.

    Validation-only oracle; capped at 4 qutrits.  Pulses are evolved one
    segment at a time so each segment sees a single active coupling.  A
    segment is the step pulse shifted in time, and the Hamiltonian depends
    on time only through the pulse, so each is evolved in the step pulse's
    own window, as R^T P R on evolve_transfer's grid (up ramp R, exact
    plateau P, down ramp R^T): front and full chain share one discretization.
    Every qutrit has the same eta, so the edge-k Hamiltonian is the edge-0
    one with its qutrits relabelled; the edge-0 step is evolved once and
    relabelled per edge by edge_permutation.
    """
    if n > MAX_FULL_QUTRITS:
        raise ValueError(f"full chain simulation capped at {MAX_FULL_QUTRITS} qutrits")
    if schedule.n_steps != n - 1:
        raise ValueError("schedule length must be n - 1")
    diag = chain_hamiltonian(eta, [0.0] * (n - 1))
    comp = phase_gate(*schedule.compensation)
    pulse = schedule.step_pulse
    g = lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS
    w = coupling_operator(0, n)
    r = evolve_affine(diag, w, g, pulse.ramp_window, dt).matrix
    p = evolve_affine(diag, w, g, pulse.plateau_window, dt).matrix
    step0 = r.T @ p @ r
    u = np.eye(3**n, dtype=complex)
    for seg in range(n - 1):
        perm = edge_permutation(seg, n)
        u = embed(comp, seg + 1, n) @ step0[np.ix_(perm, perm)] @ u
    return u


def validate_front_vs_full(
    n: int,
    g_max: float,
    t_qst: float,
    t_ramp: float,
    eta: float,
    dt: float = 0.001,
) -> float:
    """|front overlap - full overlap| for an n-qutrit chain.

    The front method must reproduce <ideal|psi_full> exactly, where ideal is
    |0...0> with psi_unif on the last qutrit; the returned gap is floating
    point accumulation only.
    """
    schedule, u_step, comp = make_schedule(g_max, t_qst, t_ramp, eta, n - 1, dt=dt)
    psi0 = uniform_state()
    front = FrontState(psi0)
    for _ in range(n - 1):
        front = step_transfer(front, u_step, comp)
    front_overlap = abs(front.overlap(psi0))

    u_full = evolve_chain_full(schedule, n, eta, dt=dt)
    init = np.zeros(3**n, dtype=complex)
    init[[k * 3 ** (n - 1) for k in range(3)]] = psi0
    ideal = np.zeros(3**n, dtype=complex)
    ideal[:3] = psi0
    full_overlap = abs(np.vdot(ideal, u_full @ init))
    return abs(front_overlap - full_overlap)
