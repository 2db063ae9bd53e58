"""Concatenated transfer along a qutrit chain via exact front propagation.

Couplings are switched sequentially, so a qutrit that has handed its state
on never re-couples; projecting it onto |0> commutes with every later step.
The transferred state is therefore carried exactly by an unnormalized
3-amplitude front, with the norm deficit recording all leakage left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import evolve_affine
from .model import (
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    embed,
)
from .pulse import TrapezoidPulse
from .transfer import evolve_transfer, measure_compensation, phase_gate

def uniform_state() -> np.ndarray:
    """(|0> + |1> + |2>) / sqrt(3)."""
    return np.ones(3, dtype=complex) / np.sqrt(3.0)


@dataclass(frozen=True)
class ChainSchedule:
    """One optimized step pulse repeated for every edge, abutting in time."""

    step_pulse: TrapezoidPulse
    n_steps: int
    compensation: tuple[float, float]  # (theta, phi) applied after each step

    @property
    def total_duration(self) -> float:
        return self.n_steps * self.step_pulse.t_total

    def coupling_values(self, ts) -> np.ndarray:
        """g_k(t) array of shape (n_steps, len(ts)) for ascending times ts.

        Edge k (0-based) carries the step pulse started at k T, active during
        [k T, (k+1) T].  It is evaluated only on the samples of that window,
        padded by one sample on each side; its pulse is exactly 0 outside
        the window, so the rest of the row stays 0.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if np.any(ts[1:] < ts[:-1]):
            raise ValueError("coupling_values needs ascending times")
        g = np.zeros((self.n_steps, len(ts)))
        for k in range(self.n_steps):
            start = k * self.step_pulse.t_total
            end = start + self.step_pulse.t_total
            lo = max(int(np.searchsorted(ts, start)) - 1, 0)
            hi = int(np.searchsorted(ts, end, side="right")) + 1
            g[k, lo:hi] = self.step_pulse.value(ts[lo:hi] - start)
        return g


def step_transfer(front: np.ndarray, u_step: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """One adjacent-pair transfer of the (3,) front: embed front x |0>,
    evolve, project the sending qutrit onto |0> (unnormalized), compensate
    the receiver.

    The embedded pair state |j0> is basis index 3j and the projection keeps
    indices 0..2, so the step is the 3x3 block u_step[:3, ::3] applied to
    the front: one gather, no 9-dim state.  A front with norm above 1 (past
    1e-12 of roundoff) is rejected; a unitary step and a projection cannot
    raise the norm, so every front this returns passes the check again.
    """
    front = np.asarray(front, dtype=complex)
    if front.shape != (3,):
        raise ValueError("front state needs exactly 3 amplitudes")
    if 1.0 - np.vdot(front, front).real < -1e-12:
        raise ValueError("front state norm exceeds 1")
    return np.asarray(comp) @ (u_step[:3, ::3] @ front)


def intrinsic_error_curve(
    n_steps: int,
    u_step: np.ndarray,
    comp: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Error 1 - |<psi_unif|psi_k>|^2 of the unnormalized front after each of
    k = 1..n_steps identical transfer steps.  Returns an (n_steps, 2) array
    of (k, error)."""
    psi0 = uniform_state() if initial is None else np.asarray(initial, dtype=complex)
    front = psi0
    out = np.empty((n_steps, 2))
    for k in range(1, n_steps + 1):
        front = step_transfer(front, u_step, comp)
        out[k - 1] = (k, 1.0 - abs(np.vdot(psi0, front)) ** 2)
    return out


def make_schedule(
    g_max: float, t_qst: float, t_ramp: float, eta: float, n_steps: int, dt: float = 0.001
) -> tuple[ChainSchedule, np.ndarray, np.ndarray]:
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


def evolve_chain_full(schedule: ChainSchedule, eta: float, dt: float = 0.001) -> np.ndarray:
    """Full 3^n-dim propagation of the schedule, compensation gates included,
    for the n = schedule.n_steps + 1 qutrits its steps pass the state along.

    Validation-only oracle; chain_hamiltonian caps it at 4 qutrits.  Pulses
    are evolved one segment at a time so each sees a single active coupling.
    A segment is the step pulse started later, and the Hamiltonian depends
    on time only through the pulse, so each is evolved in the step pulse's
    own window [0, T], as R^T P R on evolve_transfer's grid (up ramp R,
    plateau P exact at the constant amp_max, down ramp R^T): front and full
    chain share one discretization.  Every qutrit has the same eta, so the
    edge-k Hamiltonian is the edge-0 one with its qutrits relabelled; the
    edge-0 step is evolved once and relabelled by edge_permutation.
    """
    n = schedule.n_steps + 1
    diag = chain_hamiltonian(eta, [0.0] * (n - 1))
    comp = phase_gate(*schedule.compensation)
    pulse = schedule.step_pulse
    w = coupling_operator(0, n)
    g = lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS
    r = evolve_affine(diag, w, g, pulse.ramp_window, dt)
    g_plateau = pulse.amp_max * MHZ_TO_RAD_NS
    p = evolve_affine(diag, w, lambda ts: g_plateau, pulse.plateau_window, dt)
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
    front = psi0
    for _ in range(n - 1):
        front = step_transfer(front, u_step, comp)
    front_overlap = abs(np.vdot(psi0, front))

    u_full = evolve_chain_full(schedule, eta, dt=dt)
    init = np.zeros(3**n, dtype=complex)
    init[[k * 3 ** (n - 1) for k in range(3)]] = psi0
    ideal = np.zeros(3**n, dtype=complex)
    ideal[:3] = psi0
    full_overlap = abs(np.vdot(ideal, u_full @ init))
    return abs(front_overlap - full_overlap)
