"""Concatenated transfer along a qutrit chain via exact front propagation.

Couplings are switched sequentially, so a qutrit that has handed its state
on never re-couples; projecting it onto |0> commutes with every later step.
The transferred state is therefore carried exactly by an unnormalized
3-amplitude front, with the norm deficit recording all leakage left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# evolve_affine is bound here for bench/tracing.py, which wraps chain.evolve_affine
from .evolution import _check_n_steps, _midpoints, evolve_affine  # noqa: F401
from .model import (
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    embed,
)
from .pulse import TrapezoidPulse
from .transfer import (_evolve_exchange_blocks, _trapezoid_propagator, evolve_transfer,
                       measure_compensation, phase_gate)

def uniform_state() -> np.ndarray:
    """(|0> + |1> + |2>) / sqrt(3)."""
    return np.ones(3, dtype=complex) / np.sqrt(3.0)


@dataclass(frozen=True)
class ChainSchedule:
    """One optimized step pulse repeated for every edge, abutting in time.
    An n_steps that is not a nonnegative integer is a ValueError."""

    step_pulse: TrapezoidPulse
    n_steps: int
    compensation: tuple[float, float]  # (theta, phi) applied after each step

    def __post_init__(self):
        _check_n_steps(self.n_steps)

    @property
    def total_duration(self) -> float:
        return self.n_steps * self.step_pulse.t_total

    def coupling_values(self, ts) -> np.ndarray:
        """g_k(t) array of shape (n_steps, len(ts)) for times ts in any order.

        Edge k (0-based) carries the step pulse started at k T, so row k is
        step_pulse.value(ts - k T): active during [k T, (k+1) T], 0 outside.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        g = np.empty((self.n_steps, len(ts)))
        for k in range(self.n_steps):
            g[k] = self.step_pulse.value(ts - k * self.step_pulse.t_total)
        return g


def _check_norms(fronts: np.ndarray) -> None:
    """Reject a front, or a (3, m) stack of fronts as columns, whose norm
    exceeds 1 by more than 1e-12 of roundoff or is NaN."""
    if not np.all(np.sum(np.abs(fronts) ** 2, axis=0) - 1.0 <= 1e-12):
        raise ValueError("front state norm exceeds 1 or is NaN")


def _checked_front(front) -> np.ndarray:
    front = np.asarray(front, dtype=complex)
    if front.shape != (3,):
        raise ValueError("front state needs exactly 3 amplitudes")
    _check_norms(front)
    return front


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
    front = _checked_front(front)
    return np.asarray(comp) @ (u_step[:3, ::3] @ front)


def intrinsic_error_curve(
    n_steps: int,
    u_step: np.ndarray,
    comp: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Error 1 - |<psi0|psi_k>|^2 of the unnormalized front after each of
    k = 1..n_steps identical transfer steps, psi0 = initial (the uniform
    state by default).  Returns an (n_steps, 2) array of (k, error).

    A step is linear in the front, so it is the 3x3 front map M whose
    columns are step_transfer of the three basis fronts, and psi_k =
    M^k psi0.  The fronts are built by doubling: with F the fronts for
    k = 1..m and P = M^m, [F, P F] holds those for k = 1..2m and P P is
    M^2m, so the curve takes ceil(log2 n_steps) doublings of small matmuls
    and three step_transfer calls, whatever n_steps is.  M is not assumed
    diagonal.  The products group the factors of M^k differently from
    stepping the front k times, so the error differs from the step loop's
    by roundoff only, within 16 k eps (at most 2 k eps measured, k <=
    2000).  The initial front is checked as step_transfer checks it, and
    every front's norm is checked at once per doubling, so a non-unitary
    step still raises ValueError.  So does a power of M with an entry
    above 1 in modulus (no power of a contraction has one) or a NaN, even
    where psi0's own fronts stay bounded: the next powers could overflow.
    A NaN in M itself is named so before its fronts are checked.  An
    n_steps that is not a nonnegative integer is a ValueError too.
    """
    _check_n_steps(n_steps)
    psi0 = _checked_front(uniform_state() if initial is None else initial)
    if n_steps == 0:
        return np.empty((0, 2))
    not_contraction = ValueError("front map is not a finite contraction: "
                                 "the step or the compensation is not unitary")
    m = np.stack([step_transfer(e, u_step, comp) for e in np.eye(3, dtype=complex)], axis=1)
    if not np.isfinite(m).all():
        raise not_contraction
    fronts, power = m @ psi0[:, None], m
    _check_norms(fronts)
    while fronts.shape[1] < n_steps:
        if not np.abs(power).max() <= 1.0 + 1e-12:
            raise not_contraction
        block = power @ fronts[:, : n_steps - fronts.shape[1]]
        _check_norms(block)
        fronts = np.concatenate([fronts, block], axis=1)
        power = power @ power
    ks = np.arange(1, n_steps + 1)
    return np.column_stack([ks, 1.0 - np.abs(psi0.conj() @ fronts) ** 2])


def make_schedule(
    g_max: float, t_qst: float, t_ramp: float, eta: float, n_steps: int, dt: float = 0.001
) -> tuple[ChainSchedule, np.ndarray, np.ndarray]:
    """Build the repeated-pulse schedule plus its step propagator and the
    per-step compensation gate measured from that propagator.  An n_steps
    that is not a nonnegative integer is a ValueError before any evolution."""
    _check_n_steps(n_steps)
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
    own window [0, T], as evolve_transfer's R^T P R
    (transfer._trapezoid_propagator) on the same grid.  The up ramp R is
    sampled once, on _midpoints(pulse.ramp_window, dt), and comes from the
    generic integrator (evolution._evolve_samples) instead of the pair's
    closed form: front and full chain share one discretization, the SU(2)
    element (evolution._su2_element) and the SU(2) product
    (evolution._su2_fold), but not one ramp code.  Independent checks of
    the shared code stay in the tests: the dense 9x9 ramp
    (tests/_oracles.dense_pair_ramp), the generic residual
    (tests/_oracles.rwa_residual_generic) and the closed-form-vs-LAPACK
    tests of test_evolution.  At edge 0 the coupling
    is W_pair x I and the diagonal is D_pair x I + I x D_idle, whose idle
    part commutes with both, so R = R_pair x exp(-i D_idle t_ramp) with
    R_pair evolved on the 9-dim pair (both factors sliced from the 3^n
    operators), in exchange blocks (transfer._evolve_exchange_blocks): the
    2x2 {11, s02} on _evolve_samples, an SU(2) fold of its runs with no
    decomposition, and phases for the states that W couples to no other
    (00, 22, a02, s01, a01, s12, a12).  The plateau P is one dense
    3^n-dim exponential.  Every qutrit has the same eta, so the edge-k
    Hamiltonian is the edge-0 one with its qutrits relabelled; the edge-0
    step is evolved once, checked to be unitary, and relabelled by
    edge_permutation.  A schedule of no steps is a ValueError.
    """
    n = schedule.n_steps + 1
    if n < 2:
        raise ValueError(f"the full chain needs at least 2 qutrits, got n = {n}")
    diag = chain_hamiltonian(eta, [0.0] * (n - 1))
    comp = phase_gate(*schedule.compensation)
    pulse = schedule.step_pulse
    w = coupling_operator(0, n)
    mids, dt_ramp = _midpoints(pulse.ramp_window, dt)
    g = pulse.value(mids) * MHZ_TO_RAD_NS
    # basis index = pair * m + idle; |00> of the pair and |0..0> of the idle
    # qutrits add 0 to the diagonal, so diag[::m, ::m] is D_pair and
    # diag.diagonal()[:m] is D_idle
    m = 3 ** (n - 2)
    r_pair = _evolve_exchange_blocks(diag[::m, ::m], w[::m, ::m], g, dt_ramp)
    r = np.kron(r_pair, np.diag(np.exp(-1j * pulse.t_ramp * diag.diagonal()[:m])))
    step0 = _trapezoid_propagator(diag, w, pulse, r, dt)
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
    point accumulation only.  n must be at least 2 (ValueError).
    """
    if n < 2:
        raise ValueError(f"front vs full needs at least 2 qutrits, got n = {n}")
    schedule, u_step, comp = make_schedule(g_max, t_qst, t_ramp, eta, n - 1, dt=dt)
    psi0 = uniform_state()
    # the front overlap |<psi0|psi_k>| of Fig. 4's error curve at k = n - 1
    front_overlap = np.sqrt(1.0 - intrinsic_error_curve(n - 1, u_step, comp)[-1, 1])

    # psi0 enters on the first qutrit (columns j 3^(n-1)) and is read out on
    # the last (rows 0..2), every other qutrit in |0>
    u_full = evolve_chain_full(schedule, eta, dt=dt)
    full_overlap = abs(np.vdot(psi0, u_full[:3, :: 3 ** (n - 1)] @ psi0))
    return abs(front_overlap - full_overlap)
