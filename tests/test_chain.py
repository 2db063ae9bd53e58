import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import dense_pair_ramp, runs_by_dimension
from _reference import G_OPT, T_OPT
from qutritchain import chain
from qutritchain.chain import (
    ChainSchedule,
    edge_permutation,
    evolve_chain_full,
    intrinsic_error_curve,
    make_schedule,
    step_transfer,
    uniform_state,
    validate_front_vs_full,
)
from qutritchain.evolution import _midpoints, evolve, evolve_affine
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    basis_index,
    chain_hamiltonian,
    coupling_operator,
    embed,
)
from qutritchain.pulse import TrapezoidPulse
from qutritchain.transfer import (
    _evolve_exchange_blocks,
    _Pair,
    evolve_transfer,
    measure_compensation,
    phase_gate,
)

ETA = 200.0
EPS = np.finfo(float).eps
PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def norm_deficit(front):
    """1 - |front|^2: the probability left behind so far."""
    return 1.0 - np.vdot(front, front).real


@pytest.fixture(scope="module")
def step():
    schedule, u_step, comp = make_schedule(G_OPT, T_OPT, 2.0, ETA, 10, dt=0.001)
    return schedule, u_step, comp


def test_vacuum_front_unchanged(step):
    _, u_step, comp = step
    out = step_transfer(np.array([1.0, 0.0, 0.0]), u_step, comp)
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(norm_deficit(out)) < 1e-12


def test_norm_never_increases(step):
    _, u_step, comp = step
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        a /= np.linalg.norm(a)
        front = a
        for _ in range(3):
            front = step_transfer(front, u_step, comp)
            assert norm_deficit(front) >= -1e-12


def _kron_step(front, u_step, comp):
    """step_transfer on the full 9-dim pair state: front x |0>, evolve,
    keep the sender-|0> amplitudes, compensate."""
    out = u_step @ np.kron(front, np.array([1.0, 0.0, 0.0], dtype=complex))
    return np.asarray(comp) @ out[:3]


def _random_fronts(seed, count):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_step_transfer_equals_kron_reference(step):
    _, u_step, comp = step
    for a in _random_fronts(11, 20):
        assert np.array_equal(step_transfer(a, u_step, comp), _kron_step(a, u_step, comp))


def _kron_curve(n_steps, u_step, comp, psi0):
    """intrinsic_error_curve as a loop of _kron_step, one step per k."""
    front = psi0
    ref = np.empty((n_steps, 2))
    for k in range(1, n_steps + 1):
        front = _kron_step(front, u_step, comp)
        ref[k - 1] = (k, 1.0 - abs(np.vdot(psi0, front)) ** 2)
    return ref


def _assert_within_roundoff(curve, ref):
    # the closed form groups the factors of M^k differently from the step
    # loop: the errors agree to 16 k eps, not bit for bit
    assert np.array_equal(curve[:, 0], ref[:, 0])
    assert np.all(np.abs(curve[:, 1] - ref[:, 1]) <= 16 * ref[:, 0] * np.finfo(float).eps)


def test_intrinsic_error_curve_equals_kron_loop(step):
    _, u_step, comp = step
    for psi0 in (uniform_state(), *_random_fronts(12, 2)):
        ref = _kron_curve(500, u_step, comp, psi0)
        _assert_within_roundoff(intrinsic_error_curve(500, u_step, comp, psi0), ref)


def test_intrinsic_error_curve_with_a_non_diagonal_map_equals_kron_loop(step):
    # a random unitary in place of the compensation gate mixes the front's
    # amplitudes, so the front map M is far from diagonal
    _, u_step, _ = step
    rng = np.random.default_rng(13)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    mix = q * (np.diag(r) / np.abs(np.diag(r)))
    m = mix @ u_step[:3, ::3]
    assert np.abs(m - np.diag(np.diag(m))).max() > 0.1
    for psi0 in (uniform_state(), *_random_fronts(14, 2)):
        ref = _kron_curve(2000, u_step, mix, psi0)
        _assert_within_roundoff(intrinsic_error_curve(2000, u_step, mix, psi0), ref)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 1023, 1024, 1025])
def test_intrinsic_error_curve_lengths_around_the_doublings(step, n_steps):
    _, u_step, comp = step
    curve = intrinsic_error_curve(n_steps, u_step, comp)
    assert curve.shape == (n_steps, 2)
    assert np.array_equal(curve[:, 0], np.arange(1, n_steps + 1))
    _assert_within_roundoff(curve, _kron_curve(n_steps, u_step, comp, uniform_state()))


@pytest.mark.parametrize("n_steps", [0, 5])
def test_intrinsic_error_curve_checks_the_initial_front(step, n_steps):
    _, u_step, comp = step
    with pytest.raises(ValueError, match="3 amplitudes"):
        intrinsic_error_curve(n_steps, u_step, comp, np.ones(4))
    with pytest.raises(ValueError, match="norm exceeds 1"):
        intrinsic_error_curve(n_steps, u_step, comp, np.array([2.0, 0.0, 0.0]))
    intrinsic_error_curve(n_steps, u_step, comp, np.array([1.0 + 4e-13, 0.0, 0.0]))


def test_intrinsic_error_curve_rejects_a_non_unitary_step(step):
    _, u_step, comp = step
    with pytest.raises(ValueError, match="norm exceeds 1"):
        intrinsic_error_curve(50, 1.01 * u_step, comp)
    # a gain the vacuum front never sees would overflow in M^1024
    with pytest.raises(ValueError, match="front map is not a finite contraction"):
        intrinsic_error_curve(2000, u_step, comp @ np.diag([1.0, 1e10, 1.0]), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="front map is not a finite contraction"):
        intrinsic_error_curve(5, np.full_like(u_step, np.nan), comp)


def test_intrinsic_error_curve_rejects_negative_n_steps(step):
    _, u_step, comp = step
    with pytest.raises(ValueError, match="nonnegative"):
        intrinsic_error_curve(-1, u_step, comp)


@pytest.mark.parametrize("n_steps", [-3, 2.5])
def test_make_schedule_refuses_bad_n_steps_before_any_evolution(monkeypatch, n_steps):
    # at -3 the schedule was built with total_duration = -66 ns, and at 2.5
    # only coupling_values failed, both after the step was evolved
    evolved = []
    monkeypatch.setattr(chain, "evolve_transfer", lambda *args, **kwargs: evolved.append(args))
    with pytest.raises(ValueError, match="^n_steps"):
        make_schedule(G_OPT, T_OPT, 2.0, ETA, n_steps)
    assert evolved == []


def test_intrinsic_error_curve_steps_three_basis_fronts(step, monkeypatch):
    # the work per curve does not grow with n_steps: one step_transfer call
    # per column of the front map
    _, u_step, comp = step
    calls = []

    def counting(front, u, c):
        calls.append(1)
        return step_transfer(front, u, c)

    monkeypatch.setattr(chain, "step_transfer", counting)
    for n_steps in (1, 2, 1024, 2000):
        calls.clear()
        intrinsic_error_curve(n_steps, u_step, comp)
        assert len(calls) == 3


def test_norm_deficit_equals_pair_leakage(step):
    _, u_step, comp = step
    psi0 = uniform_state()
    front = step_transfer(psi0, u_step, comp)
    # oracle: evolve the embedded pair state and measure what leaks out of
    # the (sender = |0>) subspace
    pair = np.kron(psi0, np.array([1.0, 0.0, 0.0], dtype=complex))
    out = u_step @ pair
    deficit = 1.0 - float(np.vdot(out[:3], out[:3]).real)
    assert norm_deficit(front) == pytest.approx(deficit, abs=1e-12)


def test_front_state_validation(step):
    _, u_step, comp = step
    with pytest.raises(ValueError, match="3 amplitudes"):
        step_transfer(np.ones(4), u_step, comp)
    with pytest.raises(ValueError, match="norm exceeds 1"):
        step_transfer(np.array([2.0, 0.0, 0.0]), u_step, comp)
    # the 1e-12 slack admits a front that roundoff put a hair above norm 1
    step_transfer(np.array([1.0 + 4e-13, 0.0, 0.0]), u_step, comp)


def test_intrinsic_error_zero_at_start():
    assert abs(np.vdot(uniform_state(), uniform_state())) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_intrinsic_error_curve_monotone(step):
    _, u_step, comp = step
    curve = intrinsic_error_curve(50, u_step, comp)
    assert curve.shape == (50, 2)
    assert np.array_equal(curve[:, 0], np.arange(1, 51))
    assert np.all(np.diff(curve[:, 1]) >= -1e-15)


def test_intrinsic_error_matches_closed_form(step):
    # the per-step front map is diagonal: amplitudes pick up the compensated
    # transfer factors, so the k-step error has a closed form
    _, u_step, comp = step
    c1 = comp[1, 1] * u_step[basis_index("01"), basis_index("10")]
    c2 = comp[2, 2] * u_step[basis_index("02"), basis_index("20")]
    ks = np.arange(1, 31)
    expected = 1.0 - np.abs((1.0 + c1**ks + c2**ks) / 3.0) ** 2
    curve = intrinsic_error_curve(30, u_step, comp)
    assert np.allclose(curve[:, 1], expected, atol=1e-12)


def test_compensation_on_beats_off(step):
    _, u_step, comp = step
    err_on = intrinsic_error_curve(5, u_step, comp)[-1, 1]
    err_off = intrinsic_error_curve(5, u_step, np.eye(3))[-1, 1]
    assert err_on < err_off


def test_curve_reuse_is_bitwise(step):
    _, u_step, comp = step
    a = intrinsic_error_curve(20, u_step, comp)
    b = intrinsic_error_curve(20, u_step, comp)
    assert np.array_equal(a, b)


def test_projector_on_passed_qutrit_commutes():
    # n = 3, segment 2 active: |0><0| on qutrit 1 commutes with the
    # propagator of the later step
    pulse = TrapezoidPulse(G_OPT, T_OPT, 2.0)
    diag = chain_hamiltonian(ETA, [0.0, 0.0])
    w = coupling_operator(1, 3)

    def h(ts):
        g = pulse.value(ts) * MHZ_TO_RAD_NS
        return diag[None] + g[:, None, None] * w[None]

    u = evolve(h, (0.0, T_OPT), 0.01)
    proj = embed(np.diag([1.0, 0.0, 0.0]).astype(complex), 0, 3)
    assert np.abs(proj @ u - u @ proj).max() < 1e-12


def test_schedule_pulses_abut():
    sched = ChainSchedule(TrapezoidPulse(G_OPT, T_OPT, 2.0), 3, (0.1, 0.2))
    assert sched.total_duration == pytest.approx(3 * T_OPT)
    ts = np.linspace(0.0, sched.total_duration, 400)
    g = sched.coupling_values(ts)
    assert np.all((g > 0).sum(axis=0) <= 1)
    for k in range(3):
        on = ts[g[k] > 0]
        assert k * T_OPT < on.min() and on.max() < (k + 1) * T_OPT


@pytest.mark.parametrize("n_qutrits", [2, 4, 40])
@pytest.mark.parametrize("dt_out", [T_OPT / 8, 0.37])  # 0.37 ns does not divide T
def test_coupling_values_match_full_grid(n_qutrits, dt_out):
    sched = ChainSchedule(TrapezoidPulse(G_OPT, T_OPT, 2.0), n_qutrits - 1, (0.0, 0.0))
    n_out = int(round(sched.total_duration / dt_out))
    ts = np.linspace(0.0, sched.total_duration, n_out + 1)
    ts = np.sort(np.concatenate([ts, np.arange(n_qutrits) * T_OPT]))  # samples at k T
    ref = np.stack([sched.step_pulse.value(ts - k * T_OPT) for k in range(sched.n_steps)])
    assert np.array_equal(sched.coupling_values(ts), ref)


def test_coupling_values_take_times_in_any_order():
    # unsorted times, repeats, the edges k T and times outside the schedule
    sched = ChainSchedule(TrapezoidPulse(G_OPT, T_OPT, 2.0), 3, (0.0, 0.0))
    ts = np.random.default_rng(0).uniform(-1.0, sched.total_duration + 1.0, 200)
    ts = np.concatenate([ts, ts[:20], np.arange(4)[::-1] * T_OPT, [1.0, 0.5, 1.0]])
    ref = np.stack([sched.step_pulse.value(ts - k * T_OPT) for k in range(sched.n_steps)])
    assert np.array_equal(sched.coupling_values(ts), ref)


def test_front_vs_full_small_chains():
    assert validate_front_vs_full(2, G_OPT, T_OPT, 2.0, ETA, dt=0.002) < 1e-12
    assert validate_front_vs_full(3, G_OPT, T_OPT, 2.0, ETA, dt=0.002) < 1e-10
    assert validate_front_vs_full(4, G_OPT, T_OPT, 2.0, ETA, dt=0.001) < 1e-10


@pytest.mark.parametrize("n", [1, 0])
def test_front_vs_full_needs_two_qutrits(n):
    with pytest.raises(ValueError, match="at least 2 qutrits"):
        validate_front_vs_full(n, G_OPT, T_OPT, 2.0, ETA, dt=0.01)


@pytest.mark.parametrize(
    "n_steps, message", [(0, "the full chain needs at least 2 qutrits"), (-1, "n_steps")],
    ids=["0", "-1"],
)
def test_full_chain_needs_a_step(n_steps, message):
    # a schedule of no steps reaches evolve_chain_full's own check; a
    # negative step count is refused when the schedule is built
    with pytest.raises(ValueError, match=message):
        sched = ChainSchedule(TrapezoidPulse(G_OPT, T_OPT, 2.0), n_steps, (0.0, 0.0))
        evolve_chain_full(sched, ETA)


def test_full_chain_capacity():
    sched = ChainSchedule(TrapezoidPulse(G_OPT, T_OPT, 2.0), 4, (0.0, 0.0))
    with pytest.raises(ValueError, match="capped"):
        evolve_chain_full(sched, ETA)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_edge_permutation_relabels_coupling_keeps_diagonal(n):
    diag = chain_hamiltonian(ETA, [0.0] * (n - 1))
    w0 = coupling_operator(0, n)
    for k in range(n - 1):
        p = edge_permutation(k, n)
        assert np.array_equal(np.sort(p), np.arange(3**n))
        assert np.array_equal(w0[np.ix_(p, p)], coupling_operator(k, n))
        assert np.array_equal(diag[np.ix_(p, p)], diag)


@pytest.mark.parametrize("n", [3, 4])
def test_full_chain_equals_per_edge_product(n):
    # oracle: each edge evolved with its own coupling operator, no relabelling
    dt = 0.004
    schedule, _, comp = make_schedule(G_OPT, T_OPT, 2.0, ETA, n - 1, dt=dt)
    pulse = schedule.step_pulse
    diag = chain_hamiltonian(ETA, [0.0] * (n - 1))
    g = lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS
    expected = np.eye(3**n, dtype=complex)
    for k in range(n - 1):
        w = coupling_operator(k, n)
        r = evolve_affine(diag, w, g, pulse.ramp_window, dt)
        p = evolve_affine(diag, w, g, pulse.plateau_window, dt)
        expected = embed(comp, k + 1, n) @ r.T @ p @ r @ expected
    assert np.abs(evolve_chain_full(schedule, ETA, dt=dt) - expected).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_full_chain_ramp_is_pair_sized(monkeypatch, n):
    # the ramp is evolved on the 9-dim pair in exchange blocks: the 2x2
    # {11, s02}, one SU(2) run per ramp step, and phases for the states W
    # couples to no other (00, 22, a02, s01, a01, s12 and a12); only the
    # plateau is 3^n-dim, one run and one LAPACK decomposition, and nothing
    # is 9x9
    schedule, _, _ = make_schedule(G_OPT, T_OPT, 2.0, ETA, n - 1, dt=0.001)
    runs, lapack = runs_by_dimension(monkeypatch)
    evolve_chain_full(schedule, ETA, dt=0.001)
    ramp_steps = len(_midpoints(schedule.step_pulse.ramp_window, 0.001)[0])
    assert runs == {3**n: 1, 2: ramp_steps}
    assert lapack == {3**n: 1}


@PROPS
@given(
    eta=st.floats(150.0, 290.0),
    dt=st.sampled_from([0.001, 0.002, 0.004]),
    t_ramp=st.floats(0.0, 3.0),
)
@example(eta=200.0, dt=0.001, t_ramp=0.0)
@example(eta=200.0, dt=0.004, t_ramp=0.0015)  # one step, shorter than dt
@example(eta=170.0, dt=0.001, t_ramp=0.0015)  # two steps
def test_blocked_pair_ramp_matches_the_dense_one(eta, dt, t_ramp):
    # the oracle's R_pair in exchange blocks against the dense 9x9 ramp on
    # the same grid, both on evolve_affine.  Against the pair's closed form
    # the dense ramp drifts by up to 1.3 eps per step and the blocked one by
    # 0.22 (ramps of 10 steps or more, 1500 random cases over eta 150-290
    # MHz and dt 1-4 ps); a one-step ramp differs by up to 5 eps (the dense
    # step's 9x9 eigh and the blocks' change of basis).  An empty ramp is
    # the identity on both, exactly.
    pulse = TrapezoidPulse(G_OPT, T_OPT, t_ramp)
    mids, dt_ramp = _midpoints(pulse.ramp_window, dt)
    blocked = _evolve_exchange_blocks(chain_hamiltonian(eta, [0.0]), coupling_operator(0, 2),
                                      pulse.value(mids) * MHZ_TO_RAD_NS, dt_ramp)
    n_steps = len(mids)
    closed = _Pair.ramp(pulse.value(mids), eta, dt_ramp).matrix(eta * MHZ_TO_RAD_NS)
    assert np.abs(blocked - closed).max() <= (n_steps + 2) * EPS * bool(n_steps)
    dense = dense_pair_ramp(eta, pulse, dt)
    assert np.abs(blocked - dense).max() <= (2 * n_steps + 8) * EPS * bool(n_steps)


@pytest.mark.parametrize("n, dt", [(3, 0.001), (4, 0.004)])
def test_dense_edge0_step_is_pair_step_times_idle_phases(n, dt):
    # the dense edge-0 step, whose ramp the oracle factors, against the
    # closed-form pair step: the n - 2 idle qutrits only turn |2> by
    # exp(i eta T) under diag(0, 0, -eta)
    pulse = TrapezoidPulse(G_OPT, T_OPT, 2.0)
    diag = chain_hamiltonian(ETA, [0.0] * (n - 1))
    w = coupling_operator(0, n)
    g = lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS
    r = evolve_affine(diag, w, g, pulse.ramp_window, dt)
    p = evolve_affine(diag, w, g, pulse.plateau_window, dt)
    idle = np.diag([1.0, 1.0, np.exp(1j * ETA * MHZ_TO_RAD_NS * pulse.t_total)])
    expected = evolve_transfer(pulse, ETA, dt)
    for _ in range(n - 2):
        expected = np.kron(expected, idle)
    assert np.abs(r.T @ p @ r - expected).max() < 1e-11
