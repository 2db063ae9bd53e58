import json

import numpy as np
import pytest

from qutritchain import transfer
from qutritchain.evolution import evolve, evolve_affine
from qutritchain.model import (
    DELTA_RANGE_MHZ,
    MHZ_TO_RAD_NS,
    basis_index,
    chain_hamiltonian,
    coupling_operator,
)
from _oracles import adaptive_simpson, count_transfer_peaks
from _reference import G_OPT, T_OPT
from qutritchain.pulse import TrapezoidPulse, analytic_params
from qutritchain.transfer import (
    COMP_INDICES,
    U_TARGET,
    CompensationError,
    compensation_params,
    evolve_transfer,
    measure_compensation,
    measure_report,
    optimize_pulse,
    phase_gate,
    population_series,
    qst_fidelity,
)

ETA = 200.0
ANALYTIC_PULSE = TrapezoidPulse(37.5, 22.0, 2.0)


@pytest.fixture(scope="module")
def u_analytic():
    return evolve_transfer(ANALYTIC_PULSE, ETA, dt=0.001)


@pytest.fixture(scope="module")
def u_opt():
    return evolve_transfer(TrapezoidPulse(G_OPT, T_OPT, 2.0), ETA, dt=0.001)


def test_zero_pulse_is_identity():
    u = evolve_transfer(TrapezoidPulse(0.0, 10.0, 2.0), ETA, dt=0.01)
    assert np.allclose(u, np.eye(9), atol=1e-12)


def test_analytic_pulse_transfer_populations(u_analytic, u_opt):
    # the analytic pulse swaps the single excitation exactly and the double
    # excitation to ~2.5e-4; only the optimized pulse clears 0.9999 on both
    p01, p02 = transfer_populations(u_analytic)
    assert p01 >= 0.9999 and p02 >= 0.999
    p01, p02 = transfer_populations(u_opt)
    assert p01 >= 0.9999 and p02 >= 0.9999


def test_matches_generic_evolution():
    pulse = TrapezoidPulse(37.5, 6.0, 2.0)
    d, w = chain_hamiltonian(ETA, [0.0]), coupling_operator(0, 2)

    def h(ts):
        return d[None] + (pulse.value(ts) * MHZ_TO_RAD_NS)[:, None, None] * w[None]

    u_pair = evolve_transfer(pulse, ETA, dt=0.01)
    u_ref = evolve(h, (0.0, 6.0), 0.01)
    assert np.allclose(u_pair, u_ref, atol=1e-12)


def test_excitation_sector_block_diagonal(u_analytic):
    n_tot = np.kron(np.diag([0.0, 1, 2]), np.eye(3)) + np.kron(np.eye(3), np.diag([0.0, 1, 2]))
    sectors = np.diag(n_tot).round().astype(int)
    off = u_analytic[sectors[:, None] != sectors[None, :]]
    assert np.abs(off).max() < 1e-10


def test_only_loss_channel_is_11_leakage(u_opt):
    m = u_opt
    i02, i11, i20 = basis_index("02"), basis_index("11"), basis_index("20")
    total = abs(m[i02, i20]) ** 2 + abs(m[i11, i20]) ** 2 + abs(m[i20, i20]) ** 2
    assert abs(1.0 - total) < 1e-10


def test_fidelity_of_exact_target():
    u = np.eye(9, dtype=complex)
    u[np.ix_(COMP_INDICES, COMP_INDICES)] = U_TARGET
    assert qst_fidelity(u) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_of_identity():
    # trace term 5, |Tr(target^dag I)| = 1 -> (5 + 1) / 30
    assert qst_fidelity(np.eye(9, dtype=complex)) == pytest.approx(0.2, abs=1e-14)


def test_fidelity_table1_analytic(u_analytic):
    assert qst_fidelity(u_analytic) == pytest.approx(0.99992, abs=2e-5)


def test_fidelity_invariant_under_diagonal_phases(u_analytic):
    rng = np.random.default_rng(11)
    f0 = qst_fidelity(u_analytic)
    for _ in range(5):
        dl = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=9)))
        dr = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=9)))
        assert qst_fidelity(dl @ u_analytic @ dr) == pytest.approx(f0, abs=1e-12)


def test_fidelity_rejects_wrong_shape():
    with pytest.raises(ValueError):
        qst_fidelity(np.eye(5, dtype=complex))


def test_optimizer_quick_run_never_below_seed(monkeypatch):
    monkeypatch.setattr(transfer, "MAX_SWEEPS", 1)
    seed = analytic_params(ETA)
    rep = optimize_pulse(ETA, 2.0, seed, dt=0.01)
    u_seed = evolve_transfer(TrapezoidPulse(*seed, 2.0), ETA, dt=0.01)
    assert rep.fidelity >= qst_fidelity(u_seed) - 1e-12
    assert rep.t_qst > 0 and rep.g_max > 0 and 0 <= rep.leakage_11 < 1e-3


@pytest.mark.parametrize("seed", [(37.5, 3.0), (-5.0, 22.0)])
def test_optimizer_refuses_a_seed_that_is_no_pulse_before_any_ramp(monkeypatch, seed):
    # a plateau of negative duration, a negative coupling: both used to run
    # the whole search and fail only in the final report's TrapezoidPulse
    folds = []
    monkeypatch.setattr(transfer._Pair, "ramp", lambda *args: folds.append(args))
    with pytest.raises(ValueError, match="^seed"):
        optimize_pulse(ETA, 2.0, seed)
    assert folds == []


@pytest.mark.parametrize("seed", [(0.0, 22.0), (37.5, 4.0)])
def test_optimizer_takes_a_seed_on_the_pulse_boundary(seed):
    # no coupling, or no plateau, is still a pulse
    rep = optimize_pulse(ETA, 2.0, seed, dt=0.01)
    assert rep.g_max >= 0 and rep.t_qst >= 4.0


def test_optimizer_builds_each_ramp_once(monkeypatch):
    # a search point is R^T.after(P.after(R)).fidelity(e), with its g_max's
    # up ramp R and R^T memoized together, and a ramp fold one _Pair.ramp
    # call: at the search step 2 dt directly, at dt for the 9x9 ramp of the
    # two evolve_transfer calls (the seed guard and the final report), whose
    # plateaus make the only eigendecompositions
    pair = transfer._Pair
    folds, plateaus, points, transposes, eighs = [], [], [], [], []
    real_ramp, real_plateau = pair.ramp, pair.plateau
    real_after, real_transpose = pair.after, pair.transpose
    real_eigh = np.linalg.eigh

    def ramp(values, eta, dt):
        folds.append((dt, real_ramp(values, eta, dt)))
        return folds[-1][1]

    def plateau(eta, g, s):
        plateaus.append((g, real_plateau(eta, g, s)))
        return plateaus[-1][1]

    def after(later, earlier):
        # P.after(R) of a point: the plateau just made, after the ramp
        if plateaus and later is plateaus[-1][1]:
            points.append((plateaus[-1][0], earlier))
        return real_after(later, earlier)

    def transpose(r):
        transposes.append(r)
        return real_transpose(r)

    def eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(pair, "ramp", staticmethod(ramp))
    monkeypatch.setattr(pair, "plateau", staticmethod(plateau))
    monkeypatch.setattr(pair, "after", after)
    monkeypatch.setattr(pair, "transpose", transpose)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    rep = optimize_pulse(ETA, 2.0, analytic_params(ETA), dt=0.001)

    search_ramps = [ramp for dt, ramp in folds if dt == 0.002]
    assert [dt for dt, _ in folds if dt != 0.002] == [0.001] * 2
    # one fold per distinct g_max, which every point at that g_max reuses
    ramp_of = {}
    for g, ramp in points:
        assert ramp_of.setdefault(g, ramp) is ramp
    assert len(search_ramps) == len(ramp_of) > 10
    assert set(map(id, search_ramps)) == set(map(id, ramp_of.values()))
    assert len(points) > len(search_ramps)  # t_qst searches reuse ramps
    # R^T once per fold, memoized with it
    assert list(map(id, transposes)) == list(map(id, search_ramps))
    # one single-run plateau per evolve_transfer; none in the search
    assert eighs == [(1, 9, 9)] * 2
    # reference optimum at dt = 1 ps, F as the unfactorized integrator gave it
    assert rep.g_max == pytest.approx(37.633, abs=5e-4)
    assert rep.t_qst == pytest.approx(21.952, abs=5e-4)
    assert rep.fidelity == pytest.approx(0.9999618550421556, abs=1e-9)


def _symmetry_breaking_pair(case):
    """A pair Hamiltonian that is not block diagonal in the exchange basis."""
    if case == "unequal etas":
        local = lambda eta: np.diag([0.0, 0.0, -eta * MHZ_TO_RAD_NS])
        return np.kron(local(200.0), np.eye(3)) + np.kron(np.eye(3), local(210.0))
    d = chain_hamiltonian(200.0, [0.0]).real
    d[basis_index("00"), basis_index("11")] = d[basis_index("11"), basis_index("00")] = 0.1
    return d


@pytest.mark.parametrize("case", ["unequal etas", "a |00>-|11> coupling"])
def test_exchange_blocks_reject_a_pair_that_is_not_block_diagonal(case):
    # unequal etas couple s02 to a02 and s12 to a12, and a |00>-|11> term
    # in d couples two states of the diagonal block; either would be
    # dropped by evolving the blocks apart
    with pytest.raises(ValueError, match="d is not diagonal in the exchange basis"):
        transfer._evolve_exchange_blocks(
            _symmetry_breaking_pair(case), coupling_operator(0, 2), lambda ts: 1.0, (0.0, 1.0), 0.1
        )


def test_report_json_keys(u_opt):
    rep = measure_report(u_opt, G_OPT, T_OPT)
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d  # table1.json writes it as is
    assert set(d) == {
        "g_max_mhz",
        "t_qst_ns",
        "fidelity",
        "leakage_11",
        "phase_1_rad",
        "phase_2_rad",
    }
    assert d["g_max_mhz"] == G_OPT
    assert 0.999 < d["fidelity"] <= 1.0


def test_phase_gate_basics():
    assert np.array_equal(phase_gate(0.0, 0.0), np.eye(3))
    g1 = phase_gate(0.3, 1.1)
    assert np.allclose(g1 @ g1, phase_gate(0.6, 2.2), atol=1e-15)


def test_compensation_makes_amplitudes_real_positive(u_opt):
    theta, phi = measure_compensation(u_opt)
    comp = np.kron(np.eye(3), phase_gate(theta, phi))
    m = comp @ u_opt
    a1 = m[basis_index("01"), basis_index("10")]
    a2 = m[basis_index("02"), basis_index("20")]
    assert abs(a1.imag) < 1e-12 and a1.real > 0
    assert abs(a2.imag) < 1e-12 and a2.real > 0


def test_compensation_params_trivial():
    c = compensation_params(0.0, 0.0, ETA)
    assert c.t_phase == 0.0 and c.delta_max == 0.0


def test_compensation_params_roundtrip_quadrature():
    rng = np.random.default_rng(42)
    eta_ang = ETA * MHZ_TO_RAD_NS
    for _ in range(20):
        theta, phi = rng.uniform(0.0, 2 * np.pi, size=2)
        c = compensation_params(theta, phi, ETA, t_ramp=2.0)
        assert c.t_phase >= 4.0
        assert abs(c.delta_max) <= 2500.0
        shape = TrapezoidPulse(1.0, c.t_phase, 2.0)
        theta_int = c.delta_max * MHZ_TO_RAD_NS * adaptive_simpson(
            shape.value, 0.0, c.t_phase
        )
        phi_int = 2.0 * theta_int - eta_ang * c.t_phase
        assert abs((theta_int - theta + np.pi) % (2 * np.pi) - np.pi) < 1e-10
        assert abs((phi_int - phi + np.pi) % (2 * np.pi) - np.pi) < 1e-10


def test_compensation_pulse_realizes_phase_gate():
    # simulate the detuning trapezoid on a single qutrit and compare with the
    # ideal gate diag(1, e^{-i theta}, e^{-i phi})
    theta, phi = 2.2, 0.9
    c = compensation_params(theta, phi, ETA, t_ramp=2.0)
    pulse = TrapezoidPulse(abs(c.delta_max), c.t_phase, 2.0)
    sign = 1.0 if c.delta_max >= 0 else -1.0

    def h(ts):
        d = sign * pulse.value(ts) * MHZ_TO_RAD_NS
        levels = np.stack([0.0 * d, d, 2 * d - ETA * MHZ_TO_RAD_NS], axis=1)
        return levels[:, :, None] * np.eye(3)

    u = evolve(h, (0.0, c.t_phase), 0.001)
    target = phase_gate(theta, phi)
    phase_diff = np.angle(np.diag(u) / np.diag(target))
    assert np.abs(phase_diff).max() < 1e-6


@pytest.mark.parametrize("eta", [ETA, 120.0])
def test_compensation_params_takes_the_first_feasible_branch(eta):
    # one idle 2 pi turn less of the |2> level shortens t_phase by 2 pi /
    # eta_angular, and that branch must not exist (k = 0) or be infeasible:
    # below 2 t_ramp, or with delta_max out of range; t_ramp also sits on a
    # branch boundary and far past 64 turns (~320 ns at 200 MHz)
    turn = 2.0 * np.pi / (eta * MHZ_TO_RAD_NS)
    rng = np.random.default_rng(3)
    cases = [(*rng.uniform(-10.0, 10.0, size=2), rng.uniform(0.0, 5.0)) for _ in range(200)]
    for theta, phi in [(1.0, 2.0), (0.3, 4.0), (2.0, 0.1)]:
        t_phase = compensation_params(theta, phi, eta, t_ramp=2.0).t_phase
        cases += [(theta, phi, t_phase / 2.0), (theta, phi, t_phase / 2.0 + 1e-9)]
    cases += [(1.0, 2.0, 0.0), (1.0, 2.0, 400.0)]
    for theta, phi, t_ramp in cases:
        c = compensation_params(theta, phi, eta, t_ramp=t_ramp)
        th, ph = theta % (2 * np.pi), phi % (2 * np.pi)
        # branch k has t_phase = (2 th - ph) / eta_angular + k turns, k >= 0
        k = round((c.t_phase - (2.0 * th - ph) / (eta * MHZ_TO_RAD_NS)) / turn)
        shorter = c.t_phase - turn
        feasible = k >= 1 and shorter >= 2.0 * t_ramp and shorter > t_ramp and (
            th / ((shorter - t_ramp) * MHZ_TO_RAD_NS) <= DELTA_RANGE_MHZ
        )
        assert c.t_phase >= 2.0 * t_ramp and not feasible, (theta, phi, t_ramp, c)


def test_count_transfer_peaks_synthetic():
    t = np.linspace(0.0, 1.0, 2001)
    two_peaks = np.sin(1.5 * np.pi * t) ** 2  # maxima at t = 1/3 and the end
    assert count_transfer_peaks(two_peaks) == 2
    one_peak = np.sin(0.5 * np.pi * t) ** 2
    assert count_transfer_peaks(one_peak) == 1
    rippled = np.sin(0.5 * np.pi * t) ** 2 * (1 - 0.3 * np.sin(40 * t) ** 2)
    assert count_transfer_peaks(rippled) == 1  # ripples stay below threshold


def test_population_series_shape_and_peaks():
    pulse = TrapezoidPulse(G_OPT, T_OPT, 2.0)
    ts, p01, p02 = population_series(pulse, ETA, dt=0.002, dt_out=0.05)
    assert p01[0] == 0.0 and p02[0] == 0.0
    assert p01[-1] >= 0.9999 and p02[-1] >= 0.9999
    assert count_transfer_peaks(p01) == 2
    assert count_transfer_peaks(p02) == 1
    # the doubly excited level imprints a visible interference ripple on p02
    d = np.diff(p02)
    assert np.sum((np.sign(d[:-1]) > 0) & (np.sign(d[1:]) < 0)) >= 2


def transfer_populations(u):
    """|<01|U|10>|^2 and |<02|U|20>|^2 of a 9x9 matrix."""
    i = basis_index
    return abs(u[i("01"), i("10")]) ** 2, abs(u[i("02"), i("20")]) ** 2


def test_population_series_ends_on_evolve_transfer():
    # t_ramp / dt is not an integer here; one whole-pulse grid missed the
    # Table 1 propagator by 3e-8 in p01
    pulse = TrapezoidPulse(50.0, 22.0, 1.1474801)
    _, p01, p02 = population_series(pulse, 252.7, dt=0.001)
    want = transfer_populations(evolve_transfer(pulse, 252.7, dt=0.001))
    assert abs(p01[-1] - want[0]) < 1e-12 and abs(p02[-1] - want[1]) < 1e-12


def test_population_series_samples_match_direct_integration():
    # every sample against the time-ordered product up to its time, window by
    # window on evolve_transfer's grid: the up ramp and the mirrored down ramp
    # on R's steps, the plateau in one exact step; checks the chained ramp
    # windows, the SU(2) plateau and the conj(Q_m) U shortcut for the down ramp
    for eta, pulse, dt in (
        (252.7, TrapezoidPulse(50.0, 6.0, 1.1474801), 0.002),
        (120.0, TrapezoidPulse(55.0, 7.0, 3.0), 0.004),
    ):
        d, w = chain_hamiltonian(eta, [0.0]), coupling_operator(0, 2)
        g = lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS
        dt_ramp = pulse.t_ramp / round(pulse.t_ramp / dt)
        t_down = pulse.t_total - pulse.t_ramp
        ts, p01, p02 = population_series(pulse, eta, dt=dt, dt_out=0.05)
        assert ts[0] == 0.0 and ts[-1] == pulse.t_total and np.all(np.diff(ts) > 0)
        assert np.any((ts > 0) & (ts < pulse.t_ramp)) and np.any(ts > t_down)
        for t, q01, q02 in zip(ts, p01, p02):
            u = np.eye(9, dtype=complex)
            for lo, hi, step in (
                (0.0, pulse.t_ramp, dt_ramp),
                (pulse.t_ramp, t_down, pulse.t_total),
                (t_down, pulse.t_total, dt_ramp),
            ):
                if min(t, hi) > lo:
                    u = evolve_affine(d, w, g, (lo, min(t, hi)), step) @ u
            want = transfer_populations(u)
            assert abs(q01 - want[0]) < 1e-12 and abs(q02 - want[1]) < 1e-12


# (22.0, 1e-16): a ramp below the float resolution of t_total puts the
# plateau's last sample at U's time, t_total
@pytest.mark.parametrize("t_total, t_ramp", [(10.0, 0.0), (4.0, 2.0), (0.0, 0.0), (22.0, 1e-16)])
def test_population_series_without_ramp_or_plateau(t_total, t_ramp):
    pulse = TrapezoidPulse(30.0, t_total, t_ramp)
    ts, p01, p02 = population_series(pulse, ETA, dt=0.002)
    assert ts[0] == 0.0 and ts[-1] == t_total and np.all(np.diff(ts) > 0)
    assert len(ts) == len(p01) == len(p02)
    want = transfer_populations(evolve_transfer(pulse, ETA, dt=0.002))
    assert abs(p01[-1] - want[0]) < 1e-12 and abs(p02[-1] - want[1]) < 1e-12


@pytest.mark.parametrize(
    "dt_out", [10**400, float("nan"), float("inf"), 0.0, -1.0],
    ids=["huge-int", "nan", "inf", "zero", "negative"],
)
def test_population_series_refuses_a_bad_dt_out(dt_out):
    # the CLI's --dt-out-ns rule: finite and positive
    with pytest.raises(ValueError, match="dt_out"):
        population_series(TrapezoidPulse(37.5, 22.0, 2.0), 200.0, dt=0.01, dt_out=dt_out)
