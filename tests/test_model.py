import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy import kron

from _oracles import (
    chain_hamiltonian_product,
    coupling_operator_product,
    embed_product,
    number_op,
    runs_by_dimension,
    rwa_residual_generic,
    rwa_residual_rotating,
    rwa_side_by_frame_identity,
)
from qutritchain import evolution, transfer
from qutritchain.evolution import _midpoints, evolve, hermiticity_defect
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    basis_index,
    basis_labels,
    chain_hamiltonian,
    coupling_operator,
    embed,
    x_op,
    y_op,
)
from qutritchain.pulse import TrapezoidPulse, analytic_params
from qutritchain.transfer import _PAIR_W, _evolve_exchange_blocks, phase_gate, rwa_residual

EPS = np.finfo(float).eps
PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def pair(eta=200.0, g=37.5):
    return chain_hamiltonian(eta, [g])


def test_x_entries():
    x = x_op()
    assert x[1, 2] == np.sqrt(2.0)
    assert np.allclose(x, x.conj().T)
    assert np.allclose(
        x, [[0, 1, 0], [1, 0, np.sqrt(2)], [0, np.sqrt(2), 0]], atol=1e-15
    )


def test_y_is_i_lowering_minus_raising():
    lower = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(y_op(), 1j * (lower.T - lower), atol=1e-15)
    assert np.allclose(y_op(), y_op().conj().T)


def test_x2_plus_y2_diag():
    x, y = x_op(), y_op()
    assert np.allclose((x @ x + y @ y) / 2, np.diag([1.0, 3.0, 2.0]), atol=1e-14)


def test_rwa_counter_rotating_removed():
    h = pair()
    assert h[basis_index("00"), basis_index("11")] == 0.0
    assert hermiticity_defect(h) == 0.0


def test_rwa_single_excitation_block_is_g_sigma_x():
    h = pair()
    idx = [basis_index("01"), basis_index("10")]
    block = h[np.ix_(idx, idx)]
    g = 37.5 * MHZ_TO_RAD_NS
    assert np.allclose(block, g * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_rwa_double_excitation_block_after_rescaling():
    h = pair()
    idx = [basis_index("11"), basis_index("02"), basis_index("20")]
    block = h[np.ix_(idx, idx)]
    # subtract the -eta global shift of the sector
    shift = -200.0 * MHZ_TO_RAD_NS
    block = block - shift * np.eye(3)
    g = 37.5 * MHZ_TO_RAD_NS
    eta = 200.0 * MHZ_TO_RAD_NS
    expected = np.array(
        [
            [eta, np.sqrt(2) * g, np.sqrt(2) * g],
            [np.sqrt(2) * g, 0, 0],
            [np.sqrt(2) * g, 0, 0],
        ]
    )
    assert np.allclose(block, expected, atol=1e-13)


def test_chain_n2_equals_rwa():
    # the two-qutrit chain is the RWA pair D + g W that transfer evolves
    d, w = chain_hamiltonian(200.0, [0.0]), _PAIR_W
    assert np.array_equal(pair(), d + 37.5 * MHZ_TO_RAD_NS * w)
    assert np.array_equal(w, coupling_operator(0, 2))


def test_chain_n3_third_qutrit_decoupled_when_g2_zero():
    h3 = chain_hamiltonian(200.0, [37.5, 0.0])
    h2 = pair()
    dloc = np.diag([0.0, 0.0, -200.0 * MHZ_TO_RAD_NS]).astype(complex)
    expected = kron(h2, np.eye(3)) + embed(dloc, 2, 3)
    assert np.allclose(h3, expected, atol=1e-14)


def test_chain_all_zero_is_diagonal_minus_eta_per_double_excitation():
    h = chain_hamiltonian(200.0, [0.0, 0.0])
    assert np.allclose(h, np.diag(np.diag(h)), atol=1e-15)
    eta = 200.0 * MHZ_TO_RAD_NS
    for i, label in enumerate(basis_labels(3)):
        expected = -eta * sum(c == "2" for c in label)
        assert abs(h[i, i] - expected) < 1e-13


def test_chain_capacity_error():
    with pytest.raises(ValueError, match="capped"):
        chain_hamiltonian(200.0, [0.0] * 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_sized_operators_match_the_embedded_products(n):
    # embed, coupling_operator and chain_hamiltonian take the identities
    # before and after their qutrits whole; every entry equals the product
    # of n embedded factors.  coupling_operator and chain_hamiltonian are
    # equal to the bit; embed's zero entries may differ in the sign of
    # their imaginary part, which no sum or product of the package reads
    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for k in range(n):
        for op in (x_op(), y_op(), number_op(), phase_gate(0.3, -2.0)):
            assert np.array_equal(embed(op, k, n), embed_product(op, k, n))
    for k in range(n - 1):
        assert same_bits(coupling_operator(k, n), coupling_operator_product(k, n))
    for eta in (200.0, 150.3):
        for couplings in ([0.0] * (n - 1), [37.5] * (n - 1), [12.3, 0.0, 55.0][: n - 1]):
            assert same_bits(chain_hamiltonian(eta, couplings),
                             chain_hamiltonian_product(eta, couplings))


def test_excitation_number_conserved():
    h = pair()
    n_tot = kron(number_op(), np.eye(3)) + kron(np.eye(3), number_op())
    assert np.abs(h @ n_tot - n_tot @ h).max() < 1e-12


def test_vacuum_invariant_under_coupling():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    d, w = chain_hamiltonian(200.0, [0.0]), coupling_operator(0, 2)

    def h(ts):
        return d[None] + (pulse.value(ts) * MHZ_TO_RAD_NS)[:, None, None] * w[None]

    u = evolve(h, (0.0, 22.0), 0.01)
    col = u[:, basis_index("00")]
    assert abs(col[basis_index("00")] - 1.0) < 1e-12
    assert np.linalg.norm(np.delete(col, basis_index("00"))) < 1e-12


def test_basis_ordering_contract():
    labels = basis_labels(2)
    assert labels[:4] == ("00", "01", "02", "10")
    for i, lab in enumerate(labels):
        assert basis_index(lab) == i
    assert basis_index("201") == 2 * 9 + 0 * 3 + 1


def test_params_validation():
    with pytest.raises(ValueError, match="eta"):
        chain_hamiltonian(0.0, [0.0])
    with pytest.raises(ValueError, match="eta"):
        chain_hamiltonian(-200.0, [])
    with pytest.raises(ValueError, match="eta"):
        chain_hamiltonian(float("nan"), [0.0])
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        chain_hamiltonian(float("inf"), [0.0])
    assert chain_hamiltonian(200.0, []).shape == (3, 3)  # one qutrit, no edge


def test_coupling_cap_enforced():
    with pytest.raises(ValueError, match="outside"):
        pair(g=60.0)
    with pytest.raises(ValueError, match="outside"):
        chain_hamiltonian(200.0, [37.5, -1.0])
    with pytest.raises(ValueError, match="outside"):
        pair(g=float("nan"))
    pair(g=55.0 + 1e-10)  # the cap itself, within roundoff, is allowed


def test_rwa_residual_zero_coupling():
    # at zero coupling both sides are the phases exp(-i (D - omega N) T),
    # from different exchange blocks (XX's 4x4 {00, 11, 22, s02}, whose
    # uncoupled runs go to LAPACK, against W's SU(2) {11, s02} and the
    # one-state phases of 00 and 22), so they agree to the roundoff of the
    # largest phase, theta = max|diag(D - omega N)| T: eps * theta =
    # 3.4e-13 here, and the residual is 1.1e-13
    eta, omega, t = 200.0, 6000.0, 10.0
    n_total = np.add.outer(np.arange(3), np.arange(3)).ravel()
    diag = np.diag(chain_hamiltonian(eta, [0.0])).real - omega * MHZ_TO_RAD_NS * n_total
    theta = np.abs(diag).max() * t
    assert rwa_residual(eta, lambda t: 0.0, (0.0, t), omega, dt=0.01) <= 4 * EPS * theta


def test_rwa_residual_rejects_coupling_of_wrong_shape():
    with pytest.raises(ValueError, match="g_of_t must return one value per time"):
        rwa_residual(200.0, lambda ts: np.zeros(1), (0.0, 10.0), 6000.0, dt=0.01)


def test_rwa_residual_small_and_monotone():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    res = [
        rwa_residual(200.0, pulse.value, (0.0, 22.0), omega, dt=0.002)
        for omega in (2000.0, 4000.0, 8000.0)
    ]
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.06  # order g/omega, far below unity


def test_rwa_residual_samples_coupling_per_array(monkeypatch):
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    calls, grids = [], []
    midpoints = evolution._midpoints

    def counted(ts):
        calls.append(np.shape(ts))
        return pulse.value(ts)

    def counted_grid(*args):
        grids.append(args)
        return midpoints(*args)

    for module in (evolution, transfer):
        monkeypatch.setattr(module, "_midpoints", counted_grid)
    rwa_residual(200.0, counted, (0.0, 22.0), 4000.0, dt=0.002)  # 11000 midpoints
    # one grid per call, built once and shared by both sides, no probe
    assert calls == [(11000,)]
    assert grids == [((0.0, 22.0), 0.002)]


@pytest.mark.parametrize("t_span", [(0.0, 0.0), (3.0, 3.0)])
def test_rwa_residual_of_an_empty_window_is_zero(t_span):
    # no samples: both sides are the identity, exactly, and so is their gap
    assert rwa_residual(200.0, lambda ts: 30.0, t_span, 4000.0) == 0.0


@pytest.mark.parametrize("dt", [0.001, 0.002])
@pytest.mark.parametrize("omega", [2000.0, 4000.0, 8000.0])
@pytest.mark.parametrize("eta", [150.0, 200.0, 290.0])
def test_rwa_side_matches_its_frame_identity(eta, omega, dt):
    # the RWA side on the exchange blocks (one SU(2) fold of {11, s02} and
    # phases) against exp(i omega N T) times the pair's closed form over
    # the runs, for validate's pulse over its whole window; measured at
    # most 0.23 n_steps eps (8 GHz, 2 ps)
    t_ramp = 400.0 / eta
    pulse = TrapezoidPulse(*analytic_params(eta, t_ramp), t_ramp)
    mids, dt_eff = _midpoints((0.0, pulse.t_total), dt)
    g = pulse.value(mids)
    n_total = np.add.outer(np.arange(3), np.arange(3)).ravel()
    d_lab = chain_hamiltonian(eta, [0.0]).real - np.diag(omega * MHZ_TO_RAD_NS * n_total)
    blocks = _evolve_exchange_blocks(d_lab, _PAIR_W, g * MHZ_TO_RAD_NS, dt_eff)
    ref = rwa_side_by_frame_identity(eta, g, omega, dt_eff)
    assert np.abs(blocks - ref).max() <= len(mids) * EPS


@pytest.mark.parametrize("omega", [2000.0, 8000.0])
def test_rwa_residual_matches_fine_rotating_frame(omega):
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    ref = rwa_residual_rotating(200.0, pulse.value, (0.0, 3.0), omega, dt=0.0001)
    res = rwa_residual(200.0, pulse.value, (0.0, 3.0), omega, dt=0.002)
    assert res == pytest.approx(ref, rel=1e-5)


def test_rwa_residual_dt_halving():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    coarse, fine = (
        rwa_residual(200.0, pulse.value, (0.0, 22.0), 8000.0, dt=dt) for dt in (0.002, 0.001)
    )
    assert coarse == pytest.approx(fine, rel=1e-6)


def test_rwa_residual_plateau_is_one_eigendecomposition(monkeypatch):
    runs, lapack = runs_by_dimension(monkeypatch)
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    rwa_residual(200.0, pulse.value, (0.0, 22.0), 4000.0, dt=0.002)
    # no 9x9 matrix; each coupled exchange block, the exact side's 4x4
    # arrowhead and two 2x2 and the RWA side's 2x2 {11, s02}, multiplies
    # out the 1000 up-ramp steps, whose mirror image is the down ramp, and
    # one run for the plateau; every other state is a phase.  The
    # arrowhead's secular solver converges on every run and the 2x2 blocks
    # are SU(2) folds, so nothing goes to LAPACK
    assert runs == {4: 1000 + 1, 2: 3 * (1000 + 1)}
    assert lapack == {}


def assert_matches_generic(eta, g_of_t, t_span, omega, dt):
    # the oracle's exact side takes every 9x9 step on the generic evolve,
    # and its RWA side is the 9x9 evolve_affine; both sides of rwa_residual
    # take other routes, so the two agree to the roundoff of a product of
    # n_steps unitary steps, bounded by n_steps * eps
    ref = rwa_residual_generic(eta, g_of_t, t_span, omega, dt=dt)
    res = rwa_residual(eta, g_of_t, t_span, omega, dt=dt)
    n_steps = len(_midpoints(t_span, dt)[0])
    assert abs(res - ref) <= n_steps * EPS


@pytest.mark.parametrize("omega", [2000.0, 8000.0])
def test_rwa_residual_matches_exact_side_on_evolve(omega):
    # a window that ends inside the pulse does not mirror: 1500 steps, a
    # bound of 3.3e-13; measured 2.9e-15 (2 GHz) and 2.5e-14 (8 GHz)
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    assert_matches_generic(200.0, pulse.value, (0.0, 3.0), omega, 0.002)


@pytest.mark.parametrize("omega", [2000.0, 8000.0])
def test_rwa_residual_matches_exact_side_on_evolve_over_the_whole_pulse(omega):
    # over (0, t_total) each exact-side block folds over its up ramp
    # (R^T M R): 11000 steps, a bound of 2.4e-12; measured 1.3e-13 (2 GHz)
    # and 7.4e-13 (8 GHz)
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    assert_matches_generic(200.0, pulse.value, (0.0, 22.0), omega, 0.002)


@PROPS
@given(
    eta=st.floats(150.0, 290.0),
    omega=st.floats(2000.0, 8000.0),
    dt=st.sampled_from([0.001, 0.002]),
    levels=st.lists(st.floats(0.0, 55.0), min_size=1, max_size=3),
    runs=st.lists(st.tuples(st.integers(0, 2), st.integers(10, 200)), min_size=1, max_size=8),
    mirror=st.booleans(),
    t0=st.floats(0.0, 5.0),
)
def test_rwa_residual_matches_exact_side_on_piecewise_constant_coupling(
    eta, omega, dt, levels, runs, mirror, t0
):
    # a coupling that is constant on runs of steps, with levels that repeat
    # across runs; a mirrored schedule (the runs, then the same in reverse)
    # takes evolve_affine's fold in every exact-side block.  dt stays at the
    # package's 1-2 ps grids: the phase per step, max|diag(D - omega N)| dt,
    # is then <= 0.41 rad, while at 4 ps and 8 GHz it is ~0.8 rad and the
    # phase roundoff alone can pass n_steps * eps.  Runs of >= 10 steps keep
    # the fixed roundoff of the 9x9 products (a few eps) below the bound.
    runs = runs + runs[::-1] if mirror else runs
    values = np.repeat([levels[k % len(levels)] for k, _ in runs], [n for _, n in runs])
    t_span = (t0, t0 + len(values) * dt)
    mids, dt_eff = _midpoints(t_span, dt)
    assert len(mids) == len(values)

    def g_of_t(ts):
        return values[np.clip(((ts - t0) / dt_eff).astype(int), 0, len(values) - 1)]

    assert_matches_generic(eta, g_of_t, t_span, omega, dt)


@pytest.mark.parametrize("dt", [0.001, 0.002])
@pytest.mark.parametrize("eta", [195.0, 200.0, 205.0])
def test_rwa_residual_folds_the_pulse_over_its_up_ramp(monkeypatch, eta, dt):
    # validate's pulse at the benchmark's etas: its rounded down-ramp
    # samples must stay mirror images of the up ramp's, or each exact-side
    # block multiplies out both ramps and validate takes longer
    t_ramp = 400.0 / eta
    pulse = TrapezoidPulse(*analytic_params(eta, t_ramp), t_ramp)
    runs, lapack = runs_by_dimension(monkeypatch)
    rwa_residual(eta, pulse.value, (0.0, pulse.t_total), 4000.0, dt=dt)
    mids, _ = _midpoints((0.0, pulse.t_total), dt)
    up_ramp_runs = np.count_nonzero(mids < t_ramp)  # one run per ramp step
    # each coupled exchange block (the exact side's 4x4 and two 2x2, the
    # RWA side's 2x2) multiplies out its up ramp and the plateau; no 9x9
    # takes a run, and no matrix goes to LAPACK
    assert runs == {4: up_ramp_runs + 1, 2: 3 * (up_ramp_runs + 1)}
    assert lapack == {}


@pytest.mark.parametrize("dt", [0.001, 0.002])
def test_rwa_residual_with_equal_leaves_matches_exact_side_on_evolve(monkeypatch, dt):
    # at omega = -eta / 2 the 4x4 block's leaves 00, 22 and s02 share one
    # diagonal, 0, so the secular solver does not apply and every run of
    # the block goes to LAPACK; the residual still agrees with the generic
    # reference to n_steps eps
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    runs, lapack = runs_by_dimension(monkeypatch)
    rwa_residual(200.0, pulse.value, (0.0, 3.0), -100.0, dt=dt)
    assert lapack[4] == runs[4] > 0
    monkeypatch.undo()
    assert_matches_generic(200.0, pulse.value, (0.0, 3.0), -100.0, dt)


def test_rwa_residual_matches_per_sample_reference():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)

    def per_sample(ts):
        return np.array([pulse.value(t) for t in np.atleast_1d(ts)])

    for omega in (2000.0, 8000.0):
        fast = rwa_residual(200.0, pulse.value, (0.0, 3.0), omega, dt=0.002)
        assert fast == rwa_residual(200.0, per_sample, (0.0, 3.0), omega, dt=0.002)
