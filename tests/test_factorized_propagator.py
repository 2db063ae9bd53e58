"""Property tests of the factorized trapezoid propagator U = R^T P R that
evolve_transfer builds (up ramp R, exact plateau P, down ramp R^T), of
the pair's sector algebra (_Pair) it builds R from, of that algebra's
SU(2) fold, and of the excitation-sector fidelity optimize_pulse searches
with."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import expm_hermitian, number_op
from _reference import G_OPT, T_OPT
from qutritchain.evolution import (
    _fold,
    _midpoints,
    _su2_fold,
    evolve,
    evolve_affine,
    unitarity_defect,
)
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    basis_index,
    chain_hamiltonian,
    coupling_operator,
)
from qutritchain.pulse import TrapezoidPulse
from qutritchain.transfer import _Pair, evolve_transfer, qst_fidelity

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# roundoff of a product of ~10^3 to 10^4 unitary 9x9 steps in float64
ROUNDOFF = 1e-11

I01, I02, I10, I20 = (basis_index(s) for s in ("01", "02", "10", "20"))

etas = st.floats(150.0, 290.0)
amps = st.floats(0.0, 55.0)
dts = st.sampled_from([0.002, 0.004])


def pair_parts(eta):
    return chain_hamiltonian(eta, [0.0]), coupling_operator(0, 2)


def coupling(pulse):
    return lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS


def up_ramp(pulse, eta, dt):
    # the up ramp R as evolve_transfer builds it, on the midpoint grid of
    # round(t_ramp / dt) steps over pulse.ramp_window
    mids, dt_ramp = _midpoints(pulse.ramp_window, dt)
    return _Pair.ramp(pulse.value(mids), eta, dt_ramp)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1025])
def test_su2_fold_matches_matrix_fold(n):
    # random SU(2) steps [[a, b], [-conj(b), conj(a)]]: the pairwise product
    # of (a, b) equals the generic fold of the 2x2 matrices, whose result
    # keeps the same form
    x = np.random.default_rng(n).normal(size=(n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    a, b = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
    steps = np.stack([np.stack([a, b], -1), np.stack([-b.conj(), a.conj()], -1)], -2)
    p, q = _su2_fold(a, b)
    m = np.array([[p, q], [-np.conj(q), np.conj(p)]])
    assert np.abs(m - _fold(steps)).max() < 1e-14
    assert abs(abs(p) ** 2 + abs(q) ** 2 - 1.0) < 1e-14
    if n == 1:
        assert (p, q) == (a[0], b[0])


@PROPS
@given(
    eta=etas,
    g=st.floats(0.0, 55.0, exclude_min=True),
    dt=st.sampled_from([0.001, 0.002, 0.004, 0.01]),
    t_ramp=st.floats(0.0, 3.0),
)
@example(eta=200.0, g=37.5, dt=0.002, t_ramp=0.0)
@example(eta=200.0, g=37.5, dt=0.002, t_ramp=2.0)
def test_pair_window_matches_dense_evolve_affine(eta, g, dt, t_ramp):
    # the up ramp R, the pair window _Pair.ramp(...).matrix(e); t_ramp = 0
    # gives an empty ramp, the identity
    pulse = TrapezoidPulse(g, 2 * t_ramp + 1.0, t_ramp)
    d, w = pair_parts(eta)
    n_tot = np.diag(np.kron(number_op(), np.eye(3)) + np.kron(np.eye(3), number_op())).real
    off_sector = n_tot[:, None] != n_tot[None, :]
    r = up_ramp(pulse, eta, dt).matrix(eta * MHZ_TO_RAD_NS)
    dense = evolve_affine(d, w, coupling(pulse), pulse.ramp_window, dt)
    assert np.abs(r - dense).max() < 1e-12
    assert unitarity_defect(r) < ROUNDOFF
    assert not r[off_sector].any()
    if t_ramp == 0.0:
        assert np.array_equal(r, np.eye(9))


@PROPS
@given(eta=etas, g=amps, dt=dts, n_ramp=st.integers(1, 800), n_plateau=st.integers(0, 3000))
def test_on_grid_matches_whole_window(eta, g, dt, n_ramp, n_plateau):
    # breakpoints on the dt grid: one grid over the whole pulse is the same
    # midpoint product as the factorized one
    pulse = TrapezoidPulse(g, (2 * n_ramp + n_plateau) * dt, n_ramp * dt)
    d, w = pair_parts(eta)
    whole = evolve_affine(d, w, coupling(pulse), (0.0, pulse.t_total), dt)
    u = evolve_transfer(pulse, eta, dt)
    assert np.abs(u - whole).max() < 1e-12


@PROPS
@given(eta=etas, g=amps, dt=dts, t_ramp=st.floats(0.01, 3.0), t_plateau=st.floats(0.0, 20.0))
def test_down_ramp_is_up_ramp_transposed(eta, g, dt, t_ramp, t_plateau):
    pulse = TrapezoidPulse(g, 2 * t_ramp + t_plateau, t_ramp)
    d, w = pair_parts(eta)
    up = evolve_affine(d, w, coupling(pulse), pulse.ramp_window, dt)
    # the down ramp on R's grid of round(t_ramp / dt) steps
    down_span = (pulse.t_total - t_ramp, pulse.t_total)
    n_ramp = max(1, round(t_ramp / dt))
    down = evolve_affine(d, w, coupling(pulse), down_span, t_ramp / n_ramp)
    assert np.abs(up.T - down).max() < 1e-12


@PROPS
@given(eta=etas, g=amps, dt=dts, t_ramp=st.floats(0.0, 3.0), t_plateau=st.floats(0.0, 20.0))
def test_unitary_and_excitation_conserving(eta, g, dt, t_ramp, t_plateau):
    u = evolve_transfer(TrapezoidPulse(g, 2 * t_ramp + t_plateau, t_ramp), eta, dt)
    assert unitarity_defect(u) < ROUNDOFF
    n_tot = np.diag(np.kron(number_op(), np.eye(3)) + np.kron(np.eye(3), number_op())).real
    off_sector = n_tot[:, None] != n_tot[None, :]
    assert np.abs(u[off_sector]).max() < 1e-12


@settings(PROPS, max_examples=10)
@given(eta=etas, g=amps, t_ramp=st.floats(0.1, 3.0), t_plateau=st.floats(0.0, 4.0))
def test_off_grid_converges_to_fine_generic_evolution(eta, g, t_ramp, t_plateau):
    # breakpoints off the grid: the midpoint rule is second order, so the
    # error of U(dt) is ~4/3 of its dt-halving shift; the generic integrator
    # at dt/8 stands in for the exact propagator
    dt = 0.004
    pulse = TrapezoidPulse(g, 2 * t_ramp + t_plateau, t_ramp)
    d, w = pair_parts(eta)

    def h(ts):
        return d[None] + (pulse.value(ts) * MHZ_TO_RAD_NS)[:, None, None] * w[None]

    ref = evolve(h, (0.0, pulse.t_total), dt / 8)
    u = evolve_transfer(pulse, eta, dt)
    u_half = evolve_transfer(pulse, eta, dt / 2)
    shift = np.abs(u - u_half).max()
    assert np.abs(u - ref).max() <= 2.0 * shift + ROUNDOFF


@PROPS
@given(
    eta=st.floats(100.0, 300.0),
    t_ramp=st.floats(0.0, 3.0),
    g=st.floats(1.0, 60.0),
    t_plateau=st.floats(0.0, 45.0),
    dt=st.sampled_from([0.002, 0.004, 0.01]),
)
@example(eta=200.0, t_ramp=0.0, g=37.5, t_plateau=20.0, dt=0.002)
@example(eta=200.0, t_ramp=2.0, g=G_OPT, t_plateau=T_OPT - 4.0, dt=0.002)
def test_sector_fidelity_matches_projected_propagator(eta, t_ramp, g, t_plateau, dt):
    # optimize_pulse's search point R^T.after(P.after(R)).fidelity(e)
    # against qst_fidelity of R^T P R, with R's 9x9 matrix and a dense
    # plateau exponential P; t_ramp = 0 is an empty ramp
    pulse = TrapezoidPulse(g, 2 * t_ramp + t_plateau, t_ramp)
    tau = pulse.t_total - 2 * t_ramp
    e = eta * MHZ_TO_RAD_NS
    ramp = up_ramp(pulse, eta, dt)
    point = ramp.transpose().after(_Pair.plateau(eta, g, tau).after(ramp))
    r = ramp.matrix(e)
    d, w = pair_parts(eta)
    p = expm_hermitian(d + g * MHZ_TO_RAD_NS * w, tau)
    assert abs(point.fidelity(e) - qst_fidelity(r.T @ p @ r)) <= 1e-14


# the pair's sector algebra against its 9x9 matrices: a ramp of up to 40
# random coupling values and an exact plateau, composed both ways
ramp_values = st.lists(st.floats(0.0, 55.0), max_size=40)
durations = st.floats(0.0, 30.0)


@PROPS
@given(eta=etas, values=ramp_values, dt=dts, g=amps, s=durations)
@example(eta=200.0, values=[], dt=0.002, g=37.5, s=0.0)
def test_pair_algebra_matches_its_matrices(eta, values, dt, g, s):
    e = eta * MHZ_TO_RAD_NS
    ramp, plateau = _Pair.ramp(np.array(values), eta, dt), _Pair.plateau(eta, g, s)
    m_r, m_p = ramp.matrix(e), plateau.matrix(e)
    assert np.abs(plateau.after(ramp).matrix(e) - m_p @ m_r).max() < 1e-13
    assert np.abs(ramp.after(plateau).matrix(e) - m_r @ m_p).max() < 1e-13
    for x, m in ((ramp, m_r), (plateau, m_p)):
        assert np.abs(x.transpose().matrix(e) - m.T).max() < 1e-13
        assert np.abs(x.conj().matrix(e) - m.conj()).max() < 1e-13
    d, w = pair_parts(eta)
    assert np.abs(m_p - expm_hermitian(d + g * MHZ_TO_RAD_NS * w, s)).max() < 1e-12
    u = ramp.transpose().after(plateau.after(ramp))
    for x in (ramp, plateau, u, ramp.conj().after(u)):
        m = x.matrix(e)
        assert abs(x.fidelity(e) - qst_fidelity(m)) <= 1e-14
        assert abs(x.p01() - abs(m[I01, I10]) ** 2) < 1e-14
        assert abs(x.p02(e) - abs(m[I02, I20]) ** 2) < 1e-14


@PROPS
@given(eta=etas, values=ramp_values, dt=dts, g=amps, s=st.lists(durations, min_size=1, max_size=8))
def test_pair_array_fields_match_scalar_fields(eta, values, dt, g, s):
    # population_series's array-valued samples: a plateau at each offset
    # after the ramp, then conjugated and composed after U, sample by sample
    e = eta * MHZ_TO_RAD_NS
    ramp = _Pair.ramp(np.array(values), eta, dt)
    u = ramp.transpose().after(_Pair.plateau(eta, g, 3.0).after(ramp))

    def samples(offsets):
        x = _Pair.plateau(eta, g, offsets).after(ramp)
        return x, x.conj().after(u)

    many = samples(np.array(s))
    for k, s_k in enumerate(s):
        for x, one in zip(many, samples(s_k)):
            got = [f[k] for f in x] + [x.p01()[k], x.p02(e)[k]]
            want = [*one, one.p01(), one.p02(e)]
            assert np.abs(np.subtract(got, want)).max() < 1e-15
