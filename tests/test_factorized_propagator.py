"""Property tests of the factorized trapezoid propagator U = R^T P R that
evolve_transfer builds (up ramp R, exact plateau P, down ramp R^T), of
the closed-form pair window it builds R from, of that window's SU(2)
fold, and of the excitation-sector fidelity optimize_pulse searches with."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import expm_hermitian
from qutritchain.evolution import (
    _fold,
    _midpoints,
    _n_steps,
    evolve,
    evolve_affine,
    unitarity_defect,
)
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    number_op,
)
from qutritchain.pulse import TrapezoidPulse
from qutritchain.transfer import (
    _pair_parts,
    _pair_window,
    _ramp_sectors,
    _sector_fidelity,
    _su2_fold,
    evolve_transfer,
    qst_fidelity,
)

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# roundoff of a product of ~10^3 to 10^4 unitary 9x9 steps in float64
ROUNDOFF = 1e-11

etas = st.floats(150.0, 290.0)
amps = st.floats(0.0, 55.0)
dts = st.sampled_from([0.002, 0.004])


def pair_parts(eta):
    return chain_hamiltonian(eta, [0.0]), coupling_operator(0, 2)


def coupling(pulse):
    return lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS


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
    cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@example(eta=200.0, g=37.5, dt=0.002, t_ramp=0.0, cuts=(0.0, 1.0))
@example(eta=200.0, g=37.5, dt=0.002, t_ramp=2.0, cuts=(0.5, 0.5))
def test_pair_window_matches_dense_evolve_affine(eta, g, dt, t_ramp, cuts):
    # the whole up ramp, and the prefix window (m0, m1) of its steps that
    # population_series builds; t_ramp = 0 or m0 = m1 gives an empty window
    pulse = TrapezoidPulse(g, 2 * t_ramp + 1.0, t_ramp)
    n_ramp = _n_steps(t_ramp, dt)
    dt_ramp = t_ramp / n_ramp if n_ramp else dt
    m0, m1 = sorted(round(c * n_ramp) for c in cuts)
    d, w = _pair_parts(eta)
    n_tot = np.diag(np.kron(number_op(), np.eye(3)) + np.kron(np.eye(3), number_op())).real
    off_sector = n_tot[:, None] != n_tot[None, :]
    for span, step in ((pulse.ramp_window, dt), ((m0 * dt_ramp, m1 * dt_ramp), dt_ramp)):
        r = _pair_window(pulse, eta, span, step)
        dense = evolve_affine(d, w, coupling(pulse), span, step)
        assert np.abs(r - dense).max() < 1e-12
        assert unitarity_defect(r) < ROUNDOFF
        assert not r[off_sector].any()
        if span[1] == span[0]:
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
@example(eta=200.0, t_ramp=2.0, g=37.6331, t_plateau=17.9521, dt=0.002)
def test_sector_fidelity_matches_projected_propagator(eta, t_ramp, g, t_plateau, dt):
    # optimize_pulse's search F from the ramp's sector data against
    # qst_fidelity of R^T P R, with the 9x9 closed-form ramp R and a dense
    # plateau exponential P; t_ramp = 0 is an empty ramp
    pulse = TrapezoidPulse(g, 2 * t_ramp + t_plateau, t_ramp)
    tau = pulse.t_total - 2 * t_ramp
    mids, dt_ramp = _midpoints(pulse.ramp_window, dt)
    ramp = _ramp_sectors(pulse.value(mids), eta, dt_ramp)
    r = _pair_window(pulse, eta, pulse.ramp_window, dt)
    d, w = pair_parts(eta)
    p = expm_hermitian(d + g * MHZ_TO_RAD_NS * w, tau)
    assert abs(_sector_fidelity(ramp, eta, g, tau) - qst_fidelity(r.T @ p @ r)) <= 1e-14
