"""Property tests of the factorized trapezoid propagator U = R^T P R that
evolve_transfer builds (up ramp R, exact plateau P, down ramp R^T), and of
the closed-form pair window it builds R from."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qutritchain.evolution import _n_steps, evolve, evolve_affine, unitarity_defect
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    number_op,
)
from qutritchain.pulse import TrapezoidPulse
from qutritchain.transfer import _pair_parts, _pair_window, evolve_transfer

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
        dense = evolve_affine(d, w, coupling(pulse), span, step).matrix
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
    assert np.abs(u.matrix - whole.matrix).max() < 1e-12


@PROPS
@given(eta=etas, g=amps, dt=dts, t_ramp=st.floats(0.01, 3.0), t_plateau=st.floats(0.0, 20.0))
def test_down_ramp_is_up_ramp_transposed(eta, g, dt, t_ramp, t_plateau):
    pulse = TrapezoidPulse(g, 2 * t_ramp + t_plateau, t_ramp)
    d, w = pair_parts(eta)
    up = evolve_affine(d, w, coupling(pulse), pulse.ramp_window, dt).matrix
    # the down ramp on R's grid of round(t_ramp / dt) steps
    down_span = (pulse.t_total - t_ramp, pulse.t_total)
    n_ramp = max(1, round(t_ramp / dt))
    down = evolve_affine(d, w, coupling(pulse), down_span, t_ramp / n_ramp).matrix
    assert np.abs(up.T - down).max() < 1e-12


@PROPS
@given(eta=etas, g=amps, dt=dts, t_ramp=st.floats(0.0, 3.0), t_plateau=st.floats(0.0, 20.0))
def test_unitary_and_excitation_conserving(eta, g, dt, t_ramp, t_plateau):
    u = evolve_transfer(TrapezoidPulse(g, 2 * t_ramp + t_plateau, t_ramp), eta, dt).matrix
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

    ref = evolve(h, (0.0, pulse.t_total), dt / 8).matrix
    u = evolve_transfer(pulse, eta, dt).matrix
    u_half = evolve_transfer(pulse, eta, dt / 2).matrix
    shift = np.abs(u - u_half).max()
    assert np.abs(u - ref).max() <= 2.0 * shift + ROUNDOFF
