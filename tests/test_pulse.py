import re

import numpy as np
import pytest

from _oracles import adaptive_simpson
from qutritchain.model import MHZ_TO_RAD_NS
from qutritchain.pulse import (
    ConstraintError,
    TrapezoidPulse,
    analytic_params,
    effective_area,
    g_eff,
    pulse_area,
    solve_constraint,
)

ANALYTIC_PULSE = TrapezoidPulse(37.5, 22.0, 2.0)

# frozen quadrature value for the analytic pulse at eta = 200 MHz; the
# trapezoid-equivalent estimate would be pi/2, the true ramps fall short
EFFECTIVE_AREA_ANALYTIC = 1.5231674201578986


def composite_simpson(f, a, b, n):
    # independent fixed-grid oracle; n even intervals
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def test_trapezoid_shape():
    p = ANALYTIC_PULSE
    assert p.value(0.0) == 0.0
    assert p.value(22.0) == 0.0
    assert p.value(1.0) == pytest.approx(18.75)
    assert p.value(11.0) == 37.5
    assert p.value(21.0) == pytest.approx(18.75)
    assert p.value(-0.5) == 0.0 and p.value(23.0) == 0.0
    ts = np.array([0.0, 1.0, 11.0, 21.0, 22.0])
    assert np.allclose(p.value(ts), [p.value(t) for t in ts])


def test_trapezoid_offset():
    # a pulse started at 100 ns is sampled at times shifted by its start
    p, start = TrapezoidPulse(10.0, 8.0, 2.0), 100.0
    assert p.value(100.0 - start) == 0.0
    assert p.value(104.0 - start) == 10.0
    assert p.value(99.0 - start) == 0.0
    assert p.value(107.0 - start) == 5.0
    assert p.value(108.0 - start) == 0.0 and p.value(109.0 - start) == 0.0


def test_trapezoid_validation():
    with pytest.raises(ValueError):
        TrapezoidPulse(-1.0, 10.0, 2.0)
    with pytest.raises(ValueError):
        TrapezoidPulse(1.0, 3.0, 2.0)


@pytest.mark.parametrize(
    "params",
    [(np.nan, 22.0, 2.0), (np.inf, 22.0, 2.0), (37.5, np.nan, 2.0), (37.5, np.inf, 2.0),
     (37.5, 22.0, np.nan), (37.5, np.inf, np.inf)],
)
def test_trapezoid_rejects_non_finite(params):
    with pytest.raises(ValueError, match="finite"):
        TrapezoidPulse(*params)


def test_pulse_area_table1():
    # 37.5 MHz over an effective 20 ns is exactly 3 pi / 2
    assert pulse_area(ANALYTIC_PULSE) == pytest.approx(1.5 * np.pi, abs=1e-14)


def test_pulse_area_edge_cases():
    assert pulse_area(TrapezoidPulse(0.0, 22.0, 2.0)) == 0.0
    rect = TrapezoidPulse(10.0, 5.0, 0.0)
    assert pulse_area(rect) == pytest.approx(10.0 * 5.0 * MHZ_TO_RAD_NS, abs=1e-15)


def test_pulse_area_linear_in_amplitude():
    base = pulse_area(TrapezoidPulse(1.0, 22.0, 2.0))
    for amp in (0.5, 2.0, 37.5, 55.0):
        assert pulse_area(TrapezoidPulse(amp, 22.0, 2.0)) == pytest.approx(amp * base)


def test_g_eff_values():
    assert g_eff(37.5, 200.0) == pytest.approx(12.5, abs=1e-12)  # 3-4-5 triangle
    assert g_eff(0.0, 200.0) == 0.0
    # weak coupling limit 2 g^2 / eta
    assert g_eff(5.0, 200.0) == pytest.approx(2 * 5.0**2 / 200.0, rel=0.01)


def test_g_eff_below_g():
    for g in np.linspace(0.01, 55.0, 40):
        assert 0.0 < g_eff(g, 200.0) < g


def test_effective_area_zero_pulse():
    assert effective_area(TrapezoidPulse(0.0, 22.0, 2.0), 200.0) == 0.0


def test_effective_area_plateau_closed_form():
    # rectangle: quadrature must agree with g_eff * duration to 1e-12
    rect = TrapezoidPulse(37.5, 20.0, 0.0)
    expected = g_eff(37.5, 200.0) * 20.0 * MHZ_TO_RAD_NS
    assert effective_area(rect, 200.0) == pytest.approx(expected, rel=1e-12)


def test_effective_area_analytic_pulse_against_oracle():
    area = effective_area(ANALYTIC_PULSE, 200.0)
    assert area == pytest.approx(EFFECTIVE_AREA_ANALYTIC, rel=1e-12)
    oracle = composite_simpson(
        lambda t: g_eff(ANALYTIC_PULSE.value(t), 200.0), 0.0, 22.0, 22_000
    ) * MHZ_TO_RAD_NS
    assert area == pytest.approx(oracle, rel=1e-9)
    # ramps add on top of the literal plateau contribution ...
    plateau_only = g_eff(37.5, 200.0) * 18.0 * MHZ_TO_RAD_NS
    assert area > plateau_only
    # ... but stay below the trapezoid-equivalent estimate pi/2
    assert area < np.pi / 2


@pytest.mark.parametrize("amp", [1e-6, 1e-4, 0.1, 1.0, 15.0, 37.5, 55.0])
def test_effective_area_closed_form_against_quadrature(amp):
    # fixed Simpson grid over the whole pulse (breakpoints on panel edges) of
    # the cancellation-free integrand g^2 / (q + sqrt(q^2 + g^2)); the series
    # branch of the ramp integral covers amp < 15 MHz at q = 50 MHz, and
    # 0.1 MHz used to hang the adaptive quadrature
    p, q = TrapezoidPulse(amp, 22.0, 2.0), 50.0

    def stable(t):
        g = p.value(t)
        return g * g / (q + np.hypot(q, g))

    oracle = composite_simpson(stable, 0.0, 22.0, 22_000) * MHZ_TO_RAD_NS
    assert abs(effective_area(p, 4.0 * q) - oracle) <= 1e-10 * oracle


def test_effective_area_increasing_in_amplitude():
    areas = [
        effective_area(TrapezoidPulse(amp, 22.0, 2.0), 200.0)
        for amp in (5.0, 15.0, 25.0, 37.5, 50.0)
    ]
    assert all(a < b for a, b in zip(areas, areas[1:]))


def test_analytic_params_exact():
    g, t = analytic_params(200.0, t_ramp=2.0)
    assert abs(g - 37.5) < 1e-12
    assert abs(t - 22.0) < 1e-12


def test_analytic_params_scaling():
    with pytest.warns(UserWarning, match="coupler"):
        g, t = analytic_params(400.0, t_ramp=2.0)
    assert g == pytest.approx(75.0, abs=1e-12)
    assert t == pytest.approx(12.0, abs=1e-12)


def test_analytic_params_coupler_warning():
    # 3 eta / 16 crosses 55 MHz at eta = 293.33 MHz
    with pytest.warns(UserWarning, match="coupler"):
        analytic_params(294.0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analytic_params(293.0)


def test_seed_pulse_area_is_exact():
    g, t = analytic_params(200.0)
    assert pulse_area(TrapezoidPulse(g, t, 2.0)) == pytest.approx(1.5 * np.pi, abs=1e-12)


def test_solve_constraint_converges():
    sol = solve_constraint(200.0, t_ramp=2.0)
    assert sol.residuals[0] < 1e-10 and sol.residuals[1] < 1e-10
    assert 37.0 < sol.g_max < 41.0
    assert 20.0 < sol.t_qst < 22.5
    p = TrapezoidPulse(sol.g_max, sol.t_qst, 2.0)
    assert pulse_area(p) == pytest.approx(1.5 * np.pi, abs=1e-10)
    assert effective_area(p, 200.0) == pytest.approx(0.5 * np.pi, abs=1e-10)


def test_solve_constraint_names_g_top_when_triangle_falls_short():
    # g_top = 3 pi / 2 / (20 ns * 2 pi 1e-3) = 37.5 MHz; even the triangle
    # at g_top leaves the effective area 0.48 rad short of pi/2
    with pytest.raises(ConstraintError, match="g_top = 37.50 MHz") as err:
        solve_constraint(200.0, t_ramp=20.0)
    p = TrapezoidPulse(37.5, 40.0, 20.0)
    assert err.value.residuals[1] == pytest.approx(np.pi / 2 - effective_area(p, 200.0), abs=1e-12)


def test_solve_constraint_grid():
    caps = 0
    for eta in np.linspace(150.0, 290.0, 8):
        for t_ramp in (0.0, 0.5, 1.0, 2.0, 3.0):
            try:
                sol = solve_constraint(eta, t_ramp=t_ramp)
            except ConstraintError as err:
                # the only admissible failure on this grid: a root above
                # the cap, named in the message, with its residuals
                g = float(re.search(r"needs g_max = ([0-9.]+) MHz", str(err)).group(1))
                assert g > 55.0 and "55.0 MHz coupler cap" in str(err)
                assert max(err.residuals) <= 1e-12
                caps += 1
                continue
            assert 0.0 < sol.g_max <= 55.0 and sol.t_qst >= 2.0 * t_ramp
            p = TrapezoidPulse(sol.g_max, sol.t_qst, t_ramp)
            assert abs(pulse_area(p) - 3 * np.pi / 2) <= 1e-12, (eta, t_ramp)
            assert abs(effective_area(p, eta) - np.pi / 2) <= 1e-12, (eta, t_ramp)
            assert max(sol.residuals) <= 1e-12
    assert 0 < caps < 40  # both outcomes occur on this grid


@pytest.mark.parametrize("eta", [150.0, 200.0, 250.0, 290.0])
def test_solve_constraint_without_ramps_is_analytic(eta):
    sol = solve_constraint(eta, t_ramp=0.0)
    g_a, t_a = analytic_params(eta, t_ramp=0.0)
    assert sol.g_max == pytest.approx(g_a, rel=1e-12)
    assert sol.t_qst == pytest.approx(t_a, rel=1e-12)


def test_solve_constraint_subnormal_ramp():
    for t_ramp in (5e-324, 1e-300):
        sol = solve_constraint(200.0, t_ramp=t_ramp)
        assert sol.g_max == pytest.approx(37.5, rel=1e-12)
        assert sol.t_qst == pytest.approx(20.0, rel=1e-12)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, 0.0, -200.0])
def test_solve_constraint_rejects_bad_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        solve_constraint(eta, t_ramp=2.0)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_analytic_params_and_g_eff_reject_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        analytic_params(eta)
    with pytest.raises(ValueError, match="eta"):
        g_eff(30.0, eta)


@pytest.mark.parametrize("t_ramp", [np.nan, np.inf, -1.0, -5e-324])
def test_solve_constraint_rejects_bad_t_ramp(t_ramp):
    with pytest.raises(ValueError, match="t_ramp"):
        solve_constraint(200.0, t_ramp=t_ramp)


def test_solve_constraint_names_coupler_cap():
    # at eta * t_ramp = 290 the solution needs g_max ~ 55.6 MHz although the
    # analytic seed 3 eta / 16 = 54 MHz is inside the 55 MHz coupler range
    with pytest.raises(ConstraintError, match="55.0 MHz coupler cap") as err:
        solve_constraint(288.0, t_ramp=290.0 / 288.0)
    assert "55.57 MHz" in str(err.value)
    sol = solve_constraint(285.0, t_ramp=290.0 / 285.0)
    assert sol.g_max == pytest.approx(54.9886258, abs=1e-6)
    assert max(sol.residuals) < 1e-10


def test_trapezoid_windows():
    p = TrapezoidPulse(30.0, 10.0, 2.0)
    assert p.ramp_window == (0.0, 2.0)
    assert p.plateau_window == (2.0, 8.0)
    assert TrapezoidPulse(30.0, 4.0, 2.0).plateau_window == (2.0, 2.0)


def test_adaptive_simpson():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3, rel=1e-13)
    assert adaptive_simpson(np.sin, 0.0, np.pi) == pytest.approx(2.0, rel=1e-12)
    assert adaptive_simpson(np.sin, 1.0, 1.0) == 0.0


def test_value_subnormal_ramp_does_not_overflow():
    p = TrapezoidPulse(30.0, 10.0, 5e-324)
    ts = np.linspace(0.0, 10.0, 101)
    with np.errstate(all="raise"):
        g = p.value(ts)
        assert p.value(5.0) == 30.0
    assert g[0] == 0.0 and g[-1] == 0.0
    assert np.all(g[1:-1] == 30.0)


def test_value_clipped_ramps_equal_divided_ramps():
    # clipping t to [0, t_ramp] before dividing cannot overflow, and on a
    # normal grid it gives bitwise the values of clip(t / t_ramp, 0, 1)
    p = TrapezoidPulse(37.5, 22.0, 2.0)
    t = np.linspace(0.0, 25.0, 25_001) - 1.5  # a pulse started at 1.5 ns
    up = np.clip(t / p.t_ramp, 0.0, 1.0)
    down = np.clip((p.t_total - t) / p.t_ramp, 0.0, 1.0)
    old = p.amp_max * (np.minimum(up, down) * ((t >= 0.0) & (t <= p.t_total)))
    assert np.array_equal(p.value(t), old)
