import numpy as np
import pytest

from qutritchain.analysis import PowerLawFit, crossover, fit_power, free_exponent_fit


def synthetic(prefactor, exponent, n=50):
    k = np.arange(1, n + 1, dtype=float)
    return np.column_stack([k, prefactor * k**exponent])


def test_fit_recovers_exact_quartic():
    fit = fit_power(synthetic(2.0, 4), 4)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-14)
    assert fit.rms_residual < 1e-9
    assert fit.exponent == 4


def test_fit_recovers_exact_linear():
    fit = fit_power(synthetic(3.6e-4, 1), 1)
    assert fit.prefactor == pytest.approx(3.6e-4, rel=1e-14)


def test_fit_requires_points():
    with pytest.raises(ValueError):
        fit_power([], 4)
    with pytest.raises(ValueError):
        fit_power([(1, 1.0), (2, 2.0)], 1)


def test_free_exponent_fit():
    exp, pre = free_exponent_fit(synthetic(5e-7, 3))
    assert exp == pytest.approx(3.0, abs=1e-12)
    assert pre == pytest.approx(5e-7, rel=1e-9)


def test_free_exponent_fit_drops_points_at_roundoff():
    k = np.arange(1.0, 51.0)
    eps = np.finfo(float).eps
    with pytest.raises(ValueError, match="not enough positive points"):
        free_exponent_fit(np.column_stack([k, 16 * k * eps * np.cos(k)]))
    # 16 k eps on the first 10 points and a negative error past it are
    # dropped; 17 k eps is kept
    err = np.where(k <= 10, 16 * k * eps, 5e-7 * k**3)
    err[10] = -1.0
    exp, pre = free_exponent_fit(np.column_stack([k, err]))
    assert exp == pytest.approx(3.0, abs=1e-12)
    assert pre == pytest.approx(5e-7, rel=1e-9)
    exp, _ = free_exponent_fit(np.column_stack([k[:3], 17 * k[:3] * eps]))
    assert exp == pytest.approx(1.0, abs=1e-9)


def test_crossover_reference_values():
    a = PowerLawFit(4, 2.1e-10, 0.0)
    b = PowerLawFit(1, 3.6e-4, 0.0)
    k_star = crossover(a, b)
    assert k_star == pytest.approx((3.6e-4 / 2.1e-10) ** (1 / 3), rel=1e-14)
    assert 119.0 < k_star < 120.5
    # A k*^4 = B k* by construction
    assert a.prefactor * k_star**4 == pytest.approx(b.prefactor * k_star, rel=1e-12)


def test_crossover_equal_prefactors():
    assert crossover(PowerLawFit(4, 1.0, 0.0), PowerLawFit(1, 1.0, 0.0)) == 1.0


def test_crossover_scaling_law():
    a = PowerLawFit(4, 2.0e-10, 0.0)
    k1 = crossover(a, PowerLawFit(1, 1e-4, 0.0))
    k2 = crossover(a, PowerLawFit(1, 2e-4, 0.0))
    assert k2 / k1 == pytest.approx(2 ** (1 / 3), rel=1e-12)


def test_crossover_validation():
    with pytest.raises(ValueError):
        crossover(PowerLawFit(4, 0.0, 0.0), PowerLawFit(1, 1.0, 0.0))
    with pytest.raises(ValueError):
        crossover(PowerLawFit(4, 1.0, 0.0), PowerLawFit(2, 1.0, 0.0))


def test_fit_accepts_argument_order():
    # crossover takes the two fits in either order
    a = PowerLawFit(4, 2.1e-10, 0.0)
    b = PowerLawFit(1, 3.6e-4, 0.0)
    assert crossover(a, b) == crossover(b, a)
