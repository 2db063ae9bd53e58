import numpy as np
import pytest

from _oracles import choi
from _reference import T_OPT as T_QST
from qutritchain.analysis import fit_power
from qutritchain.noise import (
    QutritChannel,
    amplitude_damping,
    decohered_state,
    decoherence_error_curve,
    phase_damping,
)


def uniform_rho():
    u = np.ones(3, dtype=complex) / np.sqrt(3.0)
    return np.outer(u, u.conj())


def test_amplitude_damping_identity_at_t0():
    ch = amplitude_damping(0.0, 60.0)
    rho = uniform_rho()
    assert np.allclose(ch.apply(rho), rho, atol=1e-15)


def test_amplitude_damping_full_decay():
    ch = amplitude_damping(1e9, 60.0)  # t >> T1
    rho = ch.apply(uniform_rho())
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert abs(rho[1, 1]) < 1e-9 and abs(rho[2, 2]) < 1e-9


def test_amplitude_damping_completeness_identity():
    # level-2 column: (1-g)^2 + 2 g (1-g) + g^2 = 1 for any damping fraction
    for t in (0.0, 5.0, 100.0, 5000.0, 1e6):
        ch = amplitude_damping(t, 60.0)
        assert ch.completeness_defect() < 1e-12
        g = 1.0 - np.exp(-t * 1e-3 / 60.0)
        assert (1 - g) ** 2 + 2 * g * (1 - g) + g**2 == pytest.approx(1.0, abs=1e-15)


def test_amplitude_damping_validation():
    with pytest.raises(ValueError):
        amplitude_damping(-1.0, 60.0)
    with pytest.raises(ValueError):
        amplitude_damping(1.0, 0.0)


@pytest.mark.parametrize("t, t1", [(np.nan, 60.0), (np.inf, 60.0), (1.0, np.nan)])
def test_amplitude_damping_rejects_nan_and_infinite_duration(t, t1):
    with pytest.raises(ValueError, match="need finite t"):
        amplitude_damping(t, t1)


def test_phase_damping_identity_cases():
    rho = uniform_rho()
    assert np.allclose(phase_damping(0.0, 60.0, 60.0).apply(rho), rho, atol=1e-15)
    # T2 = 2 T1: all dephasing comes from T1, the pure-dephasing part is trivial
    assert np.allclose(phase_damping(1e5, 60.0, 120.0).apply(rho), rho, atol=1e-12)


def test_phase_damping_populations_unchanged():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    out = phase_damping(500.0, 60.0, 60.0).apply(rho)
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-14)


def test_phase_damping_rejects_t2_above_2t1():
    with pytest.raises(ValueError, match="invalid regime"):
        phase_damping(10.0, 60.0, 200.0)


def test_phase_damping_quadratic_level_distance():
    # coherence (0,2) decays 4x faster (in rate) than (0,1)
    t, t1, t2 = 3000.0, 60.0, 60.0
    ch = phase_damping(t, t1, t2)
    rho = np.full((3, 3), 1 / 3.0, dtype=complex)
    out = ch.apply(rho)
    rate_phi = 1.0 / t2 - 0.5 / t1
    f1 = np.exp(-rate_phi * t * 1e-3)
    assert out[0, 1] == pytest.approx(rho[0, 1] * f1, abs=1e-14)
    assert out[1, 2] == pytest.approx(rho[1, 2] * f1, abs=1e-14)
    assert out[0, 2] == pytest.approx(rho[0, 2] * f1**4, abs=1e-14)


def test_combined_channel_01_coherence_decays_with_t2():
    # for a 0-1 superposition the composed channel reproduces exp(-t/T2)
    t, t1, t2 = 7000.0, 60.0, 60.0
    psi = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    rho = decohered_state(np.outer(psi, psi.conj()), t, t1, t2)
    assert rho[0, 1] == pytest.approx(0.5 * np.exp(-t * 1e-3 / t2), abs=1e-12)


def test_choi_positive_semidefinite():
    for ch in (amplitude_damping(40.0, 60.0), phase_damping(40.0, 60.0, 60.0)):
        eigs = np.linalg.eigvalsh(choi(ch))
        assert eigs.min() > -1e-10


def test_completeness_guard():
    bad = (np.eye(3, dtype=complex) * 0.9,)
    with pytest.raises(ValueError, match="trace preserving"):
        QutritChannel(bad)


def test_completeness_guard_fails_a_nan_defect():
    with pytest.raises(ValueError, match="trace preserving"):
        QutritChannel((np.eye(3, dtype=complex) * np.nan,))


def test_semigroup_property():
    rho = uniform_rho()
    k = 12
    r1 = rho.copy()
    for _ in range(k):
        r1 = decohered_state(r1, T_QST, 60.0, 60.0)
    r2 = decohered_state(rho, k * T_QST, 60.0, 60.0)
    assert np.abs(r1 - r2).max() < 1e-12


def test_channel_order_commutes():
    rho = uniform_rho()
    t = 1000 * T_QST
    a = phase_damping(t, 60.0, 60.0).apply(amplitude_damping(t, 60.0).apply(rho))
    b = amplitude_damping(t, 60.0).apply(phase_damping(t, 60.0, 60.0).apply(rho))
    assert np.abs(a - b).max() < 1e-9


def test_state_stays_physical_along_curve():
    rho = uniform_rho()
    for k in (1, 50, 200):
        out = decohered_state(rho, k * T_QST, 60.0, 60.0)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_decoherence_curve_slope_matches_t_over_t1():
    curve = decoherence_error_curve(200, T_QST, 60.0, 60.0)
    assert curve.shape == (200, 2)
    assert curve[0, 1] > 0
    slope = fit_power(curve, 1).prefactor
    estimate = T_QST * 1e-3 / 60.0  # t_qst / T1 with both in us
    assert abs(slope - estimate) / estimate < 0.1


def test_decoherence_zero_duration_error_is_zero():
    rho = decohered_state(uniform_rho(), 0.0, 60.0, 60.0)
    u = np.ones(3) / np.sqrt(3.0)
    assert 1.0 - np.real(u @ rho @ u) == pytest.approx(0.0, abs=1e-15)


def _channel_loop_curve(n_steps, t_qst, t1, t2):
    """decoherence_error_curve as one Kraus-channel evolution per k."""
    u = np.ones(3, dtype=complex) / np.sqrt(3.0)
    out = np.empty((n_steps, 2))
    for k in range(1, n_steps + 1):
        rho = decohered_state(np.outer(u, u.conj()), k * t_qst, t1, t2)
        out[k - 1] = (k, 1.0 - float(np.real(np.conj(u) @ rho @ u)))
    return out


@pytest.mark.parametrize(
    "t1, t2",
    [
        (60.0, 60.0),  # T2 = T1
        (60.0, 120.0),  # T2 = 2 T1: no pure dephasing (T_phi infinite)
        (60.0, 25.0),  # T2 < T1
        (20.0, 30.0),  # short T1
    ],
)
def test_decoherence_curve_matches_channel_loop(t1, t2):
    curve = decoherence_error_curve(2000, T_QST, t1, t2)
    ref = _channel_loop_curve(2000, T_QST, t1, t2)
    assert np.array_equal(curve[:, 0], ref[:, 0])
    assert np.abs(curve[:, 1] - ref[:, 1]).max() <= 1e-14


def test_decoherence_curve_empty():
    assert decoherence_error_curve(0, T_QST).shape == (0, 2)


@pytest.mark.parametrize(
    "t_qst, t1, t2",
    [(T_QST, 60.0, 121.0), (T_QST, 0.0, 60.0), (T_QST, 60.0, 0.0), (T_QST, 60.0, -1.0),
     (-1.0, 60.0, 60.0), (np.nan, 60.0, 60.0), (np.inf, 60.0, 60.0), (T_QST, np.nan, 60.0),
     (T_QST, 60.0, np.nan)],
)
def test_decoherence_curve_rejects_what_the_channels_reject(t_qst, t1, t2):
    with pytest.raises(ValueError) as channel_error:
        decohered_state(uniform_rho(), t_qst, t1, t2)
    with pytest.raises(ValueError) as curve_error:
        decoherence_error_curve(5, t_qst, t1, t2)
    assert str(curve_error.value) == str(channel_error.value)
