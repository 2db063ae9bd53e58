import numpy as np
import pytest
from numpy import kron

from qutritchain.evolution import evolve, hermiticity_defect
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    QutritParams,
    QutritSystem,
    basis_index,
    basis_labels,
    chain_hamiltonian,
    chain_hamiltonian as rwa_hamiltonian,
    embed,
    lab_hamiltonian,
    number_op,
    resonant_pair,
    rwa_residual,
    x_op,
    y_op,
)
from qutritchain.pulse import TrapezoidPulse


def pair(eta=200.0, g=37.5, delta=0.0, omega=0.0):
    p = QutritParams(eta, delta=delta, omega=omega)
    return QutritSystem([p, p], couplings=[g])


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


def test_lab_zero_coupling_zero_eps_diagonal():
    h = lab_hamiltonian(pair(g=0.0), 0.0)
    eta = 200.0 * MHZ_TO_RAD_NS
    per_qutrit = np.array([0.0, 0.0, -eta])
    expected = (per_qutrit[:, None] + per_qutrit[None, :]).ravel()
    assert np.allclose(h, np.diag(expected), atol=1e-15)


def test_lab_counter_rotating_element():
    h = lab_hamiltonian(pair(), 0.0)
    g = 37.5 * MHZ_TO_RAD_NS
    assert abs(h[basis_index("00"), basis_index("11")] - g) < 1e-15
    assert hermiticity_defect(h) == 0.0


def test_rwa_counter_rotating_removed():
    h = rwa_hamiltonian(pair(), 0.0)
    assert h[basis_index("00"), basis_index("11")] == 0.0


def test_rwa_single_excitation_block_is_g_sigma_x():
    h = rwa_hamiltonian(pair(), 0.0)
    idx = [basis_index("01"), basis_index("10")]
    block = h[np.ix_(idx, idx)]
    g = 37.5 * MHZ_TO_RAD_NS
    assert np.allclose(block, g * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_rwa_double_excitation_block_after_rescaling():
    delta = 30.0
    h = rwa_hamiltonian(pair(delta=delta), 0.0)
    idx = [basis_index("11"), basis_index("02"), basis_index("20")]
    block = h[np.ix_(idx, idx)]
    # subtract the 2*Delta - eta global shift of the sector
    shift = (2 * delta - 200.0) * MHZ_TO_RAD_NS
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
    sys = pair(delta=12.0)
    assert np.array_equal(chain_hamiltonian(sys, 0.0), rwa_hamiltonian(sys, 0.0))


def test_chain_n3_third_qutrit_decoupled_when_g2_zero():
    p = QutritParams(200.0)
    sys3 = QutritSystem([p, p, p], couplings=[37.5, 0.0])
    h3 = chain_hamiltonian(sys3, 0.0)
    h2 = rwa_hamiltonian(pair(), 0.0)
    dloc = np.diag([0.0, 0.0, -200.0 * MHZ_TO_RAD_NS]).astype(complex)
    expected = kron(h2, np.eye(3)) + embed(dloc, 2, 3)
    assert np.allclose(h3, expected, atol=1e-14)


def test_chain_all_zero_is_diagonal_minus_eta_per_double_excitation():
    p = QutritParams(200.0)
    sys = QutritSystem([p, p, p], couplings=[0.0, 0.0])
    h = chain_hamiltonian(sys, 0.0)
    assert np.allclose(h, np.diag(np.diag(h)), atol=1e-15)
    eta = 200.0 * MHZ_TO_RAD_NS
    for i, label in enumerate(basis_labels(3)):
        expected = -eta * sum(c == "2" for c in label)
        assert abs(h[i, i] - expected) < 1e-13


def test_chain_capacity_error():
    p = QutritParams(200.0)
    sys = QutritSystem([p] * 5, couplings=[0.0] * 4)
    with pytest.raises(ValueError, match="capped"):
        chain_hamiltonian(sys, 0.0)


def test_excitation_number_conserved():
    h = rwa_hamiltonian(pair(delta=17.0), 0.0)
    n_tot = kron(number_op(), np.eye(3)) + kron(np.eye(3), number_op())
    assert np.abs(h @ n_tot - n_tot @ h).max() < 1e-12


def test_vacuum_invariant_under_coupling():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    sys = QutritSystem(
        [QutritParams(200.0), QutritParams(200.0)], couplings=[pulse.value]
    )
    u = evolve(lambda t: rwa_hamiltonian(sys, t), (0.0, 22.0), 0.01, basis=basis_labels(2))
    col = u.matrix[:, basis_index("00")]
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
        QutritParams(0.0)
    with pytest.raises(ValueError, match="delta"):
        QutritParams(200.0, delta=3000.0)
    with pytest.raises(ValueError, match="n-1"):
        QutritSystem([QutritParams(200.0)], couplings=[1.0])


def test_coupling_cap_enforced():
    sys = pair(g=60.0)
    with pytest.raises(ValueError, match="outside"):
        rwa_hamiltonian(sys, 0.0)


def test_rwa_residual_zero_coupling():
    assert rwa_residual(200.0, lambda t: 0.0, (0.0, 10.0), 6000.0, dt=0.01) == 0.0


def test_rwa_residual_small_and_monotone():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    res = [
        rwa_residual(200.0, pulse.value, (0.0, 22.0), omega, dt=0.002)
        for omega in (2000.0, 4000.0, 8000.0)
    ]
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.06  # order g/omega, far below unity


def test_rwa_residual_samples_coupling_per_array():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    calls = []

    def counted(ts):
        calls.append(np.shape(ts))
        return pulse.value(ts)

    rwa_residual(200.0, counted, (0.0, 22.0), 4000.0, dt=0.002)  # 11000 midpoints
    assert 0 < len(calls) <= 4


def test_rwa_residual_matches_per_sample_reference():
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)

    def per_sample(ts):
        return np.array([pulse.value(t) for t in np.atleast_1d(ts)])

    for omega in (2000.0, 8000.0):
        fast = rwa_residual(200.0, pulse.value, (0.0, 3.0), omega, dt=0.002)
        assert fast == rwa_residual(200.0, per_sample, (0.0, 3.0), omega, dt=0.002)
