import numpy as np
import pytest
from numpy import kron

from qutritchain.evolution import (
    Propagator,
    evolve,
    evolve_affine,
    expm_hermitian,
    unitarity_defect,
)
from qutritchain.model import MHZ_TO_RAD_NS, x_op
from qutritchain.pulse import TrapezoidPulse
from qutritchain.transfer import evolve_transfer, qst_fidelity


def test_kron_identity():
    assert np.array_equal(kron(np.eye(3), np.eye(3)), np.eye(9))


def test_kron_x_embed_action():
    # (X (x) I) |10> = |00> + sqrt(2) |20>
    col = kron(x_op(), np.eye(3))[:, 3]
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    expected[6] = np.sqrt(2.0)
    assert np.allclose(col, expected, atol=1e-15)


def test_kron_block_structure():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.arange(9.0).reshape(3, 3)
    k = kron(a, b)
    assert k.shape == (6, 6)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(k[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], a[i, j] * b)


def test_expm_zero():
    assert np.allclose(expm_hermitian(np.zeros((3, 3)), 5.0), np.eye(3), atol=1e-15)


def test_expm_diagonal_phases():
    eta = 200.0 * MHZ_TO_RAD_NS
    delta = 40.0 * MHZ_TO_RAD_NS
    h = np.diag([0.0, delta, 2 * delta - eta])
    t = 7.3
    u = expm_hermitian(h, t)
    expected = np.diag([1.0, np.exp(-1j * delta * t), np.exp(-1j * (2 * delta - eta) * t)])
    assert np.allclose(u, expected, atol=1e-13)


def test_expm_double_excitation_eigenphases():
    # resonant {|11>, |02>, |20>} block: eigenvalues 0 and eta/2 +- sqrt((eta/2)^2 + 4 g^2)
    g, eta = 37.5, 200.0
    block = np.array(
        [
            [eta, np.sqrt(2) * g, np.sqrt(2) * g],
            [np.sqrt(2) * g, 0, 0],
            [np.sqrt(2) * g, 0, 0],
        ]
    ) * MHZ_TO_RAD_NS
    w = np.sort(np.linalg.eigvalsh(block))
    root = np.sqrt((eta / 2) ** 2 + 4 * g**2)
    expected = np.sort(np.array([0.0, eta / 2 + root, eta / 2 - root]) * MHZ_TO_RAD_NS)
    assert np.allclose(w, expected, rtol=1e-10, atol=1e-12)
    # and expm applies exactly those eigenphases
    u = expm_hermitian(block, 3.0)
    wu = np.linalg.eigvals(u)
    assert np.allclose(np.sort(np.angle(wu)), np.sort(np.angle(np.exp(-1j * expected * 3.0))), atol=1e-10)


def test_expm_unitary():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h = (a + a.conj().T) / 2
    u = expm_hermitian(h, 2.1)
    assert unitarity_defect(u) < 1e-12


def test_expm_rejects_nonhermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="h - h"):
        expm_hermitian(h, 1.0)


def test_evolve_zero_hamiltonian_is_identity():
    u = evolve(lambda ts: np.zeros((len(ts), 2, 2)), (0.0, 22.0), 0.01)
    assert np.allclose(u.matrix, np.eye(2), atol=1e-14)
    assert u.t_start == 0.0 and u.t_end == 22.0


def test_evolve_sigma_x_half_pi_swaps():
    # constant g sigma^x with integral g dt = pi/2 -> full amplitude swap
    g = np.pi / 2 / 10.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = evolve(lambda ts: np.broadcast_to(g * sx, (len(ts), 2, 2)), (0.0, 10.0), 0.001)
    assert abs(abs(u.matrix[0, 1]) - 1.0) < 1e-10
    assert abs(u.matrix[0, 0]) < 1e-10


def test_evolve_time_dependent_unitarity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h0 = (a + a.conj().T) / 2

    def h(ts):
        return np.cos(0.3 * ts)[:, None, None] * h0[None]

    u = evolve(h, (0.0, 15.0), 0.005)
    assert unitarity_defect(u.matrix) < 1e-9


@pytest.mark.parametrize(
    "h_of_t",
    [
        lambda ts: np.eye(2),  # one matrix, not a stack
        lambda ts: np.zeros((1, 2, 2)),  # one matrix for every time
        lambda ts: np.zeros((len(ts), 2, 3)),  # not square
        lambda ts: np.zeros(len(ts)),  # scalars
        lambda ts: np.zeros((len(ts), 2 + (len(ts) > 1), 2 + (len(ts) > 1))),  # size changes
    ],
)
def test_evolve_rejects_h_of_t_without_stack(h_of_t):
    with pytest.raises(ValueError, match=r"\(k, d, d\) stack"):
        evolve(h_of_t, (0.0, 1.0), 0.1)


def test_evolve_rejects_nonhermitian_h_of_t():
    def h(ts):
        return np.array([[[0.0, t], [0.0, 0.0]] for t in ts])

    with pytest.raises(ValueError, match="not Hermitian at t"):
        evolve(h, (0.0, 1.0), 0.1)


def test_evolve_affine_matches_generic():
    pulse = TrapezoidPulse(25.0, 8.0, 2.0)
    d = np.diag([0.0, 0.3, -0.9]).astype(complex)
    w = x_op()

    def h(ts):
        return d[None] + (pulse.value(ts) * MHZ_TO_RAD_NS)[:, None, None] * w[None]

    u_ref = evolve(h, (0.0, 8.0), 0.005)
    u_fast = evolve_affine(
        d, w, lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS, (0.0, 8.0), 0.005
    )
    assert np.allclose(u_ref.matrix, u_fast.matrix, atol=1e-13)


def test_run_folds_match_step_by_step_product():
    # reference: one exponential per midpoint step, multiplied in time order
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    d, w = (a + a.conj().T) / 2, (b + b.conj().T) / 2
    t_span, dt = (0.0, 5.0), 5.0 / 333

    def c(t):
        return np.minimum(t, 3.1)  # a ramp, then a plateau run; not time-symmetric

    def h(ts):
        return d[None] + c(ts)[:, None, None] * w[None]

    u_ref = np.eye(4, dtype=complex)
    for k in range(333):
        u_ref = expm_hermitian(h(np.array([(k + 0.5) * dt]))[0], dt) @ u_ref
    u_generic = evolve(h, t_span, dt)
    u_affine = evolve_affine(d, w, c, t_span, dt)
    assert np.abs(u_generic.matrix - u_ref).max() < 1e-12
    assert np.abs(u_affine.matrix - u_ref).max() < 1e-12


def test_evolve_affine_rejects_nonhermitian_parts():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_affine(bad, np.eye(2), lambda ts: np.zeros_like(ts), (0.0, 1.0), 0.1)


def test_evolve_dt_halving_table1_fidelity():
    # analytic 200 MHz pulse: halving dt moves the fidelity by < 1e-8
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    f_coarse = qst_fidelity(evolve_transfer(pulse, 200.0, dt=0.004))
    f_fine = qst_fidelity(evolve_transfer(pulse, 200.0, dt=0.002))
    assert abs(f_coarse - f_fine) < 1e-8


def test_propagator_validates_unitarity():
    with pytest.raises(ValueError, match="not unitary"):
        Propagator(np.eye(2) * 2.0, ("0", "1"), 0.0, 1.0)


def test_propagator_amplitude_lookup():
    u = Propagator(np.eye(3, dtype=complex), ("a", "b", "c"), 0.0, 0.0)
    assert u.amplitude("b", "b") == 1.0
    assert u.amplitude("a", "b") == 0.0
