import tracemalloc

import numpy as np
import pytest
from numpy import kron

from qutritchain import evolution, transfer
from qutritchain.evolution import evolve, evolve_affine, unitarity_defect
from qutritchain.model import MHZ_TO_RAD_NS, chain_hamiltonian, coupling_operator, x_op
from qutritchain.pulse import TrapezoidPulse
from qutritchain.transfer import evolve_transfer, qst_fidelity

from _oracles import expm_hermitian


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
    assert np.allclose(u, np.eye(2), atol=1e-14)


def test_evolve_sigma_x_half_pi_swaps():
    # constant g sigma^x with integral g dt = pi/2 -> full amplitude swap
    g = np.pi / 2 / 10.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = evolve(lambda ts: np.broadcast_to(g * sx, (len(ts), 2, 2)), (0.0, 10.0), 0.001)
    assert abs(abs(u[0, 1]) - 1.0) < 1e-10
    assert abs(u[0, 0]) < 1e-10


def test_evolve_time_dependent_unitarity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h0 = (a + a.conj().T) / 2

    def h(ts):
        return np.cos(0.3 * ts)[:, None, None] * h0[None]

    u = evolve(h, (0.0, 15.0), 0.005)
    assert unitarity_defect(u) < 1e-9


@pytest.mark.parametrize(
    "h_of_t",
    [
        lambda ts: np.eye(2),  # one matrix, not a stack
        lambda ts: np.zeros((1, 2, 2)),  # one matrix for every time
        lambda ts: np.zeros((len(ts), 2, 3)),  # not square
        lambda ts: np.zeros(len(ts)),  # scalars
        lambda ts: np.zeros((len(ts),) + (2 + (ts[0] > 1e-4),) * 2),  # size changes along t
    ],
)
def test_evolve_rejects_h_of_t_without_stack(h_of_t):
    # one step more than a chunk of the 2-dim h sampled at t = 0: the
    # second chunk, starting after t = 1e-4, must match that size
    n = evolution._chunk(2) + 1
    with pytest.raises(ValueError, match=r"\(k, d, d\) stack"):
        evolve(h_of_t, (0.0, n * 1e-4), 1e-4)


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
    assert np.allclose(u_ref, u_fast, atol=1e-13)


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
    assert np.abs(u_generic - u_ref).max() < 1e-12
    assert np.abs(u_affine - u_ref).max() < 1e-12


def test_evolve_affine_rejects_nonhermitian_parts():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_affine(bad, np.eye(2), lambda ts: np.zeros_like(ts), (0.0, 1.0), 0.1)


@pytest.mark.parametrize(
    "constant, explicit",
    [
        (lambda t: 0.0, lambda ts: np.zeros(len(ts))),
        (lambda t: np.float64(0.3), lambda ts: np.full(len(ts), 0.3)),
    ],
)
def test_evolve_affine_broadcasts_a_constant_scale(constant, explicit):
    d = np.diag([0.0, 0.3, -0.9]).astype(complex)
    u_const = evolve_affine(d, x_op(), constant, (0.0, 2.0), 0.01)
    u_explicit = evolve_affine(d, x_op(), explicit, (0.0, 2.0), 0.01)
    assert np.array_equal(u_const, u_explicit)


@pytest.mark.parametrize(
    "scale_of_t",
    [
        lambda ts: np.zeros(len(ts) + 1),  # one value too many
        lambda ts: np.zeros(1),  # one value for every time
        lambda ts: np.zeros((len(ts), 1)),  # a column, not one value per time
        lambda ts: [],
    ],
)
def test_evolve_affine_rejects_scale_of_wrong_shape(scale_of_t):
    with pytest.raises(ValueError, match="scale_of_t must return one value per time"):
        evolve_affine(np.eye(2), np.eye(2), scale_of_t, (0.0, 1.0), 0.1)


@pytest.mark.parametrize(
    "t_span, dt",
    [((0.0, np.nan), 0.1), ((np.nan, 1.0), 0.1), ((0.0, 1.0), np.nan), ((0.0, np.inf), 0.1),
     ((-np.inf, 1.0), 0.1), ((0.0, 1.0), np.inf)],
)
def test_non_finite_window_or_step_is_rejected(t_span, dt):
    with pytest.raises(ValueError, match="must be finite"):
        evolve_affine(np.eye(2), np.eye(2), lambda ts: ts, t_span, dt)
    with pytest.raises(ValueError, match="must be finite"):
        evolve(lambda ts: np.zeros((len(ts), 2, 2)), t_span, dt)


def test_evolve_dt_halving_table1_fidelity():
    # analytic 200 MHz pulse: halving dt moves the fidelity by < 1e-8
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    f_coarse = qst_fidelity(evolve_transfer(pulse, 200.0, dt=0.004))
    f_fine = qst_fidelity(evolve_transfer(pulse, 200.0, dt=0.002))
    assert abs(f_coarse - f_fine) < 1e-8


def test_propagator_validates_unitarity(monkeypatch):
    def doubled(hs, dt):
        return np.broadcast_to(2.0 * np.eye(hs.shape[-1], dtype=complex), hs.shape)

    with monkeypatch.context() as m:
        m.setattr(evolution, "_batch_step_unitaries", doubled)
        with pytest.raises(ValueError, match="not unitary"):
            evolve(lambda ts: np.zeros((len(ts), 2, 2)), (0.0, 1.0), 0.1)
    # evolve_affine folds in the eigenbases of its runs: stretch their
    # eigenvectors, for a window of one run and one of ten
    eigh = np.linalg.eigh

    def stretched(hs):
        lam, v = eigh(hs)
        return lam, 2.0 * v

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", stretched)
        for scale_of_t in (lambda ts: np.zeros_like(ts), lambda ts: ts):
            with pytest.raises(ValueError, match="not unitary"):
                evolve_affine(np.eye(2), np.diag([1.0, -1.0]), scale_of_t, (0.0, 1.0), 0.1)
    monkeypatch.setattr(transfer, "_pair_window", lambda *args: 2.0 * np.eye(9))
    with pytest.raises(ValueError, match="not unitary"):
        evolve_transfer(TrapezoidPulse(30.0, 10.0, 2.0), 200.0, dt=0.01)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("window", ["one run", "four runs", "a lane and four runs", "three chunks"])
def test_evolve_affine_matches_step_unitary_product(monkeypatch, kind, window):
    # reference: one step unitary exp(-i h dt) per midpoint step, folded as a
    # stack; evolve_affine chains runs through their eigenbases instead, and
    # multiplies full lanes of runs out one by one before its fold
    dim, dt = 6, 0.05
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, dim, dim))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(2, dim, dim))
    d, w = (a + a.conj().transpose(0, 2, 1)) / 2
    if window == "one run":
        n, c = 10, lambda ts: np.full(len(ts), 0.7)
    elif window == "four runs":
        n, c = 20, lambda ts: np.floor(4.0 * ts)
    elif window == "a lane and four runs":
        n, c = evolution.LANE + 4, lambda ts: np.sin(2.0 * ts)
    else:
        monkeypatch.setattr(evolution, "CHUNK_BYTES", 1)  # LANE runs per chunk
        n, c = 3 * evolution._chunk(dim) + 5, lambda ts: np.sin(2.0 * ts)
    mids, dt_eff = evolution._midpoints((0.0, n * dt), dt)
    assert len(mids) == n
    hs = d[None] + c(mids)[:, None, None] * w[None]
    u_ref = evolution._fold(evolution._batch_step_unitaries(hs, dt_eff))
    u = evolve_affine(d, w, c, (0.0, n * dt), dt)
    assert np.abs(u - u_ref).max() < 1e-12


def test_evolve_affine_memory_is_bounded_by_chunk():
    # the n = 4 ramp of the full-chain oracle at 4 ps: 500 runs of 81x81.
    # Folding a stack of run unitaries in 32 MB chunks peaked at 128 MB;
    # chained through eigenbases in 2 MB chunks, at ~4.3 MB
    pulse = TrapezoidPulse(37.5, 22.0, 2.0)
    diag, w = chain_hamiltonian(200.0, [0.0] * 3), coupling_operator(0, 4)
    tracemalloc.start()
    try:
        evolve_affine(diag, w, lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS, pulse.ramp_window, 0.004)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * evolution.CHUNK_BYTES


def test_evolve_memory_is_bounded_by_chunk():
    # a time-dependent 81-dim h over one step more than a 9-dim chunk: a
    # first chunk sized for d = 9 (1543 steps of 81x81) peaked at 894 MB;
    # chunks sized for d = 81 from one sample peak at ~7.1 MB
    diag, w = chain_hamiltonian(200.0, [0.0] * 3), coupling_operator(0, 4)
    n = evolution._chunk(9) + 1
    tracemalloc.start()
    try:
        evolve(lambda ts: diag[None] + np.sin(ts)[:, None, None] * w[None], (0.0, n * 1e-3), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * evolution.CHUNK_BYTES
