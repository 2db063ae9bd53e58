import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy import kron

from qutritchain import chain, evolution, transfer
from qutritchain.chain import ChainSchedule, evolve_chain_full
from qutritchain.evolution import evolve, evolve_affine, unitarity_defect
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    embed,
    x_op,
    y_op,
)
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
    "scale_of_t",
    [
        lambda ts: np.where(ts == ts[-1], np.nan, 1.0),  # one NaN sample
        lambda ts: np.full(len(ts), np.inf),
        lambda ts: 10**400,  # an int past the float range
        lambda ts: [1.0] * (len(ts) - 1) + [10**400],
    ],
)
def test_evolve_affine_rejects_a_non_finite_scale_before_any_step(monkeypatch, scale_of_t):
    # a ValueError that names scale_of_t, not an OverflowError, a
    # RuntimeWarning or a LinAlgError from the decompositions after it
    monkeypatch.setattr(np.linalg, "eigh", None)
    with pytest.raises(ValueError, match="scale_of_t must return finite values"):
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
    # eigenvectors, for a window of one run and one of ten, on each path of
    # the decomposition (2x2 and diagonal in closed form, np.linalg.eigh)
    eigh = evolution._eigh

    def stretched(d, w, cs):
        lam, v = eigh(d, w, cs)
        return lam, 2.0 * v

    with monkeypatch.context() as m:
        m.setattr(evolution, "_eigh", stretched)
        for d, w in ((np.eye(2), x_op()[:2, :2]), (np.eye(3), np.diag([1.0, 0.0, -1.0])),
                     (np.eye(3), x_op())):
            for scale_of_t in (lambda ts: np.zeros_like(ts), lambda ts: ts):
                with pytest.raises(ValueError, match="not unitary"):
                    evolve_affine(d, w, scale_of_t, (0.0, 1.0), 0.1)
    # the full-chain oracle checks its step R^T P R: a non-unitary ramp
    with monkeypatch.context() as m:
        m.setattr(chain, "_evolve_exchange_blocks", lambda d, *args: 2.0 * np.eye(len(d)))
        schedule = ChainSchedule(TrapezoidPulse(30.0, 10.0, 2.0), 1, (0.0, 0.0))
        with pytest.raises(ValueError, match="not unitary"):
            evolve_chain_full(schedule, 200.0, dt=0.01)
    # and evolve_transfer its R^T P R: a non-unitary closed-form ramp
    monkeypatch.setattr(transfer._Pair, "matrix", lambda self, e: 2.0 * np.eye(9))
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


def _step_values(values, dt):
    """A scale_of_t whose value at the k-th midpoint of a grid of steps dt
    from 0 is values[k]: exact mirror images, whatever the step times' roundoff."""
    return lambda ts: np.asarray(values)[np.floor(ts / dt).astype(int)]


def _triangle(n):
    return np.minimum(np.arange(n), np.arange(n)[::-1]).astype(float)


_EPS = np.finfo(float).eps
PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# values per step, and the runs evolve_affine decomposes for them
MIRRORED = {
    # a single middle step: 11 runs
    "odd, single-step middle": (_triangle(21), 11),
    # runs of 3 steps up to a plateau of 10: 11 runs
    "odd, plateau": (np.minimum(_triangle(40) // 3, 5.0), 6),
    # no two steps equal: the middle two differ by rounding, 20 runs
    "even, within MIRROR_TOL": (
        np.concatenate((np.arange(10.0), np.arange(10.0)[::-1] * (1 + 4 * _EPS))), 10),
}


def _real_symmetric_parts(dim, kind="real"):
    rng = np.random.default_rng(23)
    a = rng.normal(size=(2, dim, dim))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(2, dim, dim))
    return (a + a.conj().transpose(0, 2, 1)) / 2


def _decompositions_and_error(monkeypatch, d, w, values, dt):
    """Matrices evolve_affine decomposes for the window (0, len(values) dt),
    and its largest entry error against the step-by-step product."""
    decomposed = []
    eigh = np.linalg.eigh

    def counted(hs):
        decomposed.append(len(hs))
        return eigh(hs)

    c = _step_values(values, dt)
    mids, dt_eff = evolution._midpoints((0.0, len(values) * dt), dt)
    hs = d[None] + c(mids)[:, None, None] * w[None]
    u_ref = evolution._fold(evolution._batch_step_unitaries(hs, dt_eff))
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", counted)
        u = evolve_affine(d, w, c, (0.0, len(values) * dt), dt)
    return sum(decomposed), np.abs(u - u_ref).max()


@pytest.mark.parametrize("window", list(MIRRORED))
def test_mirrored_window_folds_over_its_first_half(monkeypatch, window):
    # R^T M R, from the first half's runs and the middle run, equals the
    # step-by-step product (4.4e-15 at most, measured) with half the
    # decompositions
    values, decomposed = MIRRORED[window]
    d, w = _real_symmetric_parts(6)
    n, err = _decompositions_and_error(monkeypatch, d, w, values, 0.05)
    assert n == decomposed
    assert err < 1e-12


@pytest.mark.parametrize(
    "window", ["complex d and w", "run lengths not mirrored", "values off by 64 eps"]
)
def test_unmirrored_window_decomposes_every_run(monkeypatch, window):
    kind = "complex" if window == "complex d and w" else "real"
    d, w = _real_symmetric_parts(6, kind)
    values, runs = _triangle(21), 21
    if window == "run lengths not mirrored":
        # runs of values 0, 1, 2, 5, 2, 1, 0 with lengths 1, 2, 1, 1, 1, 1, 1
        values, runs = np.array([0.0, 1.0, 1.0, 2.0, 5.0, 2.0, 1.0, 0.0]), 7
    elif window == "values off by 64 eps":
        values = values * np.where(np.arange(21) > 10, 1 + 64 * _EPS, 1.0)
    n, err = _decompositions_and_error(monkeypatch, d, w, values, 0.05)
    assert n == runs
    assert err < 1e-12


def _closed_form_pair(dim, degeneracy, draw_entries):
    """Real symmetric d and w of size dim (2x2, or diagonal for any other
    dim), from draw_entries(k) -> k floats, with a degeneracy that the
    stack d + c w takes at c = 1 or at every c."""
    a = np.array(draw_entries(6))
    if dim == 2:
        d, w = np.array([[a[0], a[1]], [a[1], a[2]]]), np.array([[a[3], a[4]], [a[4], a[5]]])
        if degeneracy == "b = 0":  # at c = 1
            w[0, 1] = w[1, 0] = -d[0, 1]
        elif degeneracy == "a = c":
            d[1, 1], w[1, 1] = d[0, 0], w[0, 0]
    else:
        d, w = np.diag(draw_entries(dim)), np.diag(draw_entries(dim))
    if degeneracy == "zero":  # at c = 0
        d = np.zeros_like(d)
    return d, w


@PROPS
@given(
    dim=st.sampled_from([2, 1, 3, 5]),
    degeneracy=st.sampled_from(["none", "b = 0", "a = c", "zero"]),
    exponent=st.integers(-150, 150),
    data=st.data(),
)
def test_closed_form_decompositions_match_lapack(dim, degeneracy, exponent, data):
    # evolution._eigh's 2x2 and diagonal closed forms, at scales 1e-150 to
    # 1e150: residual and orthonormality within a few eps, eigenvalues as
    # LAPACK's, ascending for the 2x2 (a diagonal keeps its own order)
    unit = st.floats(-1.0, 1.0)
    draw_entries = lambda k: data.draw(st.lists(unit, min_size=k, max_size=k))
    d, w = _closed_form_pair(dim, degeneracy, draw_entries)
    d, w = d * 10.0**exponent, w * 10.0**exponent
    cs = np.array([0.0, 1.0] + data.draw(st.lists(st.floats(-3.0, 3.0), max_size=6)))
    hs = d[None] + cs[:, None, None] * w[None]
    lam, v = evolution._eigh(d, w, cs)
    size = np.abs(hs).max(axis=(1, 2))
    residual = np.abs(hs @ v - v * lam[:, None, :]).max(axis=(1, 2))
    assert np.all(residual <= 4 * dim * _EPS * size)
    assert np.abs(v.transpose(0, 2, 1) @ v - np.eye(dim)).max() <= 4 * _EPS
    assert np.all(np.abs(np.sort(lam) - np.linalg.eigh(hs)[0]).max(axis=1) <= 4 * _EPS * size)
    if dim == 2:
        assert np.all(lam[:, 0] <= lam[:, 1])


@PROPS
@given(
    dim=st.sampled_from([2, 1, 4]),
    degeneracy=st.sampled_from(["none", "b = 0", "a = c", "zero"]),
    values=st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.0, 3.5]), min_size=1, max_size=120),
    data=st.data(),
)
def test_evolve_affine_in_closed_form_matches_lapack(dim, degeneracy, values, data):
    # the same window with every run decomposed by np.linalg.eigh instead,
    # at up to ~0.3 rad per step.  The two differ by up to 1.6 eps per step
    # (6000 random scratch windows), mostly LAPACK's roundoff: against a
    # long-double product of the exact run unitaries, the 2x2 closed form
    # is within 0.49 n_steps eps and LAPACK within 1.09 (400 windows)
    unit = st.floats(-1.0, 1.0)
    draw_entries = lambda k: data.draw(st.lists(unit, min_size=k, max_size=k))
    d, w = _closed_form_pair(dim, degeneracy, draw_entries)
    dt, c = 0.05, _step_values(values, 0.05)
    window = (0.0, len(values) * dt)
    u = evolve_affine(d, w, c, window, dt)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(evolution, "_eigh",
                  lambda d, w, cs: np.linalg.eigh(d[None] + cs[:, None, None] * w[None]))
        u_lapack = evolve_affine(d, w, c, window, dt)
    assert np.abs(u - u_lapack).max() <= (2 * len(values) + 2) * _EPS


def test_evolve_affine_memory_is_bounded_by_chunk():
    # a dense n = 4 edge-0 ramp at 4 ps: 500 runs of 81x81.
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
    # a time-dependent 81-dim h over 1544 steps: a first chunk sized for
    # d = 9 (1543 steps of 81x81) peaked at 894 MB.  Chunks sized for d = 81
    # from one sample peak at ~7.1 MB for a real h.  A complex chunk, whose
    # exponentials hold four complex stacks at once, peaked at 8.24 MB when
    # exponentiated whole, and at ~6.2 MB in halves
    diag, w = chain_hamiltonian(200.0, [0.0] * 3), coupling_operator(0, 4)
    n = evolution._chunk(9) + 1
    for coupling in (w, w + embed(y_op(), 0, 4)):  # real, then complex
        tracemalloc.start()
        try:
            evolve(
                lambda ts: diag[None] + np.sin(ts)[:, None, None] * coupling[None],
                (0.0, n * 1e-3),
                1e-3,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * evolution.CHUNK_BYTES
