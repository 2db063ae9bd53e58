"""Reference implementations shared by the tests, independent of the
package's closed forms and fast paths, and the helpers only tests use
(number_op, count_transfer_peaks, choi, runs_by_dimension)."""

from collections import Counter

import numpy as np

from qutritchain import evolution
from qutritchain.evolution import (
    HERMITIAN_TOL,
    _batch_step_unitaries,
    _per_time,
    _runs,
    _su2_fold,
    evolve,
    evolve_affine,
    hermiticity_defect,
)
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    x_op,
    y_op,
)
from qutritchain.transfer import _Pair


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h (rad/ns) over t (ns), via eigendecomposition.

    Raises ValueError for non-Hermitian input, reporting the max asymmetry.
    """
    h = np.asarray(h)
    defect = hermiticity_defect(h)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dagger| = {defect:.3e}")
    return _batch_step_unitaries(h[None], t)[0]


def number_op() -> np.ndarray:
    """Local excitation number diag(0, 1, 2)."""
    return np.diag([0.0, 1.0, 2.0]).astype(complex)


def count_transfer_peaks(populations: np.ndarray, height: float = 0.99) -> int:
    """Completed-transfer peaks in a population trace: local maxima found by
    sign changes of the discrete derivative (a rising endpoint counts), kept
    only if the population reaches `height` there.  The height filter drops
    the small ripples the doubly excited level imprints on the trace."""
    y = np.asarray(populations, dtype=float)
    d = np.diff(y)
    moving = np.abs(d) > 1e-12
    sgn = np.sign(d[moving])
    idx = np.nonzero(moving)[0]
    peaks = 0
    for i in range(len(sgn) - 1):
        if sgn[i] > 0 and sgn[i + 1] < 0 and y[idx[i] + 1] >= height:
            peaks += 1
    if len(sgn) and sgn[-1] > 0 and y[-1] >= height:
        peaks += 1
    return peaks


def choi(channel) -> np.ndarray:
    """Choi matrix sum_k vec(E_k) vec(E_k)^dag of a QutritChannel; PSD iff
    the map is CP."""
    c = np.zeros((9, 9), dtype=complex)
    for e in channel.kraus_ops:
        v = e.reshape(-1)
        c += np.outer(v, v.conj())
    return c


def adaptive_simpson(f, a: float, b: float, rtol: float = 1e-12) -> float:
    """Adaptive Simpson quadrature of f on [a, b] with relative tolerance."""
    if b <= a:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        fl = f(0.5 * (x0 + xm))
        fr = f(0.5 * (xm + x2))
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth > 48 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, tol / 2.0, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, tol / 2.0, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    tol = rtol * max(abs(whole), 1e-300)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.11e}"  # 12 significant digits


def write_csv(path: str, header: list[str], rows) -> None:
    """The CSV writer that formats one cell at a time and joins the whole
    text before writing it."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def rwa_residual_generic(
    eta: float,
    g_of_t,
    t_span: tuple[float, float],
    omega: float,
    dt: float = 0.001,
) -> float:
    """The RWA residual in rwa_residual's frame, with the exact side on the
    generic step-by-step evolve instead of evolve_affine."""
    n_total = np.add.outer(np.arange(3), np.arange(3)).ravel()
    d_lab = chain_hamiltonian(eta, [0.0]) - np.diag(omega * MHZ_TO_RAD_NS * n_total)
    xx = np.kron(x_op(), x_op())

    def g_values(ts):
        return _per_time(g_of_t(ts), ts, "g_of_t") * MHZ_TO_RAD_NS

    def h_exact(ts):
        return d_lab[None, :, :] + g_values(ts)[:, None, None] * xx[None, :, :]

    u_exact = evolve(h_exact, t_span, dt)
    u_rwa = evolve_affine(d_lab, coupling_operator(0, 2), g_values, t_span, dt)
    return float(np.linalg.norm(u_exact - u_rwa, ord=2))


def rwa_side_by_frame_identity(
    eta: float, g: np.ndarray, omega: float, dt_eff: float
) -> np.ndarray:
    """The RWA side of rwa_residual by its frame identity, for the coupling
    samples g (MHz), one per step of dt_eff.  N commutes with D and W, so
    each step is exp(i omega N dt) exp(-i (D + g W) dt), and the product is
    exp(i omega N T) times the pair's rotating-frame product: each run of
    equal samples one _Pair.plateau, the runs folded by _su2_fold."""
    t_total = dt_eff * len(g)
    starts, lengths = _runs(np.append(True, g[1:] != g[:-1]))
    runs = _Pair.plateau(eta, g[starts], dt_eff * lengths)
    pair = _Pair(np.sum(runs.area), *_su2_fold(runs.p, runs.q), t_total)
    n_total = np.add.outer(np.arange(3), np.arange(3)).ravel()
    frame = np.exp(1j * omega * MHZ_TO_RAD_NS * n_total * t_total)
    return frame[:, None] * pair.matrix(eta * MHZ_TO_RAD_NS)


def rwa_residual_rotating(
    eta: float,
    g_of_t,
    t_span: tuple[float, float],
    omega: float,
    dt: float = 0.001,
) -> float:
    """The RWA residual evolved in the rotating frame, where the exact
    Hamiltonian carries exp(i de t) phases and no two steps are equal."""
    diag = chain_hamiltonian(eta, [0.0])
    xx = np.kron(x_op(), x_op())
    w_rwa = coupling_operator(0, 2)
    e = omega * MHZ_TO_RAD_NS * np.add.outer(np.arange(3), np.arange(3)).ravel()
    de = e[None, :] - e[:, None]

    def g_values(ts):
        ts = np.atleast_1d(ts)
        return _per_time(g_of_t(ts), ts, "g_of_t") * MHZ_TO_RAD_NS

    def h_exact(ts):
        g = g_values(ts)
        v = xx[None, :, :] * np.exp(1j * de[None, :, :] * np.atleast_1d(ts)[:, None, None])
        return diag[None, :, :] + g[:, None, None] * v

    u_exact = evolve(h_exact, t_span, dt)
    u_rwa = evolve_affine(diag, w_rwa, g_values, t_span, dt)
    return float(np.linalg.norm(u_exact - u_rwa, ord=2))


def dense_pair_ramp(eta: float, pulse, dt: float) -> np.ndarray:
    """The pair's up ramp R on the dense 9x9 evolve_affine, whose every run
    is a 9x9 np.linalg.eigh: the oracle's ramp before it ran in exchange
    blocks."""
    g = lambda ts: pulse.value(ts) * MHZ_TO_RAD_NS
    return evolve_affine(chain_hamiltonian(eta, [0.0]), coupling_operator(0, 2), g,
                         pulse.ramp_window, dt)


def embed_product(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """op on qutrit k of n as the Kronecker product of n factors, op at k
    and the 3x3 identity elsewhere: model.embed before it took the
    identities before and after k whole."""
    out = np.eye(1, dtype=complex)
    for j in range(n):
        out = np.kron(out, op if j == k else np.eye(3, dtype=complex))
    return out


def coupling_operator_product(k: int, n: int) -> np.ndarray:
    """(X_k X_k+1 + Y_k Y_k+1) / 2 from the products of embedded n-qutrit
    operators, as model.coupling_operator built it before it embedded the
    9x9 pair operator."""
    xx = embed_product(x_op(), k, n) @ embed_product(x_op(), k + 1, n)
    yy = embed_product(y_op(), k, n) @ embed_product(y_op(), k + 1, n)
    return (xx + yy) / 2.0


def chain_hamiltonian_product(eta: float, couplings) -> np.ndarray:
    """model.chain_hamiltonian from embedded n-qutrit operators: the
    diagonal as a sum of embedded diag(0, 0, -eta), the couplings from
    coupling_operator_product."""
    n = len(couplings) + 1
    h = np.zeros((3**n, 3**n), dtype=complex)
    local = np.diag([0.0, 0.0, -eta * MHZ_TO_RAD_NS]).astype(complex)
    for i in range(n):
        h += embed_product(local, i, n)
    for k, g in enumerate(couplings):
        if g:
            h += g * MHZ_TO_RAD_NS * coupling_operator_product(k, n)
    return h


def runs_by_dimension(monkeypatch) -> tuple[Counter, Counter]:
    """Runs that evolution._run_product multiplies out from here on (a 2x2
    by its SU(2) fold, any other size through evolution._eigh), and
    matrices that np.linalg.eigh decomposes for evolution, both by
    dimension."""
    runs, lapack = Counter(), Counter()
    run_product, eigh = evolution._run_product, np.linalg.eigh

    def counted_runs(d, w, cs, lengths, dt_eff):
        runs[d.shape[0]] += len(cs)
        return run_product(d, w, cs, lengths, dt_eff)

    def counted_eigh(a, *args, **kwargs):
        lapack[np.shape(a)[-1]] += int(np.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(evolution, "_run_product", counted_runs)
    monkeypatch.setattr(evolution.np.linalg, "eigh", counted_eigh)
    return runs, lapack
