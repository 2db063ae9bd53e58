"""Dense complex linear algebra and time-ordered evolution.

Hamiltonians handed to this module are matrices of angular frequencies in
rad/ns; times are in ns.  The integrator is a midpoint-sampled product of
piecewise-constant exponentials, so every returned propagator is unitary by
construction (each step is exp(-i H dt) of a Hermitian H).
"""

from __future__ import annotations

import sys

import numpy as np

HERMITIAN_TOL = 1e-12
# mismatch of run values, relative to max|c|, up to which evolve_affine
# takes a window as mirrored: ~3x the 10.9 eps that rounding leaves between
# a trapezoid's up and down ramp samples (33 (eta, dt) points)
MIRROR_TOL = 32 * np.finfo(float).eps
UNITARY_TOL = 1e-9
# complex (d, d) matrices evolve or evolve_affine hold per stack of a batch
# of steps or runs; 2 MB is 19 runs at d = 81 and keeps a batch's working
# set in cache
CHUNK_BYTES = 2_000_000
# runs evolve_affine multiplies out one by one before its pairwise fold; a
# batch holds at least one lane
LANE = 16
# steps of the arrowhead secular iteration (_secular_eigh) before a matrix
# goes to LAPACK
SECULAR_ITERATIONS = 16
# matrices the secular solver takes at once: its ~15 (n, batch) float
# arrays stay within ~0.5 MB at n = 4
SECULAR_BATCH = 1024
_EPS, _TINY, _MAX = np.finfo(float).eps, np.finfo(float).tiny, np.finfo(float).max


def _finite(x) -> bool:
    """abs(x) within the float range: False for NaN, +-inf and an int past
    the float range, which it compares without converting."""
    return abs(x) <= sys.float_info.max


def hermiticity_defect(h: np.ndarray) -> float:
    """Max absolute asymmetry |h - h^dagger|."""
    return float(np.abs(h - h.conj().T).max()) if h.size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U^dagger U - I."""
    d = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(d)))


def _unitary(u: np.ndarray) -> np.ndarray:
    """u, after checking that it is unitary to UNITARY_TOL."""
    defect = unitarity_defect(u)
    if defect > UNITARY_TOL:
        raise ValueError(f"propagator is not unitary: |U^dag U - I|_F = {defect:.3e}")
    return u


def _batch_step_unitaries(hs: np.ndarray, dt) -> np.ndarray:
    """exp(-i H dt) for a stack of Hermitian matrices (k, d, d); dt is one
    duration or one per matrix."""
    dt = np.asarray(dt, dtype=float)[..., None]
    w, v = np.linalg.eigh(hs.real if np.abs(hs.imag).max(initial=0.0) == 0.0 else hs)
    # V^H is taken before V is replaced by V Phi, so that at most three
    # complex (k, d, d) stacks are held at once
    vh = v.conj().transpose(0, 2, 1).astype(complex, copy=False)
    v = v * np.exp(-1j * w * dt)[:, None, :]
    return np.matmul(v, vh)


def _fold(us: np.ndarray) -> np.ndarray:
    """Time-ordered product us[-1] @ ... @ us[0] of a (k, d, d) stack, by
    multiplying neighbouring pairs in one batched matmul per level; each
    level halves the stack (rounding up), so ceil(log2 k) levels leave one."""
    for _ in range((len(us) - 1).bit_length()):
        m = len(us) - len(us) % 2
        us = np.concatenate((np.matmul(us[1:m:2], us[0:m:2]), us[m:]))
    return us[0]


def _lane_products(links: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The factors Phi_k L_k of a run product, for a (k, d, d) stack of links
    L_k and (k, d, 1) phases, with each full lane of LANE consecutive runs
    multiplied out one by one, the later run on the left; the runs after
    the last full lane stay single.  Returned in time order for _fold.  A
    real link times a complex product is one real matmul on the product's
    (d, 2d) float view, about half the work of a complex matmul."""
    n = len(links) - len(links) % LANE
    if not n:
        return links * phases
    real = np.isrealobj(links)
    p = links[0:n:LANE] * phases[0:n:LANE]
    for j in range(1, LANE):
        lj = links[j:n:LANE]
        p = np.matmul(lj, p.view(float)).view(complex) if real else np.matmul(lj, p)
        p *= phases[j:n:LANE]
    return np.concatenate((p, links[n:] * phases[n:]))


def _runs(new_run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run, given a flag per step that is True
    where the step differs from the one before (the first step included)."""
    starts = np.flatnonzero(new_run)
    return starts, np.diff(np.append(starts, len(new_run)))


def _n_steps(length: float, dt: float) -> int:
    """Steps of about dt over a window: round(length/dt), at least one
    unless the window is empty."""
    return max(1, int(round(length / dt))) if length > 0 else 0


def _midpoints(t_span: tuple[float, float], dt: float) -> tuple[np.ndarray, float]:
    """Midpoint times and step of the grid of _n_steps equal steps over t_span."""
    t0, t1 = t_span
    if not all(map(_finite, (t0, t1, dt))):
        raise ValueError(f"t_span and dt must be finite, got {t_span} and {dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    n = _n_steps(t1 - t0, dt)
    dt_eff = (t1 - t0) / max(n, 1)
    return t0 + (np.arange(n) + 0.5) * dt_eff, dt_eff


def _chunk(dim: int) -> int:
    """Steps or runs per batch: CHUNK_BYTES of complex dim x dim matrices, at
    least LANE."""
    return max(LANE, CHUNK_BYTES // (dim * dim * 16))


def _per_time(values, ts: np.ndarray, name: str) -> np.ndarray:
    """The values a callable `name` returned for the times ts, as one finite
    float per time.  A 0-d value is a constant and is broadcast to every
    time.  Any other shape but ts's is a ValueError, and so is a NaN, an
    infinity or an int past the float range."""
    try:
        c = np.asarray(values, dtype=float)
    except OverflowError:  # an int past the float range
        c = np.array(np.inf)
    if c.ndim == 0:
        c = np.full(ts.shape, c)
    elif c.shape != ts.shape:
        raise ValueError(f"{name} must return one value per time")
    if not np.isfinite(c).all():
        raise ValueError(f"{name} must return finite values")
    return c


def evolve_affine(
    d: np.ndarray,
    w: np.ndarray,
    scale_of_t,
    t_span: tuple[float, float],
    dt: float,
) -> np.ndarray:
    """Evolution under h(t) = d + c(t) w with Hermitian d, w and real c(t).

    Same midpoint integrator as evolve(), but each run of equal sampled c
    values is one exact exponential exp(-i h dt * run), so a pulse plateau
    is one run, and the runs' product (_run_product) has no loop over
    steps.  Real 2x2 d and w take no decomposition: each run is an SU(2)
    element times a phase, and the elements are folded pairwise with the
    phases summed (_su2_run_product).  Any other size is chained through
    the runs' eigenbases (_eigenbasis_product): with h = V diag(lam) V^H
    and Phi_k = exp(-i lam_k dt * run_k), U = V_K Phi_K (V_K^H V_{K-1})
    Phi_{K-1} ... (V_1^H V_0) Phi_0 V_0^H, where each link V_k^H V_{k-1}
    is a real matmul for real d and w.  Its runs are decomposed in batches
    of CHUNK_BYTES of matrices by _eigh: a real arrowhead by its secular
    equation, any other pair by np.linalg.eigh.  A batch's factors are
    multiplied out in lanes of LANE runs (see _lane_products) and the
    lanes folded pairwise.  scale_of_t must accept an array of times and
    return one finite value per time; a 0-d return, as from lambda t: 0.0,
    is broadcast to every time.  Any other return is a ValueError before
    any run is multiplied out.

    A mirrored window is folded over its first half.  It has real d and w,
    more than one run, run lengths equal to their reverse, and run values
    equal to their reverse within MIRROR_TOL * max|c|.  A real symmetric
    step exp(-i h dt) is its own transpose, so with R the product of the
    first half's runs and M the middle run (the identity for an even run
    count), U = R^T M R: half the runs.  That U is the exact
    product for the second half's values replaced by their mirror images,
    which moves h by at most MIRROR_TOL * max|c| * ||w||_2 and U by at most
    that times (t1 - t0) / 2, so it is within roundoff of the sampled-step
    product.  A symmetric trapezoid over its whole window, as in each
    exchange block of rwa_residual's exact side, is such a window; a lone
    ramp (values not mirrored) or plateau (one run) is not.

    The window is split into round((t1 - t0) / dt) equal steps (at least one
    if it is not empty), counted from the float difference t1 - t0.  Windows
    of equal length at different offsets can therefore get step counts one
    apart: at dt = 0.002, (0, 0.005) takes 2 steps and (0.1, 0.105) takes 3.
    The package's callers evolve ramps at offset 0 and plateaus from t_ramp;
    a plateau is one run at any step count.  Returns the (d, d) propagator,
    checked to be unitary.
    """
    for name, m in (("d", d), ("w", w)):
        defect = hermiticity_defect(np.asarray(m))
        if defect > HERMITIAN_TOL:
            raise ValueError(f"{name} is not Hermitian: max asymmetry {defect:.3e}")
    mids, dt_eff = _midpoints(t_span, dt)
    dim = d.shape[0]
    if not len(mids):
        return np.eye(dim, dtype=complex)
    c = _per_time(scale_of_t(mids), mids, "scale_of_t")

    real = np.abs(d.imag).max(initial=0.0) == 0.0 and np.abs(w.imag).max(initial=0.0) == 0.0
    d, w = (d.real, w.real) if real else (d, w)
    starts, lengths = _runs(np.append(True, c[1:] != c[:-1]))
    cs, half = c[starts], len(starts) // 2
    if (
        real
        and half
        and np.array_equal(lengths, lengths[::-1])
        and np.abs(cs - cs[::-1]).max() <= MIRROR_TOL * np.abs(cs).max()
    ):
        # a mirrored window: the second half's runs are the first half's in
        # reverse, and real symmetric steps make their product R^T
        r = _run_product(d, w, cs[:half], lengths[:half], dt_eff)
        middle = _run_product(d, w, cs[half:-half], lengths[half:-half], dt_eff)
        return _unitary(r.T @ middle @ r)
    return _unitary(_run_product(d, w, cs, lengths, dt_eff))


def _su2_mul(a1, b1, a0, b0):
    """First row of the SU(2) product [[a1, b1], [-conj(b1), conj(a1)]]
    [[a0, b0], [-conj(b0), conj(a0)]], which is again of that form."""
    return a1 * a0 - b1 * np.conj(b0), a1 * b0 + b1 * np.conj(a0)


def _su2_fold(a: np.ndarray, b: np.ndarray) -> tuple[complex, complex]:
    """Time-ordered product of the SU(2) steps [[a_k, b_k], [-conj(b_k),
    conj(a_k)]], later step on the left, as the first row (a, b) of the
    product.  The steps are padded with identities (1, 0) to a power of two,
    then each level multiplies neighbouring pairs (_su2_mul) in the same
    tree as _fold."""
    pad = (1 << (len(a) - 1).bit_length()) - len(a)
    a, b = np.concatenate((a, np.ones(pad))), np.concatenate((b, np.zeros(pad)))
    while len(a) > 1:
        a, b = _su2_mul(a[1::2], b[1::2], a[0::2], b[0::2])
    return a[0], b[0]


def _su2_run_product(
    d: np.ndarray, w: np.ndarray, cs: np.ndarray, lengths: np.ndarray, dt_eff: float
) -> np.ndarray:
    """_run_product of real 2x2 d and w, with no decomposition.  A run's h =
    d + c w = [[p, b], [b, q]] is m I + K with m = (p + q) / 2, h- = (p -
    q) / 2 and K = [[h-, b], [b, -h-]], whose square is r^2 I, r =
    hypot(h-, b).  Over the run's duration t, exp(-i h t) is therefore
    exp(-i m t) times the SU(2) element with first row (cos rt - i h- s,
    -i b s), s = sin(rt) / r (t at r = 0).  The rows are folded by
    _su2_fold, a batch of _chunk(2) runs at a time, and the phases m t are
    summed, not multiplied out, so that they add no roundoff per run."""
    a, b, phase = 1.0 + 0j, 0j, 0.0
    chunk = _chunk(2)
    for lo in range(0, len(cs), chunk):
        c, t = cs[lo : lo + chunk], dt_eff * lengths[lo : lo + chunk]
        p, off, q = (d[i, j] + c * w[i, j] for i, j in ((0, 0), (0, 1), (1, 1)))
        half = (p - q) / 2
        r = np.hypot(half, off)
        s = np.where(r > 0, np.sin(r * t) / np.where(r > 0, r, 1.0), t)
        a, b = _su2_mul(*_su2_fold(np.cos(r * t) - 1j * half * s, -1j * off * s), a, b)
        phase += np.sum((p + q) / 2 * t)
    return np.exp(-1j * phase) * np.array([[a, b], [-np.conj(b), np.conj(a)]])


def _arrowhead(d: np.ndarray, w: np.ndarray) -> tuple[int, np.ndarray] | None:
    """The centre c and the leaves (the other indices, by ascending d_ii) of
    real d and w of size n >= 3 whose stack d + c w is an arrowhead with
    fixed leaf diagonals: d diagonal, every off-diagonal nonzero of w in
    row and column c, w zero on the leaves' diagonal, and the leaves'
    diagonals distinct.  None for any other pair."""
    n = d.shape[0]
    if n < 3 or not (np.isrealobj(d) and np.isrealobj(w)):
        return None
    coupled = (w != 0) & ~np.eye(n, dtype=bool)
    c = int(np.argmax(coupled.sum(axis=1)))
    if np.count_nonzero(d - np.diag(d.diagonal())) or coupled.sum() != 2 * coupled[c].sum():
        return None
    leaves = np.delete(np.arange(n), c)
    leaves = leaves[np.argsort(d.diagonal()[leaves])]
    delta = d.diagonal()[leaves]
    if w.diagonal()[leaves].any() or np.any(delta[1:] == delta[:-1]):
        return None
    return c, leaves


def _secular_roots(
    a: np.ndarray, z2: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots lam = sigma + tau of f(lam) = lam - a - sum_i z2_i / (lam -
    delta_i) for a stack of k centres a, (m, k) squared couplings z2 and
    ascending leaf diagonals delta, as (m + 1, k) arrays sigma and tau, and
    whether each tau converged.

    There is one root below delta_1, one between each two neighbouring
    leaves and one above delta_m.  f rises from -inf to +inf between two
    poles, so its sign at the midpoint tells the nearer pole sigma of each
    inner root; an outer root has one.  Each root is found as tau = lam -
    sigma, so that lam - sigma and every lam - delta_i = tau - (delta_i -
    sigma) keep their relative accuracy.  A step takes the root on the
    known side of sigma of tau^2 + (sigma - a - S(tau)) tau - z2_sigma = 0,
    S(tau) = sum over the other leaves of z2_i / (tau - (delta_i - sigma)),
    by the formula without cancellation, and keeps it within half the
    interval: at most SECULAR_ITERATIONS steps, until tau moves by at most
    2 eps |tau|."""
    m, k = z2.shape
    n = m + 1
    # root j lies between lo[j] and hi[j]
    lo, hi = np.append(-np.inf, delta), np.append(delta, np.inf)
    left = np.ones((n, k), dtype=bool)  # nearer its lower pole, tau > 0
    left[0] = False
    for j in range(1, m):
        mid = (lo[j] + hi[j]) / 2
        left[j] = mid - a - np.sum(z2 / (mid - delta)[:, None], axis=0) > 0
    # each root's pole is the leaf below it (lower) or above it (upper);
    # with the lower pole tau > 0, with the upper one tau < 0, and both are
    # handled as u = |tau| > 0
    rows = np.arange(n)
    lower, upper = np.maximum(rows - 1, 0), np.minimum(rows, m - 1)

    def choose(if_lower, if_upper):
        return np.where(left, if_lower, if_upper)

    sigma = choose(delta[lower, None], delta[upper, None])
    z2_pole = choose(z2[lower], z2[upper])
    bound = choose((hi - delta[lower])[:, None], (delta[upper] - lo)[:, None]) / 2
    # the other leaves, in m - 1 slots, as z2_i / 2 and shift = +-(delta_i -
    # sigma), signed as tau, so that u - shift = +-(tau - (delta_i - sigma))
    weight, shift = [], []
    for r in range(m - 1):
        beside_lower, beside_upper = r + (r >= lower), r + (r >= upper)
        weight.append(choose(z2[beside_lower], z2[beside_upper]) / 2)
        shift.append(choose((delta[beside_lower] - delta[lower])[:, None],
                            (delta[upper] - delta[beside_upper])[:, None]))
    # in u, the quadratic is u^2 + 2 h u - z2_sigma = 0 with h = +-(sigma -
    # a - S(tau)) / 2, and its positive root is z2_sigma / q if h >= 0,
    # else q, with q = |h| + sqrt(h^2 + z2_sigma)
    half_base = choose(sigma - a, a - sigma) / 2
    u = np.zeros((n, k))
    for _ in range(SECULAR_ITERATIONS):
        h = half_base.copy()
        for wr, sr in zip(weight, shift):
            h -= wr / (u - sr)
        q = np.abs(h) + np.sqrt(h * h + z2_pole)
        new = np.minimum(np.where(h >= 0, z2_pole / q, q), bound)
        converged = np.abs(new - u) <= 2 * _EPS * new
        u = new
        if converged.all():
            break
    return sigma, choose(u, -u), converged


def _secular_eigh(
    d: np.ndarray, w: np.ndarray, cs: np.ndarray, c: int, leaves: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (ascending), eigenvectors and a converged flag for each
    arrowhead d + cs[k] w (see _arrowhead), whose couplings z_i = cs[k]
    w[c, leaf i] must have normal squares, by the arrowhead secular
    equation (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995).  The
    eigenvalues are its roots (_secular_roots), and the eigenvector of lam
    is (1 at the centre, z_i / (lam - delta_i) at leaf i), normalized.

    A matrix counts as converged when its every root has, its centre row's
    residual is within 2 n eps max|h| and V^T V is within 2 n eps of I.
    The others' values are not to be used: _eigh sends them to LAPACK."""
    n, k = d.shape[0], len(cs)
    delta = d.diagonal()[leaves]
    a = d[c, c] + cs * w[c, c]
    z = w[c, leaves][:, None] * cs
    with np.errstate(all="ignore"):
        sigma, tau, converged = _secular_roots(a, z * z, delta)
        lam = sigma + tau
        # v[row, j] for the eigenvector of lam_j: 1 at the centre and x_ij =
        # z_i / (lam_j - delta_i) at leaf i, over the norm
        x = delta[:, None, None] - sigma
        np.subtract(tau, x, out=x)
        np.divide(z[:, None, :], x, out=x)
        norm = np.sqrt(1.0 + sum(xi * xi for xi in x))
        v = np.empty((n, n, k))
        v[c], v[leaves] = 1.0 / norm, np.divide(x, norm, out=x)
        del x
        size = np.maximum(np.maximum(np.abs(a), np.abs(delta).max()), np.abs(z).max(axis=0))
        residual = (a - lam) * v[c] + sum(zi * v[leaf] for zi, leaf in zip(z, leaves))
        ok = converged.all(axis=0) & np.all(np.abs(residual) <= 2 * n * _EPS * size, axis=0)
        for i in range(n):
            for j in range(i + 1):
                ok &= np.abs(np.sum(v[:, i] * v[:, j], axis=0) - (i == j)) <= 2 * n * _EPS
    return lam.T.copy(), v.transpose(2, 0, 1).copy(), ok


def _eigh(d: np.ndarray, w: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the stack of Hermitian
    d + cs[k] w, as np.linalg.eigh gives them.  A real arrowhead
    (_arrowhead) is solved by its secular equation (_secular_eigh),
    SECULAR_BATCH matrices at a time, with no stack built.  Its matrices
    with a coupling whose square is not a normal float, and those that do
    not converge, go to np.linalg.eigh, as does every other pair."""
    arrow = _arrowhead(d, w)
    if arrow is None:
        return np.linalg.eigh(d[None, :, :] + cs[:, None, None] * w[None, :, :])
    n = d.shape[0]
    lam, v = np.empty((len(cs), n)), np.empty((len(cs), n, n))
    with np.errstate(over="ignore"):
        z2 = (cs[:, None] * w[arrow[0], arrow[1]]) ** 2
    solved = np.all((z2 >= _TINY) & (z2 <= _MAX), axis=1)
    for lo in range(0, len(cs), SECULAR_BATCH):
        batch = lo + np.flatnonzero(solved[lo : lo + SECULAR_BATCH])
        lam[batch], v[batch], solved[batch] = _secular_eigh(d, w, cs[batch], *arrow)
    rest = ~solved
    if rest.any():
        lam[rest], v[rest] = np.linalg.eigh(d[None] + cs[rest, None, None] * w[None])
    return lam, v


def _run_product(
    d: np.ndarray, w: np.ndarray, cs: np.ndarray, lengths: np.ndarray, dt_eff: float
) -> np.ndarray:
    """Product of the run exponentials exp(-i (d + cs[k] w) dt_eff lengths[k]),
    the earliest on the right: by _su2_run_product for real 2x2 d and w,
    by _eigenbasis_product for any other; no runs give the identity."""
    if d.shape[0] == 2 and np.isrealobj(d) and np.isrealobj(w):
        return _su2_run_product(d, w, cs, lengths, dt_eff)
    return _eigenbasis_product(d, w, cs, lengths, dt_eff)


def _eigenbasis_product(
    d: np.ndarray, w: np.ndarray, cs: np.ndarray, lengths: np.ndarray, dt_eff: float
) -> np.ndarray:
    """_run_product chained through the runs' eigenbases (_eigh) in batches
    of _chunk runs (see evolve_affine)."""
    dim = d.shape[0]
    chunk = _chunk(dim)
    # u: the product so far, in the eigenbasis v_last of its last run
    u, v_last = np.eye(dim, dtype=complex), np.eye(dim, dtype=d.dtype)
    for lo in range(0, len(cs), chunk):
        lam, v = _eigh(d, w, cs[lo : lo + chunk])
        vh = v.conj().transpose(0, 2, 1)
        # link k takes run k - 1's eigenbasis to run k's, a real matmul for
        # real d and w
        links = np.empty_like(v)
        links[0] = vh[0] @ v_last
        np.matmul(vh[1:], v[:-1], out=links[1:])
        phases = np.exp(-1j * lam * (dt_eff * lengths[lo : lo + chunk])[:, None])[:, :, None]
        u = _fold(_lane_products(links, phases)) @ u
        v_last = v[-1]
    return v_last @ u


def _sampled(h_of_t, ts: np.ndarray, dim: int | None = None) -> np.ndarray:
    """h_of_t(ts) as a complex (len(ts), dim, dim) stack; any other shape
    is rejected."""
    hs = np.asarray(h_of_t(ts), dtype=complex)
    if dim is None and hs.ndim == 3:
        dim = hs.shape[-1]
    if hs.shape != (len(ts), dim, dim):
        raise ValueError(
            f"h_of_t must return a (k, d, d) stack for k = {len(ts)} times, got shape {hs.shape}"
        )
    return hs


def evolve(h_of_t, t_span: tuple[float, float], dt: float) -> np.ndarray:
    """Time-ordered evolution under a time-dependent Hermitian h(t).

    The package neither exports nor calls it: it is the tests' step-by-step
    reference (model imports it only for bench/tracing.py's wrapper).
    h_of_t maps an array of k times in ns to a (k, d, d) stack of
    Hamiltonians in rad/ns, as evolve_affine's scale_of_t maps times to
    values.  Steps are midpoint-sampled: U = prod_k exp(-i h(t_k + dt/2) dt),
    earliest step applied first, and taken in chunks of _chunk(d) steps,
    with d from one sample of h at t_span[0]; a complex chunk is
    exponentiated in two halves.  Non-Hermitian samples are
    rejected with the max asymmetry.  Returns the (d, d) propagator, checked
    to be unitary.
    """
    mids, dt_eff = _midpoints(t_span, dt)
    # one sample at the window's start gives h's size, and so the chunk
    dim = _sampled(h_of_t, np.array([t_span[0]])).shape[-1]
    u = np.eye(dim, dtype=complex)
    chunk = _chunk(dim)
    for lo in range(0, len(mids), chunk):
        ts = mids[lo : lo + chunk]
        hs = _sampled(h_of_t, ts, dim)
        defects = np.abs(hs - hs.conj().transpose(0, 2, 1)).reshape(len(ts), -1).max(axis=1)
        worst = int(np.argmax(defects))
        if defects[worst] > HERMITIAN_TOL:
            raise ValueError(
                f"h(t) is not Hermitian at t = {ts[worst]:.6f} ns: "
                f"max |h - h^dagger| = {defects[worst]:.3e}"
            )
        # a run of identical steps (a pulse plateau) is one exponential
        starts, lengths = _runs(np.append(True, np.any(hs[1:] != hs[:-1], axis=(1, 2))))
        # one step per run, as floats when h is real: the sampled stack is
        # dropped before the step unitaries are built
        hs = (hs if hs.imag.any() else hs.real)[starts]
        # exponentiating a complex h holds four complex stacks (h, V, V^H
        # and V Phi), a real one three stacks' worth: take a complex chunk
        # in halves to stay within the real chunk's memory
        part = len(hs) if np.isrealobj(hs) else -(-len(hs) // 2)
        for i in range(0, len(hs), part):
            u = _fold(_batch_step_unitaries(hs[i : i + part], dt_eff * lengths[i : i + part])) @ u
    return _unitary(u)
