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
    values is one exponential exp(-i h dt * run) from one eigendecomposition
    h = V diag(lam) V^H; a pulse plateau then costs one eigendecomposition
    and is exact.  The run unitaries are never built: with Phi_k =
    exp(-i lam_k dt * run_k), the product is taken in the eigenbases,
    U = V_K Phi_K (V_K^H V_{K-1}) Phi_{K-1} ... (V_1^H V_0) Phi_0 V_0^H,
    where each link V_k^H V_{k-1} is a real matmul for real d and w.  Runs
    are decomposed in batches of CHUNK_BYTES of matrices, with no loop over
    steps, by _eigh: in closed form for real 2x2 or diagonal d and w, by
    np.linalg.eigh otherwise.  A batch's factors are multiplied out in
    lanes of LANE runs (see _lane_products) and the lanes folded pairwise.
    scale_of_t must accept an array of times and return one finite value
    per time; a 0-d return, as from lambda t: 0.0, is broadcast to every
    time.  Any other return is a ValueError before any decomposition.

    A mirrored window is folded over its first half.  It has real d and w,
    more than one run, run lengths equal to their reverse, and run values
    equal to their reverse within MIRROR_TOL * max|c|.  A real symmetric
    step exp(-i h dt) is its own transpose, so with R the product of the
    first half's runs and M the middle run (the identity for an even run
    count), U = R^T M R: half the eigendecompositions.  That U is the exact
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


def _eigh(d: np.ndarray, w: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the stack of Hermitian d + cs[k] w,
    as np.linalg.eigh gives them, in closed form for real 2x2 or diagonal
    d and w, with no stack built.  A 2x2 [[a, b], [b, c]] is m I +
    r [[cos 2t, sin 2t], [sin 2t, -cos 2t]] with m = (a + c) / 2,
    r = hypot((a - c) / 2, b) and 2t = atan2(b, (a - c) / 2), so lam =
    m -+ r (ascending) with eigenvectors (-sin t, cos t) and (cos t, sin t).
    A diagonal matrix keeps its diagonal as lam, in its own order, with
    V = I.  Any other pair goes to np.linalg.eigh."""
    n = d.shape[0]
    if np.isrealobj(d) and np.isrealobj(w):
        if n == 2:
            a, b, c = (d[i, j] + cs * w[i, j] for i, j in ((0, 0), (0, 1), (1, 1)))
            m, half = (a + c) / 2, (a - c) / 2
            r, t = np.hypot(half, b), np.arctan2(b, half) / 2
            cos, sin = np.cos(t), np.sin(t)
            v = np.array(((-sin, cos), (cos, sin))).transpose(2, 0, 1)
            return np.stack((m - r, m + r), axis=1), v
        off = ~np.eye(n, dtype=bool)
        if not (d[off].any() or w[off].any()):
            lam = d.diagonal() + cs[:, None] * w.diagonal()
            return lam, np.repeat(np.eye(n)[None], len(cs), axis=0)
    return np.linalg.eigh(d[None, :, :] + cs[:, None, None] * w[None, :, :])


def _run_product(
    d: np.ndarray, w: np.ndarray, cs: np.ndarray, lengths: np.ndarray, dt_eff: float
) -> np.ndarray:
    """Product of the run exponentials exp(-i (d + cs[k] w) dt_eff lengths[k]),
    the earliest on the right, chained through the runs' eigenbases (_eigh)
    in batches of _chunk runs (see evolve_affine); no runs give the
    identity."""
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
