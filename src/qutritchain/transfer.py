"""Two-qutrit state transfer: evolution under the coupling pulse, the
projected average fidelity against the swap target, parameter optimization,
phase compensation, and the RWA residual of the pair.

The computational subspace is {|00>, |01>, |10>, |02>, |20>} (d = 5); the
transfer target swaps 01<->10 and 02<->20.  Since residual phases are
removed exactly by a compensation gate, the fidelity discounts phases by
taking the element-wise modulus of the projected propagator.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .evolution import (
    _finite,
    _midpoints,
    _n_steps,
    _per_time,
    _runs,
    _su2_element,
    _su2_fold,
    _su2_mul,
    _unitary,
    evolve_affine,
)
from .model import (
    DELTA_RANGE_MHZ,
    MHZ_TO_RAD_NS,
    _check_eta,
    basis_index,
    coupling_operator,
    chain_hamiltonian,
    x_op,
)
from .pulse import TrapezoidPulse, pulse_area

COMP_LABELS = ("00", "01", "10", "02", "20")
COMP_INDICES = tuple(basis_index(s) for s in COMP_LABELS)
_COMP_GRID = np.ix_(COMP_INDICES, COMP_INDICES)
# basis indices of the pair states the closed forms address
_I01, _I02, _I10, _I11, _I12, _I20, _I21, _I22 = (
    basis_index(s) for s in ("01", "02", "10", "11", "12", "20", "21", "22")
)

# Swap target on the computational subspace, rows/cols ordered as COMP_LABELS.
U_TARGET = np.array(
    [
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ],
    dtype=complex,
)

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# optimize_pulse's stop rule: a sweep moving neither parameter by PARAM_TOL
# (MHz, ns), or MAX_SWEEPS sweeps, which is where Table 1's optimum stops
PARAM_TOL = 1e-3
MAX_SWEEPS = 8


_PAIR_W = coupling_operator(0, 2)  # the pair's W in H(g) = D + g W, which no eta changes
_PAIR_W.flags.writeable = False


class _Pair(namedtuple("_Pair", "area p q t")):
    """A propagator of the resonant pair, H(g) = D + g W with a coupling
    g(t), by excitation sector.

    D + g W conserves excitation, and with s, a = (|02> +- |20>)/sqrt2 every
    sector block is 1x1 or 2x2 (angular e = eta, g = g(t)):
    {00}: 0; {22}: -2e; {a}: -e; {01,10}: g sx; {12,21}: -e + 2g sx;
    {s,11}: [[-e, 2g], [2g, 0]].  The sx blocks at different times commute,
    so the {01,10} block is exp(-i area sx) (2 area for {12,21}), with area
    the integral of g in rad.  Over a duration of t ns the {a} phase is
    exp(i e t), and the {s,11} block is exp(i e t/2) times the SU(2)
    element with first row (p, q), the one time-ordered part.  Each field
    may be an array, one element per sample.  The readouts take e, and only
    they write the phases.
    """

    __slots__ = ()

    @classmethod
    def ramp(cls, values: np.ndarray, eta: float, dt: float) -> _Pair:
        """The time-ordered product of the steps exp(-i H(g_k) dt), one per
        coupling value g_k (MHz) in values: area = sum_k g_k dt,
        t = len(values) dt, and (p, q) the fold (_su2_fold) of the steps'
        SU(2) elements, each step being a plateau.  ValueError for a bad
        eta (model._check_eta)."""
        _check_eta(eta)
        steps = cls.plateau(eta, values, dt)
        p, q = _su2_fold(steps.p, steps.q)
        return cls(np.sum(values * MHZ_TO_RAD_NS) * dt, complex(p), complex(q), dt * len(values))

    @classmethod
    def plateau(cls, eta: float, g, s) -> _Pair:
        """Exact exp(-i H(g) s) at the constant coupling g (MHz) for s ns,
        with area g s; g and s may be arrays.  The {s,11} block is
        exp(i e s/2) exp(-i K s) with K = [[-e/2, b], [b, e/2]], b = 2g,
        and (p, q) is K's SU(2) element (evolution._su2_element, the one
        element that evolve_affine's 2x2 runs also take)."""
        e, b = eta * MHZ_TO_RAD_NS, g * (2.0 * MHZ_TO_RAD_NS)
        return cls(b * (0.5 * s), *_su2_element(-0.5 * e, b, s), s)

    def after(self, earlier: _Pair) -> _Pair:
        """The product self @ earlier: earlier, then self."""
        p, q = _su2_mul(self.p, self.q, earlier.p, earlier.q)
        return _Pair(self.area + earlier.area, p, q, self.t + earlier.t)

    def transpose(self) -> _Pair:
        """The transposed propagator, whose {s,11} element is (p, -conj(q))."""
        return self._replace(q=-np.conj(self.q))

    def conj(self) -> _Pair:
        """The complex conjugate, which is the inverse of the transpose."""
        return _Pair(-self.area, np.conj(self.p), np.conj(self.q), -self.t)

    def p01(self):
        """|<01|U|10>|^2 = sin^2 area."""
        return np.sin(self.area) ** 2

    def p02(self, e: float):
        """|<02|U|20>|^2 = |exp(i e t/2) p - exp(i e t)|^2 / 4."""
        return 0.25 * np.abs(self.p - np.exp(0.5j * e * self.t)) ** 2

    def fidelity(self, e: float) -> float:
        """qst_fidelity of the propagator, for scalar fields.

        It meets the computational subspace in three sectors: {00} gives 1,
        {01,10} is exp(-i area sx), and {02,20} is [[m + h, m - h], [m - h,
        m + h]] / 2 with h = exp(i e t) and m = sqrt(h) p, so |m +- h| =
        |p +- sqrt(h)|.  With x, y = |p +- sqrt(h)| / 2, x^2 + y^2 =
        (1 + |p|^2) / 2, and qst_fidelity's trace terms are
        3 + 2 (x^2 + y^2) = 4 + |p|^2 and (1 + 2 |sin area| + 2 y)^2.  F is
        their sum over d (d + 1) = 30.
        """
        y = 0.5 * abs(self.p - np.exp(0.5j * e * self.t))
        sin_a = abs(np.sin(self.area))
        return float((4.0 + abs(self.p) ** 2 + (1.0 + 2.0 * sin_a + 2.0 * y) ** 2) / 30.0)

    def matrix(self, e: float) -> np.ndarray:
        """The 9x9 propagator, for scalar fields."""
        half, ph = np.exp(0.5j * e * self.t), np.exp(1j * e * self.t)
        r = np.eye(9, dtype=complex)
        r[_I01, _I01] = r[_I10, _I10] = np.cos(self.area)
        r[_I01, _I10] = r[_I10, _I01] = -1j * np.sin(self.area)
        r[_I12, _I12] = r[_I21, _I21] = ph * np.cos(2.0 * self.area)
        r[_I12, _I21] = r[_I21, _I12] = -1j * ph * np.sin(2.0 * self.area)
        r[_I22, _I22] = ph * ph
        r[_I02, _I02] = r[_I20, _I20] = 0.5 * (half * self.p + ph)
        r[_I02, _I20] = r[_I20, _I02] = 0.5 * (half * self.p - ph)
        r[_I02, _I11] = r[_I20, _I11] = half * self.q / np.sqrt(2.0)
        r[_I11, _I02] = r[_I11, _I20] = -half * np.conj(self.q) / np.sqrt(2.0)
        r[_I11, _I11] = half * np.conj(self.p)
        return r


# A pair of equal qutrits is symmetric under swapping them, so its
# Hamiltonians are block diagonal in the real basis |jk> + sign |kj>, one
# column per (j, k, sign) below (s, a: exchange-symmetric, -antisymmetric):
# D + g W in {11, s02} and 1x1 blocks, D - omega N + g XX in {00, 11, 22,
# s02}, {a02}, {s01, s12} and {a01, a12}
_EXCHANGE_STATES = ((0, 0, 1), (1, 1, 1), (2, 2, 1), (0, 2, 1), (0, 2, -1),
                    (0, 1, 1), (1, 2, 1), (0, 1, -1), (1, 2, -1))


def _exchange_basis() -> tuple[np.ndarray, np.ndarray]:
    """The unnormalized columns |jk> + sign |kj> of _EXCHANGE_STATES, whose
    entries 0, +-1 and 2 are exact, and the factors 1 / (norm_i norm_j)
    that normalize a matrix taken through them, from the exact squared
    norms: 1/2, 1/4 or 1/sqrt(8)."""
    b = np.zeros((9, 9))
    for col, (j, k, sign) in enumerate(_EXCHANGE_STATES):
        b[3 * j + k, col] += 1.0
        b[3 * k + j, col] += sign
    squared = np.sum(b * b, axis=0)
    return b, 1.0 / np.sqrt(np.outer(squared, squared))


_EXCHANGE, _EXCHANGE_SCALE = _exchange_basis()


def _evolve_exchange_blocks(d, w, scale_of_t, t_span, dt: float) -> np.ndarray:
    """evolve_affine of a qutrit pair's d + c(t) w (real symmetric 9x9),
    block by block in the exchange basis, rotated back to |jk>.

    A matrix m is taken to the basis as (B^T m B) * _EXCHANGE_SCALE, B =
    _EXCHANGE.  Each entry of B^T m and of (B^T m) B is a sum of at most
    two nonzero exact terms, so an entry that exchange symmetry zeroes is
    exactly 0.  The blocks are the sets of states that w's nonzero
    off-diagonal entries connect, each evolved by evolve_affine (a 2x2 by
    its SU(2) fold, an arrowhead by its secular equation).  A state that w
    connects to no other only turns by its phase exp(-i (d_ii T + w_ii A))
    over the grid's duration T, with A = sum_k c_k dt_eff from the samples
    that scale_of_t returns on evolve_affine's grid, checked as it checks
    them.  d must be diagonal in the exchange basis: an off-diagonal
    entry, such as those of unequal etas, would couple two blocks or two
    one-state blocks, and is a ValueError.
    """
    d_x, w_x = ((_EXCHANGE.T @ m @ _EXCHANGE) * _EXCHANGE_SCALE for m in (d, w))
    off = np.abs(d_x - np.diag(d_x.diagonal())).max()
    if off:
        raise ValueError(f"d is not diagonal in the exchange basis: max off-diagonal {off:.3e}")
    mids, dt_eff = _midpoints(t_span, dt)
    c = _per_time(scale_of_t(mids), mids, "scale_of_t")
    reach = (w_x != 0) | np.eye(9, dtype=bool)
    for _ in range(3):  # paths of up to 8 steps connect any two of 9 states
        reach = (reach.astype(int) @ reach) > 0
    single = reach.sum(axis=1) == 1
    angle = d_x.diagonal() * (dt_eff * len(c)) + w_x.diagonal() * (dt_eff * np.sum(c))
    u = np.diag(np.where(single, np.exp(-1j * angle), 0.0))
    for block in sorted({tuple(np.flatnonzero(row)) for row in reach[~single]}):
        grid = np.ix_(block, block)
        u[grid] = evolve_affine(np.diag(d_x.diagonal()[list(block)]), w_x[grid],
                                lambda ts: c, t_span, dt)
    return _EXCHANGE @ (u * _EXCHANGE_SCALE) @ _EXCHANGE.T


def rwa_residual(
    eta: float,
    g_of_t: Callable[[np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    omega: float,
    dt: float = 0.001,
) -> float:
    """Operator-norm gap between exact and RWA propagators of a qutrit pair.

    Both qutrits share the clock omega (MHz) and the same resonant coupling
    schedule; the gap is O(g / omega) from the dropped terms oscillating at
    omega_1 + omega_2.  Both sides are midpoint products on one grid over
    t_span, in the frame where h = D - omega N + g(t) V is affine in g, with
    N the total excitation number and V = X X (exact) or W = (X X + Y Y)/2
    (RWA).  That frame differs from the rotating frame by exp(-i omega N t)
    on both sides, which leaves the 2-norm of the gap unchanged.

    RWA side: N commutes with D and W, so each step is exp(i omega N dt)
    exp(-i (D + g W) dt), and the product is exp(i omega N T) times the
    pair's rotating-frame product, exact on the grid.  Each run of equal
    samples is one _Pair.plateau and the runs are folded by _su2_fold: no
    eigendecomposition.  Exact side: in the exchange basis, h is block
    diagonal (_evolve_exchange_blocks); {a02}, which XX does not touch, is
    a constant phase, and the 4x4 {00, 11, 22, s02} and the 2x2 {s01, s12}
    and {a01, a12} run on evolve_affine, which folds a mirror-symmetric
    window, such as a trapezoid's (0, t_total), over its first half.  The
    2x2 blocks are SU(2) folds.  The 4x4 is an arrowhead, in which XX
    couples 11 to each of the other three and to nothing else, and its
    runs are decomposed by its secular equation; at omega = -eta / 2 its
    three other diagonals are equal, and they go to LAPACK.  No 9x9 matrix
    is decomposed, and each side is checked to be unitary.

    g_of_t (MHz) is called once, on the array of midpoint times, and
    follows evolve_affine's rule for scale_of_t: one finite value per time,
    or a 0-d constant broadcast to every time.  A non-finite omega, a bad
    eta or a bad g_of_t return is a ValueError before any step.
    """
    if not _finite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    clock = omega * MHZ_TO_RAD_NS
    n_total = np.add.outer(np.arange(3), np.arange(3)).ravel()
    d_lab = chain_hamiltonian(eta, [0.0]).diagonal().real - clock * n_total
    mids, dt_eff = _midpoints(t_span, dt)
    g = _per_time(g_of_t(mids), mids, "g_of_t")
    if not len(g):
        return 0.0  # both sides are the identity
    t_total = dt_eff * len(g)

    starts, lengths = _runs(np.append(True, g[1:] != g[:-1]))
    runs = _Pair.plateau(eta, g[starts], dt_eff * lengths)
    pair = _Pair(np.sum(runs.area), *_su2_fold(runs.p, runs.q), t_total)
    u_rwa = np.exp(1j * clock * n_total * t_total)[:, None] * pair.matrix(eta * MHZ_TO_RAD_NS)

    # evolve_affine samples the same midpoint grid, so g is not sampled again
    g_rad = g * MHZ_TO_RAD_NS
    xx = np.kron(x_op(), x_op()).real
    u_exact = _evolve_exchange_blocks(np.diag(d_lab), xx, lambda ts: g_rad, t_span, dt)
    return float(np.linalg.norm(_unitary(u_exact) - _unitary(u_rwa), ord=2))


def _trapezoid_propagator(d, w, pulse: TrapezoidPulse, r, dt: float) -> np.ndarray:
    """U = R^T P R of pulse under D + g(t) W (real symmetric d, w), checked
    to be unitary, for the caller's up ramp r on its own grid of
    round(t_ramp/dt) midpoint steps.

    P is the plateau at the constant coupling amp_max, a 0-d scale that
    evolve_affine makes one exact exponential (bench/tracing.py counts its
    steps via transfer.evolve_affine).  The down ramp is the up ramp
    reversed in time, a product of the same step unitaries in reverse
    order, and each step exp(-i H dt) of the real symmetric H is a
    symmetric matrix, so the down ramp is exactly R^T.
    """
    g_plateau = pulse.amp_max * MHZ_TO_RAD_NS
    p = evolve_affine(d, w, lambda ts: g_plateau, pulse.plateau_window, dt)
    return _unitary(r.T @ p @ r)


def evolve_transfer(g_pulse: TrapezoidPulse, eta: float, dt: float = 0.001) -> np.ndarray:
    """9x9 propagator for the resonant pair (Delta1 = Delta2 = 0) driven by
    the coupling pulse over [0, t_total], checked to be unitary.

    Built as U = R^T P R (_trapezoid_propagator), with the up ramp R on
    evolve_affine's midpoint grid over g_pulse.ramp_window, in closed form
    by excitation sector: _Pair.ramp(...).matrix(e), no eigendecomposition.
    """
    mids, dt_ramp = _midpoints(g_pulse.ramp_window, dt)
    r = _Pair.ramp(g_pulse.value(mids), eta, dt_ramp).matrix(eta * MHZ_TO_RAD_NS)
    return _trapezoid_propagator(chain_hamiltonian(eta, [0.0]), _PAIR_W, g_pulse, r, dt)


def population_series(
    g_pulse: TrapezoidPulse, eta: float, dt: float = 0.001, dt_out: float = 0.05
):
    """Transfer populations p01(t) = |<01|U(t)|10>|^2 and p02(t) = |<02|U(t)|20>|^2
    from |10> and |20>, sampled about every dt_out on evolve_transfer's grid.
    Returns (t, p01, p02) with t strictly increasing from 0 to t_total; the
    last sample is evolve_transfer's U = R^T P R.

    The samples U(t) are one array-valued _Pair, read out by its p01 and p02.
    Up ramp: the prefixes Q_m (first m steps) of R, each window's _Pair.ramp
    composed after the prefix before it.  Plateau: P(s) R at even offsets s,
    with P(s) the exact _Pair.plateau.  Down ramp: its last m steps are
    Q_m^T, by the step symmetry that makes it R^T, so m steps before the end
    U(t) = conj(Q_m) U.  The sample times, and the phases read from them,
    come from step indices.  No 9x9 matrix and no eigendecomposition.
    ValueError unless dt_out is finite and positive, or for a bad eta.
    """
    if not (_finite(dt_out) and dt_out > 0):
        raise ValueError(f"dt_out must be finite and positive, got {dt_out}")
    t_ramp, t_plateau = g_pulse.t_ramp, g_pulse.t_total - 2.0 * g_pulse.t_ramp
    mids, dt_ramp = _midpoints(g_pulse.ramp_window, dt)
    values, n_ramp = g_pulse.value(mids), len(mids)
    # a stride of n_ramp steps or more samples the ramp at its ends only;
    # capping it first keeps a huge dt_out / dt_ramp from overflowing int
    stride = max(1, int(round(min(dt_out / dt_ramp, n_ramp)))) if n_ramp else 1
    edges = [*range(0, n_ramp, stride), n_ramp]
    # Q_m for m in edges, from the identity Q_0; the last is R
    prefixes = [_Pair.ramp(values[:0], eta, dt_ramp)]
    for m0, m1 in zip(edges, edges[1:]):
        prefixes.append(_Pair.ramp(values[m0:m1], eta, dt_ramp).after(prefixes[-1]))
    prefix, r = _Pair(*map(np.array, zip(*prefixes))), prefixes[-1]

    n_plateau = _n_steps(t_plateau, max(dt_out, dt))
    offsets = t_plateau * np.arange(n_plateau + 1) / max(n_plateau, 1)
    plateau = _Pair.plateau(eta, g_pulse.amp_max, offsets).after(r)
    u = r.transpose().after(_Pair.plateau(eta, g_pulse.amp_max, t_plateau).after(r))
    up = _Pair(*(f[:-1] for f in prefix))
    down = _Pair(*(f[::-1] for f in up)).conj().after(u)

    m = np.array(edges[:-1], dtype=float)
    ts = np.concatenate([m * dt_ramp, t_ramp + offsets, g_pulse.t_total - m[::-1] * dt_ramp])
    samples = _Pair(*map(np.concatenate, zip(up, plateau, down)))._replace(t=ts)
    # a ramp below the resolution of t_total puts the plateau's last sample
    # at the time of U; keep each sample only before the next one
    keep = np.append(ts[1:] > ts[:-1], True)
    return ts[keep], samples.p01()[keep], samples.p02(eta * MHZ_TO_RAD_NS)[keep]


def qst_fidelity(u) -> float:
    """Average-fidelity metric of a 9x9 propagator against the swap target.

    The propagator is projected onto the 5-dim computational subspace, the
    projected block is replaced by its element-wise modulus, and
    F = [Tr(M M^dag) + |Tr(target^dag M)|^2] / (d (d + 1)) with d = 5.
    Leakage out of the subspace reduces the trace term.
    """
    m = np.asarray(u)
    if m.shape != (9, 9):
        raise ValueError("expected a 9x9 two-qutrit propagator")
    block = np.abs(m[_COMP_GRID])
    d = len(COMP_INDICES)
    tr1 = float(np.trace(block @ block.T))
    tr2 = abs(np.trace(U_TARGET.conj().T @ block)) ** 2
    return (tr1 + tr2) / (d * (d + 1))


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one two-qutrit transfer evaluation."""

    g_max: float        # MHz
    t_qst: float        # ns
    fidelity: float
    leakage_11: float   # |<11|U|20>|^2
    phase_1: float      # arg <01|U|10>, rad
    phase_2: float      # arg <02|U|20>, rad

    def to_dict(self) -> dict[str, float]:
        return {
            "g_max_mhz": self.g_max,
            "t_qst_ns": self.t_qst,
            "fidelity": self.fidelity,
            "leakage_11": self.leakage_11,
            "phase_1_rad": self.phase_1,
            "phase_2_rad": self.phase_2,
        }


def measure_report(u: np.ndarray, g_max: float, t_qst: float) -> TransferReport:
    phase_1, phase_2 = measure_compensation(u)
    leak = abs(u[_I11, _I20]) ** 2
    return TransferReport(g_max, t_qst, qst_fidelity(u), leak, phase_1, phase_2)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    c = hi - (hi - lo) * _GOLDEN
    d = lo + (hi - lo) * _GOLDEN
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _GOLDEN
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _GOLDEN
            fd = f(d)
    return 0.5 * (lo + hi)


def optimize_pulse(
    eta: float, t_ramp: float, seed: tuple[float, float], dt: float = 0.001
) -> TransferReport:
    """Coordinate maximization of the transfer fidelity over (g_max, t_qst).

    Golden-section line searches alternate over g_max then t_qst, sweeping
    until neither parameter moves by PARAM_TOL or MAX_SWEEPS sweeps are
    done.  At four of five (eta, t_ramp) points probed the cap ends the
    search before it converges: at dt = 1 ps, (200 MHz, 2 ns) stops at
    g_max = 37.6331 MHz with 1 - F = 3.814e-5 where the converged search
    reaches 37.6408 MHz and 3.793e-5, and (290 MHz, 3 ns) stops at
    1 - F = 1.23e-3 where 64 sweeps reach 4.6e-6.  The capped search is the
    one that reproduces Table 1.  Line searches run at 2*dt; the midpoint
    integrator is converged far below the fidelity resolution there
    (halving dt moves it by < 1e-8), and the final report is evaluated at
    dt.  Never returns a report below the seed; on a fidelity tie the
    smaller g_max wins.

    Search evaluations are qst_fidelity of evolve_transfer's R^T P R at
    2*dt, composed by excitation sector as R^T.after(P.after(R)) of _Pair
    values and read by _Pair.fidelity: no 9x9 matrix, eigendecomposition or
    projection per point.  The up ramp R (_Pair.ramp: the {01,10} area, one
    SU(2) fold of the {s,11} steps and the ramp's duration) and its
    transpose are memoized per g_max for this call from the unit ramp shape
    sampled once, because the ramp does not depend on t_qst.  A t_qst point
    then costs one exact SU(2) plateau element (_Pair.plateau) and a few
    complex products; a new g_max point also folds its ramp, ~1000 steps
    for a 2 ns ramp.  A seed that is not a pulse (non-finite, g_max < 0 or
    t_qst < 2 t_ramp) is a ValueError before the search starts, and a bad
    eta one at the first ramp, before any point.
    """
    g0, t0 = seed
    unit = TrapezoidPulse(1.0, 2.0 * t_ramp, t_ramp)
    if not (_finite(g0) and _finite(t0) and g0 >= 0 and t0 >= 2 * t_ramp):
        raise ValueError(f"seed must be a finite pulse (g_max >= 0, t_qst >= 2 t_ramp), got {seed}")
    mids, dt_ramp = _midpoints(unit.ramp_window, 2.0 * dt)
    shape = unit.value(mids)
    ramps: dict[float, tuple[_Pair, _Pair]] = {}

    def fid(g: float, t: float) -> float:
        if g not in ramps:
            r = _Pair.ramp(g * shape, eta, dt_ramp)
            ramps[g] = r.transpose(), r
        r_t, r = ramps[g]
        u = r_t.after(_Pair.plateau(eta, g, t - 2.0 * t_ramp).after(r))
        return u.fidelity(eta * MHZ_TO_RAD_NS)

    g, t = g0, t0
    for _ in range(MAX_SWEEPS):
        g_prev, t_prev = g, t
        g = _golden_max(lambda x: fid(x, t), max(g - 2.0, 1e-3), g + 2.0, PARAM_TOL)
        t = _golden_max(lambda x: fid(g, x), max(t - 1.0, 2 * t_ramp), t + 1.0, PARAM_TOL)
        if abs(g - g_prev) < PARAM_TOL and abs(t - t_prev) < PARAM_TOL:
            break

    def report(g: float, t: float) -> TransferReport:
        return measure_report(evolve_transfer(TrapezoidPulse(g, t, t_ramp), eta, dt=dt), g, t)

    report_seed, report_opt = report(g0, t0), report(g, t)
    if report_opt.fidelity < report_seed.fidelity - 1e-12:
        warnings.warn("optimizer failed to improve on the seed; returning the seed")
        return report_seed
    if abs(report_opt.fidelity - report_seed.fidelity) <= 1e-12:
        return report_seed if report_seed.g_max <= report_opt.g_max else report_opt
    return report_opt


def phase_gate(theta: float, phi: float) -> np.ndarray:
    """Single-qutrit phase rotation diag(1, e^{-i theta}, e^{-i phi}) for
    finite angles theta and phi in rad."""
    if not (_finite(theta) and _finite(phi)):
        raise ValueError(f"theta and phi must be finite, got {theta} and {phi}")
    return np.diag([1.0, np.exp(-1j * theta), np.exp(-1j * phi)])


def measure_compensation(u: np.ndarray) -> tuple[float, float]:
    """Phases accumulated by one transfer step: args of the |10> -> |01> and
    |20> -> |02> amplitudes (the latter contains the eta*t_qst rotating-frame
    phase of the doubly excited level)."""
    return (
        float(np.angle(u[_I01, _I10])),
        float(np.angle(u[_I02, _I20])),
    )


@dataclass(frozen=True)
class PhaseCompensation:
    """Detuning-pulse realization of a phase gate."""

    theta: float      # rad
    phi: float        # rad
    t_phase: float    # ns
    delta_max: float  # MHz, signed plateau value of Delta(t)

    def __post_init__(self):
        if self.t_phase < 0:
            raise ValueError("t_phase must be nonnegative")
        if abs(self.delta_max) > DELTA_RANGE_MHZ:
            raise ValueError(f"|delta_max| exceeds {DELTA_RANGE_MHZ} MHz")


class CompensationError(RuntimeError):
    pass


def _angle_gap(a: float, b: float) -> float:
    return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


def compensation_params(
    theta: float, phi: float, eta: float, t_ramp: float = 2.0
) -> PhaseCompensation:
    """Trapezoidal detuning pulse realizing phase_gate(theta, phi).

    A single-qutrit detuning pulse Delta(t) accumulates theta on |1> and
    2*theta - eta_angular*t_phase on |2>, so t_phase = (2 theta - phi)/eta
    and delta_max = theta / (t_phase - t_ramp) in angular units.  The target
    pair is taken modulo 2 pi on a branch giving t_phase >= 2 t_ramp and an
    in-range delta_max; both phase integrals are re-checked from the pulse's
    area (pulse_area).  With k idle 2 pi turns of the |2> level, t_phase =
    (2 th - ph + 2 pi k) / eta_angular (th, ph in [0, 2 pi)) grows with k
    and delta_max falls, so the branch is the smallest k with t_phase >=
    t_min = max(2 t_ramp, t_ramp + th / DELTA_RANGE_MHZ), in closed form;
    the k below it is tried first, as rounding may put the root on either
    side of an integer.
    ValueError for a non-finite theta or phi, a bad eta, or a t_ramp that
    is not finite and nonnegative.
    """
    if not (_finite(theta) and _finite(phi)):
        raise ValueError(f"theta and phi must be finite, got {theta} and {phi}")
    _check_eta(eta)
    if not (_finite(t_ramp) and t_ramp >= 0):
        raise ValueError(f"t_ramp must be nonnegative and finite, got {t_ramp}")
    eta_ang = eta * MHZ_TO_RAD_NS
    th = theta % (2.0 * np.pi)
    ph = phi % (2.0 * np.pi)
    if th == 0.0 and ph == 0.0:
        return PhaseCompensation(theta, phi, 0.0, 0.0)

    t_min = max(2.0 * t_ramp, t_ramp + th / (DELTA_RANGE_MHZ * MHZ_TO_RAD_NS))
    k0 = max(np.ceil((t_min * eta_ang - 2.0 * th + ph) / (2.0 * np.pi)) - 1.0, 0.0)
    for k in (k0, k0 + 1.0, k0 + 2.0):
        t_phase = (2.0 * th - (ph - 2.0 * np.pi * k)) / eta_ang
        # > t_ramp: at t_ramp = 0, t_phase = 0 has no finite delta_max
        if t_phase >= 2.0 * t_ramp and t_phase > t_ramp:
            delta_max = th / ((t_phase - t_ramp) * MHZ_TO_RAD_NS)
            if abs(delta_max) <= DELTA_RANGE_MHZ:
                break
    else:
        raise CompensationError(
            f"no feasible 2 pi branch for theta={theta}, phi={phi}, t_ramp={t_ramp}"
        )

    theta_int = pulse_area(TrapezoidPulse(delta_max, t_phase, t_ramp))
    phi_int = 2.0 * theta_int - eta_ang * t_phase
    if _angle_gap(theta_int, theta) > 1e-10 or _angle_gap(phi_int, phi) > 1e-10:
        raise CompensationError(
            f"phase reconstruction off: d_theta={_angle_gap(theta_int, theta):.2e}, "
            f"d_phi={_angle_gap(phi_int, phi):.2e} rad"
        )
    return PhaseCompensation(theta, phi, t_phase, delta_max)
