"""Trapezoidal control pulses and the qutrit transfer constraints.

A transfer pulse must rotate the single-excitation pair {|01>, |10>} by a
pulse area of 3 pi/2 while the effective coupling between |02> and |20>
(mediated by |11> through level repulsion) completes an area of pi/2.
Areas are reported in radians; amplitudes are cyclic MHz, times ns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import _finite
from .model import COUPLING_CAP_MHZ, MHZ_TO_RAD_NS, _check_eta


@dataclass(frozen=True)
class TrapezoidPulse:
    """Trapezoid on [0, t_total] with linear ramps of t_ramp each: zero at
    the endpoints, amp_max on the plateau [t_ramp, t_total - t_ramp].
    Geometric area is amp_max * (t_total - t_ramp)."""

    amp_max: float  # MHz
    t_total: float  # ns
    t_ramp: float   # ns, duration of EACH ramp

    def __post_init__(self):
        if not all(map(_finite, (self.amp_max, self.t_total, self.t_ramp))):
            raise ValueError(f"pulse parameters must be finite, got {self}")
        if self.amp_max < 0:
            raise ValueError("amp_max must be nonnegative")
        if self.t_ramp < 0 or self.t_total < 2 * self.t_ramp:
            raise ValueError("need t_total >= 2 * t_ramp >= 0")

    @property
    def ramp_window(self) -> tuple[float, float]:
        """(start, end) of the up ramp; the down ramp is its time reverse."""
        return 0.0, self.t_ramp

    @property
    def plateau_window(self) -> tuple[float, float]:
        """(start, end) of the plateau, on which the amplitude is amp_max."""
        return self.t_ramp, self.t_total - self.t_ramp

    def value(self, t):
        """Pulse amplitude in MHz at time t (scalar or array); 0 outside."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.t_total)
        if self.t_ramp == 0.0:
            shape = 1.0 * inside
        else:
            up = np.clip(t, 0.0, self.t_ramp) / self.t_ramp
            down = np.clip(self.t_total - t, 0.0, self.t_ramp) / self.t_ramp
            shape = np.minimum(up, down) * inside
        out = self.amp_max * shape
        return float(out) if out.ndim == 0 else out


def pulse_area(p: TrapezoidPulse) -> float:
    """Angular pulse area integral g(t) dt in rad: the geometric area
    amp_max * (t_total - t_ramp) in MHz*ns, times MHZ_TO_RAD_NS."""
    return p.amp_max * (p.t_total - p.t_ramp) * MHZ_TO_RAD_NS


def g_eff(g: float, eta: float) -> float:
    """Effective |02><20| coupling from level repulsion via |11>, in MHz.

    g_eff = sqrt((eta/4)^2 + g^2) - eta/4, written as g^2 / (eta/4 + sqrt(...))
    to avoid the cancellation; for g << eta this is ~ 2 g^2/eta.  g may be
    an array; a non-finite g is a ValueError.
    """
    _check_eta(eta)
    if not np.all(_finite(g)):
        raise ValueError(f"g must be finite, got {g}")
    q = eta / 4.0
    return g * g / (q + np.hypot(q, g))


def _g_eff_integral(amp: float, q: float) -> float:
    """Integral of g_eff from 0 to amp with q = eta/4, in MHz^2:
    q^2 f(x), x = amp/q, f(x) = x sqrt(1 + x^2)/2 + asinh(x)/2 - x.

    f cancels down to x^3/6 for small x, so below x = 0.3 it is summed as
    the term-by-term integral of sqrt(1 + u^2) - 1 = sum_k binom(1/2, k) u^2k.
    """
    x = amp / q
    if x >= 0.3:
        return q * q * (0.5 * x * np.hypot(1.0, x) + 0.5 * np.arcsinh(x) - x)
    total, binom = 0.0, 0.5  # binom(1/2, k) at k = 1
    for k in range(1, 17):
        total += binom * x ** (2 * k + 1) / (2 * k + 1)
        binom *= (0.5 - k) / (k + 1)
    return q * q * total


def effective_area(p: TrapezoidPulse, eta: float) -> float:
    """Angular integral of g_eff(g(t)) over the pulse, in rad, in closed form.

    The plateau contributes g_eff(amp_max) * plateau duration; each linear
    ramp contributes (t_ramp / amp_max) * integral of g_eff from 0 to
    amp_max (g_eff is nonlinear in g, so the ramps fall below the
    trapezoid-equivalent estimate).
    """
    if p.amp_max == 0.0 or p.t_total == 0.0:
        return 0.0
    plateau = g_eff(p.amp_max, eta) * (p.t_total - 2.0 * p.t_ramp)
    ramps = 2.0 * p.t_ramp * _g_eff_integral(p.amp_max, eta / 4.0) / p.amp_max
    return (ramps + plateau) * MHZ_TO_RAD_NS


def analytic_params(eta: float, t_ramp: float = 2.0) -> tuple[float, float]:
    """Closed-form trapezoid parameters (g_max MHz, t_qst ns).

    Solves g_max = 3 g_eff(g_max) together with the 3 pi/2 pulse-area
    condition, giving g_max = 3 eta / 16 and t_qst = t_ramp + 8 pi / eta_angular.
    The 3:1 area ratio is baked into the derivation, as into solve_constraint.
    """
    _check_eta(eta)
    g_max = 3.0 * eta / 16.0
    t_qst = t_ramp + 8.0 * np.pi / (eta * MHZ_TO_RAD_NS)
    if g_max > COUPLING_CAP_MHZ:
        warnings.warn(
            f"g_max = {g_max:.2f} MHz exceeds the {COUPLING_CAP_MHZ} MHz coupler range",
            stacklevel=2,
        )
    return g_max, t_qst


@dataclass(frozen=True)
class ConstraintSolution:
    """Solution of the two transfer area conditions, pulse area 3 pi/2 and
    effective area pi/2."""

    g_max: float        # MHz
    t_qst: float        # ns
    residuals: tuple[float, float]  # rad, (pulse area, effective area)


class ConstraintError(RuntimeError):
    """No admissible pulse meets the conditions; carries the last residuals in rad."""

    def __init__(self, message: str, residuals: tuple[float, float]):
        super().__init__(f"{message}; residuals (rad): {residuals[0]:.3e}, {residuals[1]:.3e}")
        self.residuals = residuals


def _check_t_ramp(t_ramp) -> None:
    """ValueError unless t_ramp is finite and nonnegative."""
    if not (_finite(t_ramp) and t_ramp >= 0):
        raise ValueError(f"t_ramp must be nonnegative and finite, got {t_ramp}")


def solve_constraint(eta: float, t_ramp: float = 2.0) -> ConstraintSolution:
    """Solve pulse_area = 3 pi/2 and effective_area = pi/2 for (g_max, t_qst).

    t_qst(g) = t_ramp + 3 pi / (2 g) (g angular) meets the first exactly.
    Along it the effective area rises strictly with g up to g_top =
    3 pi / (2 t_ramp), so bisection finds the root (README, "Pulse
    constraint").  ValueError for bad input; ConstraintError when no g in
    (0, g_top] works or the root is above the cap.
    """
    _check_eta(eta)
    _check_t_ramp(t_ramp)
    eta, t_ramp = float(eta), float(t_ramp)
    area = 3 * np.pi / 2.0 / MHZ_TO_RAD_NS  # MHz ns
    g_top = area / t_ramp if t_ramp > 0 else np.inf  # overflows to inf if subnormal

    def residuals(g: float) -> tuple[float, tuple[float, float]]:
        p = TrapezoidPulse(g, max(t_ramp + area / g, 2.0 * t_ramp), t_ramp)
        r_eff = effective_area(p, eta) - np.pi / 2.0
        return p.t_total, (abs(pulse_area(p) - 3 * np.pi / 2.0), r_eff)

    lo, hi = 0.0, min(COUPLING_CAP_MHZ, g_top)
    t, r = residuals(hi)
    # the effective area tends to 3 pi/2 > pi/2 as g grows, so with g_top =
    # inf the doubling still ends, at a finite root
    while r[1] < 0 and hi < g_top:
        lo, hi = hi, min(2.0 * hi, g_top)
        t, r = residuals(hi)
    if r[1] < 0:
        raise ConstraintError(
            f"no g_max up to g_top = {g_top:.2f} MHz (t_qst = 2 t_ramp) reaches "
            "the effective area pi/2",
            (r[0], -r[1]),
        )
    while lo < 0.5 * (lo + hi) < hi:  # each pass drops floats from (lo, hi)
        mid = 0.5 * (lo + hi)
        t_mid, r_mid = residuals(mid)
        if r_mid[1] < 0:
            lo = mid
        else:
            hi, t, r = mid, t_mid, r_mid
    if hi > COUPLING_CAP_MHZ:
        raise ConstraintError(
            f"solution needs g_max = {hi:.2f} MHz, above the {COUPLING_CAP_MHZ} MHz coupler cap",
            r,
        )
    return ConstraintSolution(hi, t, r)
