"""Trapezoidal control pulses and the qutrit transfer constraints.

A transfer pulse must rotate the single-excitation pair {|01>, |10>} by an
odd multiple of pi/2 while the effective coupling between |02> and |20>
(mediated by |11> through level repulsion) completes its own odd multiple of
pi/2.  Areas are reported in radians; amplitudes are cyclic MHz, times ns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import COUPLING_CAP_MHZ, MHZ_TO_RAD_NS


@dataclass(frozen=True)
class TrapezoidPulse:
    """Trapezoid on [0, t_total] with linear ramps of t_ramp each: zero at
    the endpoints, amp_max on the plateau [t_ramp, t_total - t_ramp].
    Geometric area is amp_max * (t_total - t_ramp)."""

    amp_max: float  # MHz
    t_total: float  # ns
    t_ramp: float   # ns, duration of EACH ramp

    def __post_init__(self):
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
        return self.t_ramp, max(self.t_ramp, self.t_total - self.t_ramp)

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

    def area_mhz_ns(self) -> float:
        """Geometric area in MHz*ns (two half-triangle ramp deficits)."""
        return self.amp_max * (self.t_total - self.t_ramp)


def pulse_area(p: TrapezoidPulse) -> float:
    """Angular pulse area integral g(t) dt in rad (MHz*ns -> rad)."""
    return p.area_mhz_ns() * MHZ_TO_RAD_NS


def g_eff(g: float, eta: float) -> float:
    """Effective |02><20| coupling from level repulsion via |11>, in MHz.

    g_eff = sqrt((eta/4)^2 + g^2) - eta/4, written as g^2 / (eta/4 + sqrt(...))
    to avoid the cancellation; for g << eta this is ~ 2 g^2/eta.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
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
    The 3:1 area ratio (m = 3, l = 1) is baked into the derivation.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
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
    """Exact solution of the two transfer area conditions."""

    g_max: float        # MHz
    t_qst: float        # ns
    m: int
    l: int
    residuals: tuple[float, float]  # rad, (pulse area, effective area)


class ConstraintError(RuntimeError):
    """Constraint solve failed; carries the last residuals in rad."""

    def __init__(self, message: str, residuals: tuple[float, float]):
        super().__init__(f"{message}; residuals (rad): {residuals[0]:.3e}, {residuals[1]:.3e}")
        self.residuals = residuals


def solve_constraint(
    eta: float,
    t_ramp: float = 2.0,
    m: int = 3,
    l: int = 1,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> ConstraintSolution:
    """Damped Newton solve of pulse_area = m pi/2 and effective_area = l pi/2.

    Seeded from the analytic parameters; the Jacobian is finite-difference
    and steps are clamped to keep g_max inside (0, 55].  Both m and l must
    be odd.  Raises ConstraintError on non-convergence (for example l = m,
    which is infeasible since g_eff < g pointwise), naming the coupler cap
    when the search stalls at it with its Newton step pointing above.
    """
    if m % 2 == 0 or l % 2 == 0:
        raise ValueError("m and l must be odd")
    g, t = analytic_params(eta, t_ramp=t_ramp)

    def residual(g_, t_):
        p = TrapezoidPulse(g_, t_, t_ramp)
        return np.array(
            [pulse_area(p) - m * np.pi / 2.0, effective_area(p, eta) - l * np.pi / 2.0]
        )

    r = residual(g, t)
    for _ in range(max_iter):
        if np.abs(r).max() < tol:
            return ConstraintSolution(g, t, m, l, (abs(r[0]), abs(r[1])))
        hg, ht = max(1e-7, 1e-7 * g), max(1e-7, 1e-7 * t)
        jac = np.column_stack(
            [(residual(g + hg, t) - r) / hg, (residual(g, t + ht) - r) / ht]
        )
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise ConstraintError("singular Jacobian", (abs(r[0]), abs(r[1])))
        scale = 1.0
        for _ in range(40):
            g_new = min(max(g + scale * step[0], 1e-6), COUPLING_CAP_MHZ)
            t_new = max(t + scale * step[1], 2.0 * t_ramp)
            r_new = residual(g_new, t_new)
            if np.abs(r_new).max() < np.abs(r).max():
                break
            scale /= 2.0
        else:
            if g >= COUPLING_CAP_MHZ and step[0] > 0:
                raise ConstraintError(
                    f"solution needs g_max above the {COUPLING_CAP_MHZ} MHz coupler cap "
                    f"(unclamped Newton step to {g + step[0]:.2f} MHz)",
                    (abs(r[0]), abs(r[1])),
                )
            raise ConstraintError("no descent step found", (abs(r[0]), abs(r[1])))
        g, t, r = g_new, t_new, r_new
    raise ConstraintError(f"no convergence in {max_iter} iterations", (abs(r[0]), abs(r[1])))
