"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

from qutritchain.analysis import crossover, fit_power, free_exponent_fit
from qutritchain.chain import intrinsic_error_curve, make_schedule, validate_front_vs_full
from qutritchain.evolution import unitarity_defect
from qutritchain.model import MHZ_TO_RAD_NS
from qutritchain.noise import amplitude_damping, decoherence_error_curve, phase_damping
from _oracles import adaptive_simpson
from qutritchain.pulse import TrapezoidPulse, analytic_params
from qutritchain.transfer import (
    compensation_params,
    count_transfer_peaks,
    evolve_transfer,
    optimize_pulse,
    population_series,
    qst_fidelity,
)

ETA = 200.0
T_RAMP = 2.0
DT = 0.001
N_STEPS = 200


def check(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def u_analytic():
    g, t = analytic_params(ETA, t_ramp=T_RAMP)
    t0 = time.perf_counter()
    u = evolve_transfer(TrapezoidPulse(g, t, T_RAMP), ETA, dt=DT)
    return u, time.perf_counter() - t0


@pytest.fixture(scope="module")
def optimized():
    t0 = time.perf_counter()
    report = optimize_pulse(ETA, T_RAMP, analytic_params(ETA, t_ramp=T_RAMP), dt=DT)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def step(optimized):
    report, _ = optimized
    _, u_step, comp = make_schedule(
        report.g_max, report.t_qst, T_RAMP, ETA, N_STEPS, dt=DT
    )
    return report, u_step, comp


@pytest.fixture(scope="module")
def error_curves(step):
    report, u_step, comp = step
    intr = intrinsic_error_curve(N_STEPS, u_step, comp)
    deco = decoherence_error_curve(N_STEPS, report.t_qst, 60.0, 60.0)
    return intr, deco


def test_criterion_1_analytic_parameters():
    g, t = analytic_params(ETA, t_ramp=T_RAMP)
    ok = abs(g - 37.5) < 1e-12 and abs(t - 22.0) < 1e-12
    check(1, ok, f"analytic (g_max, t_qst) = ({g:.12f} MHz, {t:.12f} ns), want exactly (37.5, 22)")


def test_criterion_2_analytic_fidelity(u_analytic):
    u, wall_evolve = u_analytic
    t0 = time.perf_counter()
    fid = qst_fidelity(u)
    wall = wall_evolve + (time.perf_counter() - t0)
    ok = abs(fid * 100 - 99.992) <= 0.002 and wall < 1.0
    check(2, ok, f"analytic-pulse fidelity {fid*100:.5f}%, want 99.992 +- 0.002 ({wall:.2f} s, < 1)")


def test_criterion_3_optimized_parameters(optimized):
    report, wall = optimized
    ok = (
        abs(report.g_max - 37.7) <= 0.2
        and abs(report.t_qst - 21.95) <= 0.2
        and report.fidelity >= 0.99995
        and wall < 30.0
    )
    check(
        3,
        ok,
        f"optimizer: g_max = {report.g_max:.3f} MHz (37.7 +- 0.2), "
        f"t_qst = {report.t_qst:.3f} ns (21.95 +- 0.2), "
        f"F = {report.fidelity*100:.5f}% (>= 99.995), {wall:.1f} s (< 30)",
    )


def test_criterion_4_transfer_populations(optimized):
    report, _ = optimized
    pulse = TrapezoidPulse(report.g_max, report.t_qst, T_RAMP)
    _, p01, p02 = population_series(pulse, ETA, dt=DT, dt_out=0.05)
    n1, n2 = count_transfer_peaks(p01), count_transfer_peaks(p02)
    ok = p01[-1] >= 0.9999 and p02[-1] >= 0.9999 and n1 == 2 and n2 == 1
    check(
        4,
        ok,
        f"p01(t_qst) = {p01[-1]:.6f}, p02(t_qst) = {p02[-1]:.6f} (>= 0.9999); "
        f"peaks {n1}/{n2}, want 2/1",
    )


def test_criterion_5_phase_compensation_roundtrip():
    rng = np.random.default_rng(2024)
    eta_ang = ETA * MHZ_TO_RAD_NS
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        c = compensation_params(theta, phi, ETA, t_ramp=T_RAMP)
        shape = TrapezoidPulse(1.0, c.t_phase, T_RAMP)
        th_int = c.delta_max * MHZ_TO_RAD_NS * adaptive_simpson(shape.value, 0.0, c.t_phase)
        ph_int = 2.0 * th_int - eta_ang * c.t_phase
        gap = max(
            abs((th_int - theta + np.pi) % (2 * np.pi) - np.pi),
            abs((ph_int - phi + np.pi) % (2 * np.pi) - np.pi),
        )
        worst = max(worst, gap)
    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and wall < 1.0
    check(5, ok, f"20 random (theta, phi): worst integral gap {worst:.2e} rad (< 1e-10), {wall:.2f} s")


def test_criterion_6_front_propagation_oracle(optimized):
    report, _ = optimized
    t0 = time.perf_counter()
    gap3 = validate_front_vs_full(3, report.g_max, report.t_qst, T_RAMP, ETA, dt=DT)
    gap4 = validate_front_vs_full(4, report.g_max, report.t_qst, T_RAMP, ETA, dt=DT)
    wall = time.perf_counter() - t0
    ok = gap3 < 1e-10 and gap4 < 1e-10 and wall < 60.0
    check(6, ok, f"front vs full overlap gap: n=3 {gap3:.2e}, n=4 {gap4:.2e} (< 1e-10), {wall:.1f} s")


def test_criterion_7_intrinsic_error_scaling(error_curves):
    intr, _ = error_curves
    prefactor = fit_power(intr, 4).prefactor
    exponent, _ = free_exponent_fit(intr)
    ok = 2.1e-10 / 2 <= prefactor <= 2.1e-10 * 2 and abs(exponent - 4.0) <= 0.5
    check(
        7,
        ok,
        f"quartic fit prefactor {prefactor:.3e} (want 2.1e-10 within x2), "
        f"free exponent {exponent:.2f} (want 4.0 +- 0.5)",
    )


def test_criterion_8_decoherence_error_scaling(error_curves):
    _, deco = error_curves
    slope = fit_power(deco, 1).prefactor
    estimate = 3.66e-4
    ok = abs(slope - 3.6e-4) <= 0.5 * 3.6e-4 and abs(slope - estimate) <= 0.5 * estimate
    check(
        8,
        ok,
        f"linear fit slope {slope:.3e} (want 3.6e-4 +- 50%), "
        f"vs t_qst/T1 = {estimate:.2e} within 50%",
    )


def test_criterion_9_crossover(error_curves):
    intr, deco = error_curves
    k_star = crossover(fit_power(intr, 4), fit_power(deco, 1))
    ok = 90.0 <= k_star <= 150.0
    check(9, ok, f"k* = (B/A)^(1/3) = {k_star:.1f}, want within [90, 150]")


def test_criterion_10_property_suites(u_analytic, step):
    report, u_step, comp = step
    failures = []

    worst_unitarity = max(
        unitarity_defect(u_analytic[0]), unitarity_defect(u_step)
    )
    if worst_unitarity >= 1e-9:
        failures.append(f"unitarity {worst_unitarity:.2e}")

    kraus_defect = max(
        amplitude_damping(N_STEPS * report.t_qst, 60.0).completeness_defect(),
        phase_damping(N_STEPS * report.t_qst, 60.0, 60.0).completeness_defect(),
    )
    if kraus_defect >= 1e-12:
        failures.append(f"kraus completeness {kraus_defect:.2e}")

    n_loc = np.diag([0.0, 1.0, 2.0])
    sectors = np.diag(np.kron(n_loc, np.eye(3)) + np.kron(np.eye(3), n_loc)).round()
    off = u_step[sectors[:, None] != sectors[None, :]]
    block_defect = float(np.abs(off).max())
    if block_defect >= 1e-10:
        failures.append(f"sector block-diagonality {block_defect:.2e}")

    pulse = TrapezoidPulse(report.g_max, report.t_qst, T_RAMP)
    f_half = qst_fidelity(evolve_transfer(pulse, ETA, dt=DT / 2))
    dt_shift = abs(report.fidelity - f_half)
    if dt_shift >= 1e-8:
        failures.append(f"dt-halving fidelity shift {dt_shift:.2e}")

    u = np.ones(3, dtype=complex) / np.sqrt(3.0)
    rho = np.outer(u, u.conj())
    r1 = rho.copy()
    for _ in range(8):
        r1 = phase_damping(report.t_qst, 60.0, 60.0).apply(
            amplitude_damping(report.t_qst, 60.0).apply(r1)
        )
    r8 = phase_damping(8 * report.t_qst, 60.0, 60.0).apply(
        amplitude_damping(8 * report.t_qst, 60.0).apply(rho)
    )
    semigroup_defect = float(np.abs(r1 - r8).max())
    if semigroup_defect >= 1e-12:
        failures.append(f"semigroup {semigroup_defect:.2e}")

    check(
        10,
        not failures,
        "unitarity {:.1e}, kraus {:.1e}, sectors {:.1e}, dt-halving {:.1e}, semigroup {:.1e}{}".format(
            worst_unitarity,
            kraus_defect,
            block_defect,
            dt_shift,
            semigroup_defect,
            "; FAILED: " + "; ".join(failures) if failures else "",
        ),
    )
