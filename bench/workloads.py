"""Seeded inputs, the memory budget, one pass of each workload and its checks.

A pass calls only public functions of ``qutritchain`` (and ``cli.main``),
always through their module (``transfer.optimize_pulse``, not a name bound
at import), so the tracer can wrap them.  Checks run outside the timed pass.

Workloads
---------
design
    Pulse designer's time to an optimized pulse: for each (eta, t_ramp)
    point, analytic_params -> solve_constraint -> optimize_pulse ->
    population_series.  The paper's reference point (200 MHz, 2 ns) is always
    included.  Two seeded points come from fixed cells of the dimensionless
    ramp x = eta * t_ramp (290 and 250, against 400 at the reference), with
    eta drawn inside the cell and t_ramp = x / eta.  1 - F depends on x alone
    (the pair Hamiltonian scales with eta) and grows roughly as x^5, so
    fixing x per cell keeps the mean infidelity and the pass cost comparable
    across seeds while eta, t_ramp and the ramp-to-plateau step ratio still
    vary.  Cells with x > 400 (t_ramp up to 3 ns) are left out: one such point
    would dominate the mean infidelity and cost ~15 s per optimization.
validate
    ``cli.main(["validate", "--config", ...])`` at a seeded eta: the oracle
    suite (front vs full chain for n = 2, 3, 4, RWA residual sweep, Kraus
    completeness, dt halving).  Few, large matrices; never optimizes.
chain-scan
    No optimizer: one analytic step pulse at a seeded eta, intrinsic error
    curves of seeded initial states up to k_max, decoherence curves for
    seeded (T1, T2), the power-law fits, and the Fig. 3 CSV (40 qutrits; the
    length is fixed because peak memory grows with it) and Fig. 4 CSV
    written with ``cli.write_csv``.  Per-step Python loops and CSV
    formatting dominate; ``evolution`` runs one 9-dim evolution.

validate and chain-scan use t_ramp = 400 / eta, the reference point's x, for
the same reason as the design cells.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import warnings

import numpy as np

from qutritchain import analysis, chain, cli, noise, pulse, transfer

WORKLOADS = ("design", "validate", "chain-scan")

# Largest array set one workload may ask for before any call is made.  The
# machine the benchmark was sized on has 8 GB shared with other processes.
MEM_BUDGET_BYTES = 2 * 1024**3

REFERENCE = {"eta": 200.0, "t_ramp": 2.0}
REFERENCE_X = REFERENCE["eta"] * REFERENCE["t_ramp"]
# (x, eta range in MHz).  solve_constraint needs g_max ~ 0.193 eta within the
# 55 MHz cap, so it fails above eta ~ 285 MHz at x = 290.
DESIGN_CELLS = ((290.0, (250.0, 280.0)), (250.0, (210.0, 240.0)))
# MHz, validate and chain-scan.  Their pass cost goes as 1/eta, so the band
# is narrow to keep cost nearly seed-independent.
SEEDED_ETA = (195.0, 205.0)

# README Table 1 at the reference point, dt = 1 ps, with the tolerance of
# the digits it states.
TABLE1 = {"g_max": (37.63, 0.01), "t_qst": (21.95, 0.01), "fidelity": (0.999962, 1e-6)}
VALIDATE_CHECKS = 7  # lines cmd_validate prints: 3 front-vs-full, rwa, 2 kraus, dt halving

SIZES = {
    "full": {
        "design": {"dt": 0.001},
        "validate": {"dt": 0.001},
        "chain-scan": {"dt": 0.001, "k_max": 2000, "n_states": 3, "n_noise": 2,
                       "n_qutrits": 40, "dt_out": 0.05},
    },
    "tiny": {
        "design": {"dt": 0.01},
        "validate": {"dt": 0.004},
        "chain-scan": {"dt": 0.005, "k_max": 40, "n_states": 2, "n_noise": 1,
                       "n_qutrits": 4, "dt_out": 0.5},
    },
}


class InputTooLarge(ValueError):
    """A generated input would allocate more than the memory budget."""


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """JSON-serializable inputs for one workload, a pure function of the seed.

    Refuses inputs whose predicted arrays exceed MEM_BUDGET_BYTES.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    sizes = dict(SIZES[size][workload])
    if workload == "design":
        # One draw, antithetic across the two cells: pass cost goes roughly as
        # 1/eta, so eta rising in one cell while it falls in the other keeps
        # the total cost of a pass close to seed-independent.
        u = rng.random()
        points = [dict(REFERENCE)]
        for (x, (lo, hi)), w in zip(DESIGN_CELLS, (u, 1.0 - u)):
            eta = lo + w * (hi - lo)
            points.append({"eta": eta, "t_ramp": x / eta})
        inputs = {"points": points, **sizes}
    elif workload == "validate":
        eta = rng.uniform(*SEEDED_ETA)
        t1 = rng.uniform(20.0, 100.0)
        inputs = {"eta": eta, "t_ramp": REFERENCE_X / eta, "t1": t1,
                  "t2": t1 * rng.uniform(0.5, 2.0), **sizes}
    else:
        eta = rng.uniform(*SEEDED_ETA)
        states = []
        for _ in range(sizes.pop("n_states")):
            z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
            norm = math.sqrt(sum(abs(c) ** 2 for c in z))
            states.append([[c.real / norm, c.imag / norm] for c in z])
        noise_pairs = []
        for _ in range(sizes.pop("n_noise")):
            t1 = rng.uniform(20.0, 100.0)
            noise_pairs.append([t1, t1 * rng.uniform(0.5, 2.0)])  # T2 <= 2 T1
        inputs = {"eta": eta, "t_ramp": REFERENCE_X / eta, "states": states,
                  "noise": noise_pairs, **sizes}
    check_budget(workload, inputs)
    return inputs


def predicted_bytes(workload: str, inputs: dict) -> dict[str, int]:
    """Size of the largest arrays each planned call allocates, by formula.

    Distinct coupling values of a trapezoid are at most the ramp steps,
    2 t_ramp / dt + 2; evolve_affine keeps one complex d x d step per value.
    """
    def step_stack(t_ramp: float, dt: float, dim: int) -> int:
        return (int(2 * t_ramp / dt) + 2) * dim * dim * 16

    dt = inputs["dt"]
    if workload == "design":
        return {
            f"evolve_transfer eta={p['eta']:.1f}": step_stack(p["t_ramp"], dt, 9)
            for p in inputs["points"]
        }
    if workload == "validate":
        return {"oracle n=4 step stack": step_stack(inputs["t_ramp"], dt, 81)}
    _, t_a = pulse.analytic_params(inputs["eta"], t_ramp=inputs["t_ramp"])
    n_edges = inputs["n_qutrits"] - 1
    samples = int(round(n_edges * t_a / inputs["dt_out"])) + 1
    curves = len(inputs["states"]) + len(inputs["noise"])
    return {
        "coupling_values (n_steps x samples x 8 B)": n_edges * samples * 8,
        "fig3 csv text (samples x columns x 20 B)": samples * (n_edges + 1) * 20,
        "error curves (curves x k_max x 16 B)": curves * inputs["k_max"] * 16,
    }


def check_budget(workload: str, inputs: dict) -> None:
    sizes = predicted_bytes(workload, inputs)
    total = sum(sizes.values())
    if total > MEM_BUDGET_BYTES:
        worst = max(sizes, key=sizes.get)
        raise InputTooLarge(
            f"{workload} inputs need ~{total / 1e9:.2f} GB (largest: {worst}, "
            f"{sizes[worst] / 1e9:.2f} GB), over the {MEM_BUDGET_BYTES / 1e9:.2f} GB budget"
        )


# --- passes ---------------------------------------------------------------
#
# A pass or a part returns {operation name: outcome}; an outcome is the
# operation's output or the exception it raised.


def prepare(workload: str, inputs: dict, workdir: str) -> None:
    """Untimed per-run preparation: the validate config file."""
    if workload == "validate":
        cfg = {k: inputs[k] for k in ("eta", "t_ramp", "t1", "t2", "dt")}
        cfg["output_dir"] = workdir
        with open(os.path.join(workdir, "validate.json"), "w") as f:
            json.dump(cfg, f)


def parts(workload: str, inputs: dict) -> list[str]:
    """The parts one pass is made of, in order; each can run and be timed
    on its own.  A design pass is its points; the others are one part."""
    if workload == "design":
        return [f"point {i}" for i in range(len(inputs["points"]))]
    return [workload]


def run_part(workload: str, inputs: dict, workdir: str, part: str) -> dict:
    if workload == "design":
        p = inputs["points"][int(part.removeprefix("point "))]
        return {part: _attempt(_design_point, p, inputs["dt"])}
    return {"validate": _validate, "chain-scan": _chain_scan}[workload](inputs, workdir)


def run_pass(workload: str, inputs: dict, workdir: str) -> dict:
    outputs: dict = {}
    for part in parts(workload, inputs):
        outputs.update(run_part(workload, inputs, workdir, part))
    return outputs


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation, never fatal
        return exc


def _design_point(p: dict, dt: float) -> dict:
    eta, t_ramp = p["eta"], p["t_ramp"]
    seed = pulse.analytic_params(eta, t_ramp=t_ramp)
    sol = pulse.solve_constraint(eta, t_ramp=t_ramp)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = transfer.optimize_pulse(eta, t_ramp, seed, dt=dt)
    opt = pulse.TrapezoidPulse(rep.g_max, rep.t_qst, t_ramp)
    ts, p01, p02 = transfer.population_series(opt, eta, dt=dt)
    return {"constraint": sol, "report": rep,
            "warnings": [str(w.message) for w in caught], "populations": (ts, p01, p02)}


def _validate(inputs: dict, workdir: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _attempt(cli.main, ["validate", "--config", os.path.join(workdir, "validate.json")])
    return {"cli validate": (code, buf.getvalue())}


def _chain_scan(inputs: dict, workdir: str) -> dict:
    eta, t_ramp, dt, k_max = inputs["eta"], inputs["t_ramp"], inputs["dt"], inputs["k_max"]
    out: dict = {}
    g_a, t_a = pulse.analytic_params(eta, t_ramp=t_ramp)
    made = _attempt(chain.make_schedule, g_a, t_a, t_ramp, eta, inputs["n_qutrits"] - 1, dt)
    out["step pulse"] = made
    if isinstance(made, Exception):
        return out
    schedule, u_step, comp = made
    intr = []
    for i, s in enumerate(inputs["states"]):
        psi = np.array([complex(re, im) for re, im in s])
        intr.append(_attempt(chain.intrinsic_error_curve, k_max, u_step, comp, psi))
        out[f"intrinsic {i}"] = intr[-1]
    deco = []
    for i, (t1, t2) in enumerate(inputs["noise"]):
        deco.append(_attempt(noise.decoherence_error_curve, k_max, t_a, t1, t2))
        out[f"decoherence {i}"] = deco[-1]
    curves = intr + deco
    if any(isinstance(c, Exception) for c in curves):
        return out
    out["fits"] = _attempt(_fits, intr[0], deco[0])
    if not isinstance(out["fits"], Exception):
        out["fits.json"] = _attempt(cli.write_json, os.path.join(workdir, "fits.json"), out["fits"])

    fig4 = os.path.join(workdir, "fig4.csv")
    header = ["k"] + [f"error_intrinsic_{i}" for i in range(len(intr))]
    header += [f"error_decoherence_{i}" for i in range(len(deco))]
    rows = zip(intr[0][:, 0].astype(int), *(c[:, 1] for c in curves))
    out["fig4.csv"] = (_attempt(cli.write_csv, fig4, header, rows), fig4)

    fig3 = os.path.join(workdir, "fig3.csv")
    out["fig3.csv"] = (_attempt(_write_fig3, fig3, schedule, inputs["dt_out"]), fig3)
    return out


def _fits(intr: np.ndarray, deco: np.ndarray) -> dict:
    quartic = analysis.fit_power(intr, 4)
    linear = analysis.fit_power(deco, 1)
    exponent, prefactor = analysis.free_exponent_fit(intr)
    return {"quartic_prefactor": quartic.prefactor, "linear_prefactor": linear.prefactor,
            "free_exponent": exponent, "free_prefactor": prefactor,
            "k_star": analysis.crossover(quartic, linear)}


def _write_fig3(path: str, schedule, dt_out: float) -> int:
    n_out = int(round(schedule.total_duration / dt_out))
    ts = np.linspace(0.0, schedule.total_duration, n_out + 1)
    g = schedule.coupling_values(ts)
    header = ["t_ns"] + [f"g{k + 1}" for k in range(schedule.n_steps)]
    cli.write_csv(path, header, zip(ts, *g))
    return n_out + 1


# --- checks ---------------------------------------------------------------


class Checker:
    """Checks pass outputs; caches references that depend only on the inputs."""

    def __init__(self, workload: str, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self._refs: dict = {}

    def reference_fidelity(self, eta: float, t_ramp: float) -> float:
        """F of the analytic pulse at the workload's dt."""
        key = (eta, t_ramp)
        if key not in self._refs:
            g_a, t_a = pulse.analytic_params(eta, t_ramp=t_ramp)
            u = transfer.evolve_transfer(
                pulse.TrapezoidPulse(g_a, t_a, t_ramp), eta, dt=self.inputs["dt"]
            )
            self._refs[key] = transfer.qst_fidelity(u)
        return self._refs[key]

    def check(self, outputs: dict) -> tuple[dict[str, str], dict]:
        """({failed operation: reason}, quality values) for one pass or part."""
        failures: dict[str, str] = {}
        for name, outcome in outputs.items():
            if isinstance(outcome, Exception):
                failures[name] = f"{type(outcome).__name__}: {outcome}"
        check = {"design": self._design, "validate": self._validate,
                 "chain-scan": self._chain_scan}[self.workload]
        quality = check(outputs, failures)
        return failures, quality

    def _design(self, outputs: dict, failures: dict) -> dict:
        infid = []
        for i, p in enumerate(self.inputs["points"]):
            name = f"point {i}"
            if name not in outputs or name in failures:
                continue
            res = outputs[name]
            rep = res["report"]
            problems = []
            if any("failed to improve" in w for w in res["warnings"]):
                problems.append("optimize_pulse warned it failed to improve")
            f_a = self.reference_fidelity(p["eta"], p["t_ramp"])
            if not rep.fidelity >= f_a - 1e-12:
                problems.append(f"F_opt {rep.fidelity:.9f} < F_analytic {f_a:.9f}")
            if not max(res["constraint"].residuals) < 1e-9:
                problems.append(f"constraint residuals {res['constraint'].residuals}")
            _, p01, p02 = res["populations"]
            for label, pop in (("p01", p01), ("p02", p02)):
                if not (np.all(np.isfinite(pop)) and pop.min() >= -1e-12 and pop.max() <= 1 + 1e-9):
                    problems.append(f"{label} outside [0, 1]")
                elif not pop[-1] >= 0.999:
                    problems.append(f"final {label} = {pop[-1]:.6f} < 0.999")
            if p == REFERENCE and self.inputs["dt"] == 0.001:
                got = {"g_max": rep.g_max, "t_qst": rep.t_qst, "fidelity": rep.fidelity}
                for key, (want, tol) in TABLE1.items():
                    if not abs(got[key] - want) <= tol:
                        problems.append(f"Table 1 {key} = {got[key]:.6f}, want {want} +- {tol}")
            if problems:
                failures[name] = "; ".join(problems)
            infid.append(1.0 - rep.fidelity)
        return {"infidelity": float(np.mean(infid)) if infid else float("nan")}

    def _validate(self, outputs: dict, failures: dict) -> dict:
        # One failure per oracle line; a bad exit code counts only when no
        # line explains it, so one failing check is not booked twice.
        code, text = outputs["cli validate"]
        if isinstance(code, Exception):
            code = f"{type(code).__name__}: {code}"
        lines = [ln for ln in text.splitlines() if ln.strip()]
        for i in range(VALIDATE_CHECKS):
            if i >= len(lines):
                failures[f"oracle line {i}"] = f"missing (exit: {code})"
            elif not lines[i].startswith("PASS"):
                failures[f"oracle line {i}"] = lines[i]
        for extra in lines[VALIDATE_CHECKS:]:
            failures[f"unexpected line {extra[:40]}"] = extra
        if code != 0 and not failures:
            failures["cli validate"] = f"exit {code} with every oracle line PASS"
        f = self.reference_fidelity(self.inputs["eta"], self.inputs["t_ramp"])
        return {"infidelity": 1.0 - f}

    def _chain_scan(self, outputs: dict, failures: dict) -> dict:
        for name, res in outputs.items():
            if name in failures:
                continue
            if name.startswith(("intrinsic", "decoherence")):
                err = res[:, 1]
                if not (np.all(np.isfinite(err)) and err.min() >= -1e-12 and err.max() <= 1.0):
                    failures[name] = "error outside [0, 1] or not finite"
                elif not np.array_equal(res[:, 0], np.arange(1, self.inputs["k_max"] + 1)):
                    failures[name] = "k column is not 1..k_max"
                elif name.startswith("intrinsic") and np.diff(err).min(initial=0.0) < -1e-12:
                    failures[name] = "intrinsic error decreases in k"
            elif name == "fits":
                if not all(math.isfinite(v) for v in res.values()) or res["k_star"] <= 0:
                    failures[name] = f"non-finite or nonpositive fit: {res}"
            elif name.endswith(".csv"):
                written, path = res
                if isinstance(written, Exception):
                    failures[name] = f"{type(written).__name__}: {written}"
                    continue
                want = self._csv_rows(name, outputs)
                with open(path) as f:
                    got = sum(1 for _ in f) - 1
                if got != want:
                    failures[name] = f"{got} data rows, want {want}"
        f = self.reference_fidelity(self.inputs["eta"], self.inputs["t_ramp"])
        return {"infidelity": 1.0 - f}

    def _csv_rows(self, name: str, outputs: dict) -> int:
        if name == "fig4.csv":
            return self.inputs["k_max"]
        schedule = outputs["step pulse"][0]
        return int(round(schedule.total_duration / self.inputs["dt_out"])) + 1


def operations(outputs: dict) -> int:
    """Operations attempted in one pass; validate counts one per oracle line."""
    if "cli validate" in outputs:
        return VALIDATE_CHECKS
    return len(outputs)
