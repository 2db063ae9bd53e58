"""Experiment runner: reproduces the pulse table, population traces, chain
schedule, and error-scaling data as machine-readable files.

Exit codes: 0 success, 1 numerical-convergence failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import analysis, chain, noise, transfer
from .model import COUPLING_CAP_MHZ, rwa_residual
from .pulse import TrapezoidPulse, analytic_params
from .transfer import TransferReport

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

# Most samples one curve may have: the midpoint grid of a transfer pulse
# (t_qst / dt), an error curve (n_steps points) and an output CSV (duration
# / dt_out rows times its columns).  t_qst is taken as the analytic value,
# which the optimizer moves by a few percent at most.  The paper's settings
# need a few 10^4 (22 ns at 1 ps).
MAX_SAMPLES = 1_000_000


def _check_samples(what: str, count: float) -> None:
    if count > MAX_SAMPLES:
        raise ValueError(f"{what} needs ~{count:.3g} samples, over the bound of {MAX_SAMPLES}")


@dataclass
class ExperimentConfig:
    eta: float = 200.0          # MHz
    t_ramp: float = 2.0         # ns
    dt: float = 0.001           # ns
    t1: float = 60.0            # us
    t2: float = 60.0            # us
    n_steps: int = 200
    output_dir: str = "."

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, float) and (
                isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v)
            ):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, (int, np.integer)):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.t_ramp < 0:
            raise ValueError("t_ramp must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("t1 and t2 must be positive")
        if self.t2 > 2.0 * self.t1 + 1e-12:
            raise ValueError(f"T2 = {self.t2} us exceeds 2 T1 = {2 * self.t1} us")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        _check_samples("n_steps", self.n_steps)
        _check_samples("the pulse grid t_qst / dt", self.pulse_duration() / self.dt)

    def pulse_duration(self) -> float:
        """Analytic t_qst in ns, the length of one transfer pulse."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coupler cap: not a config error
            return analytic_params(self.eta, t_ramp=self.t_ramp)[1]


_FLAG_TO_FIELD = {
    "eta_mhz": "eta",
    "t_ramp_ns": "t_ramp",
    "dt_ns": "dt",
    "t1_us": "t1",
    "t2_us": "t2",
    "n_steps": "n_steps",
    "out": "output_dir",
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with ExperimentConfig keys")
    p.add_argument("--eta-mhz", type=float, dest="eta_mhz")
    p.add_argument("--t-ramp-ns", type=float, dest="t_ramp_ns")
    p.add_argument("--dt-ns", type=float, dest="dt_ns")
    p.add_argument("--t1-us", type=float, dest="t1_us")
    p.add_argument("--t2-us", type=float, dest="t2_us")
    p.add_argument("--n-steps", type=int, dest="n_steps")
    p.add_argument("--out", dest="out")


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then config-file values, then explicit flags."""
    values = asdict(ExperimentConfig())
    if os.environ.get("QST_OUT_DIR"):
        values["output_dir"] = os.environ["QST_OUT_DIR"]
    if args.config:
        with open(args.config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        known = {f.name for f in fields(ExperimentConfig)}
        bad = set(loaded) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        values.update(loaded)
    for flag, name in _FLAG_TO_FIELD.items():
        v = getattr(args, flag, None)
        if v is not None:
            values[name] = v
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _check_output_grid(cfg: ExperimentConfig, dt_out: float, n_pulses: int, n_columns: int) -> None:
    """dt_out must be finite and positive, and n_pulses pulses sampled every
    dt_out into rows of n_columns values must fit in MAX_SAMPLES cells."""
    if not (np.isfinite(dt_out) and dt_out > 0):
        raise ValueError(f"dt_out_ns must be a finite positive number, got {dt_out!r}")
    rows = n_pulses * cfg.pulse_duration() / dt_out
    _check_samples("the output grid (duration / dt_out rows x columns)", rows * n_columns)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.11e}"  # 12 significant digits


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_sidecar(path: str, cfg: ExperimentConfig) -> None:
    stem, _ = os.path.splitext(path)
    write_json(stem + ".config.json", {"config": asdict(cfg)})


def _optimize(cfg: ExperimentConfig) -> TransferReport:
    seed = analytic_params(cfg.eta, t_ramp=cfg.t_ramp)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = transfer.optimize_pulse(cfg.eta, cfg.t_ramp, seed, dt=cfg.dt)
    for w in caught:
        if "failed to improve" in str(w.message):
            raise RuntimeError(str(w.message))
    return report


def cmd_table1(cfg: ExperimentConfig, analytic_only: bool) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # coupler-cap warning is reported below
        g_a, t_a = analytic_params(cfg.eta, t_ramp=cfg.t_ramp)
    u = transfer.evolve_transfer(TrapezoidPulse(g_a, t_a, cfg.t_ramp), cfg.eta, dt=cfg.dt)
    rep_a = transfer.measure_report(u, g_a, t_a)
    payload = {
        "config": asdict(cfg),
        "analytic": json.loads(rep_a.to_json()),
        "coupling_cap_exceeded": bool(g_a > COUPLING_CAP_MHZ),
    }
    if not analytic_only:
        rep_n = _optimize(cfg)
        payload["numerical"] = json.loads(rep_n.to_json())
    write_json(os.path.join(cfg.output_dir, "table1.json"), payload)
    return EXIT_OK


def cmd_populations(cfg: ExperimentConfig, dt_out: float) -> int:
    rep = _optimize(cfg)
    pulse = TrapezoidPulse(rep.g_max, rep.t_qst, cfg.t_ramp)
    ts, p01, p02 = transfer.population_series(pulse, cfg.eta, dt=cfg.dt, dt_out=dt_out)
    path = os.path.join(cfg.output_dir, "fig2b.csv")
    write_csv(path, ["t_ns", "p01", "p02"], zip(ts, p01, p02))
    _write_sidecar(path, cfg)
    return EXIT_OK


def cmd_schedule(cfg: ExperimentConfig, n_qutrits: int, dt_out: float) -> int:
    rep = _optimize(cfg)
    sched = chain.ChainSchedule(
        TrapezoidPulse(rep.g_max, rep.t_qst, cfg.t_ramp),
        n_qutrits - 1,
        (rep.phase_1, rep.phase_2),
    )
    n_out = int(round(sched.total_duration / dt_out))
    ts = np.linspace(0.0, sched.total_duration, n_out + 1)
    g = sched.coupling_values(ts)
    path = os.path.join(cfg.output_dir, "fig3.csv")
    header = ["t_ns"] + [f"g{k + 1}" for k in range(n_qutrits - 1)]
    write_csv(path, header, zip(ts, *g))
    _write_sidecar(path, cfg)
    return EXIT_OK


def cmd_errors(cfg: ExperimentConfig) -> int:
    rep = _optimize(cfg)
    _, u_step, comp = chain.make_schedule(
        rep.g_max, rep.t_qst, cfg.t_ramp, cfg.eta, cfg.n_steps, dt=cfg.dt
    )
    intr = chain.intrinsic_error_curve(cfg.n_steps, u_step, comp)
    deco = noise.decoherence_error_curve(cfg.n_steps, rep.t_qst, cfg.t1, cfg.t2)

    path = os.path.join(cfg.output_dir, "fig4.csv")
    rows = zip(intr[:, 0].astype(int), intr[:, 1], deco[:, 1])
    write_csv(path, ["k", "error_intrinsic", "error_decoherence"], rows)
    _write_sidecar(path, cfg)

    fit_a = analysis.fit_power(intr, 4)
    fit_b = analysis.fit_power(deco, 1)
    exp_free, pre_free = analysis.free_exponent_fit(intr)
    write_json(
        os.path.join(cfg.output_dir, "fits.json"),
        {
            "config": asdict(cfg),
            "intrinsic": asdict(fit_a),
            "decoherence": asdict(fit_b),
            "k_star": analysis.crossover(fit_a, fit_b),
            "intrinsic_free_fit": {"exponent": exp_free, "prefactor": pre_free},
        },
    )
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig) -> int:
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    g_a, t_a = analytic_params(cfg.eta, t_ramp=cfg.t_ramp)

    for n in (2, 3, 4):
        gap = chain.validate_front_vs_full(n, g_a, t_a, cfg.t_ramp, cfg.eta, dt=cfg.dt)
        record(f"front-vs-full n={n}", gap < 1e-10, f"overlap gap {gap:.2e}")

    pulse = TrapezoidPulse(g_a, t_a, cfg.t_ramp)
    residuals = [
        rwa_residual(cfg.eta, pulse.value, (0.0, t_a), omega, dt=cfg.dt)
        for omega in (2000.0, 4000.0, 8000.0)
    ]
    record(
        "rwa-residual sweep 2/4/8 GHz",
        all(r < 0.2 for r in residuals) and residuals[0] > residuals[1] > residuals[2],
        "residuals " + ", ".join(f"{r:.2e}" for r in residuals),
    )

    for name, ch in (
        ("amplitude", noise.amplitude_damping(cfg.n_steps * t_a, cfg.t1)),
        ("phase", noise.phase_damping(cfg.n_steps * t_a, cfg.t1, cfg.t2)),
    ):
        d = ch.completeness_defect()
        record(f"kraus completeness ({name})", d < 1e-12, f"defect {d:.2e}")

    f1 = transfer.qst_fidelity(transfer.evolve_transfer(pulse, cfg.eta, dt=cfg.dt))
    f2 = transfer.qst_fidelity(transfer.evolve_transfer(pulse, cfg.eta, dt=cfg.dt / 2))
    record("dt-halving convergence", abs(f1 - f2) < 1e-8, f"fidelity shift {abs(f1 - f2):.2e}")

    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutritchain",
        description="Qutrit state-transfer simulator for tunably coupled transmon chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="analytic and optimized pulse parameters")
    _add_config_flags(p)
    p.add_argument("--analytic-only", action="store_true")

    p = sub.add_parser("populations", help="transfer population traces (fig2b.csv)")
    _add_config_flags(p)
    p.add_argument("--dt-out-ns", type=float, default=0.05, dest="dt_out_ns")

    p = sub.add_parser("schedule", help="concatenated coupling schedule (fig3.csv)")
    _add_config_flags(p)
    p.add_argument("--n-qutrits", type=int, default=4, dest="n_qutrits")
    p.add_argument("--dt-out-ns", type=float, default=0.05, dest="dt_out_ns")

    p = sub.add_parser("errors", help="error-scaling curves and fits (fig4.csv, fits.json)")
    _add_config_flags(p)

    p = sub.add_parser("validate", help="run the numerical oracle suite")
    _add_config_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "schedule" and args.n_qutrits < 2:
            raise ValueError("schedule needs at least 2 qutrits")
        if args.command == "populations":
            _check_output_grid(cfg, args.dt_out_ns, 1, 3)  # t, p01, p02
        if args.command == "schedule":
            # t and one coupling per edge
            _check_output_grid(cfg, args.dt_out_ns, args.n_qutrits - 1, args.n_qutrits)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "table1":
            return cmd_table1(cfg, args.analytic_only)
        if args.command == "populations":
            return cmd_populations(cfg, args.dt_out_ns)
        if args.command == "schedule":
            return cmd_schedule(cfg, args.n_qutrits, args.dt_out_ns)
        if args.command == "errors":
            return cmd_errors(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
    except (RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
