"""Experiment runner: reproduces the pulse table, population traces, chain
schedule, and error-scaling data as machine-readable files.

Exit codes: 0 success, 1 numerical-convergence failure or failed write,
2 invalid config (an output directory that cannot be created included).
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator

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
CSV_BLOCK_ROWS = 2048  # rows write_csv formats and writes at a time


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
        t_qst = self.pulse_duration()
        if t_qst < 2.0 * self.t_ramp:
            raise ValueError(
                f"t_ramp = {self.t_ramp} ns leaves the analytic pulse no plateau: "
                f"t_ramp must be at most 8 pi / eta_angular = 4000 / eta = "
                f"{4000.0 / self.eta:.6g} ns"
            )
        _check_samples("the pulse grid t_qst / dt", t_qst / self.dt)

    def pulse_duration(self) -> float:
        """Analytic t_qst in ns, the length of one transfer pulse."""
        return _analytic(self)[1]


# (flag, ExperimentConfig field, type) of each config flag
_CONFIG_FLAGS = (
    ("--eta-mhz", "eta", float),
    ("--t-ramp-ns", "t_ramp", float),
    ("--dt-ns", "dt", float),
    ("--t1-us", "t1", float),
    ("--t2-us", "t2", float),
    ("--n-steps", "n_steps", int),
    ("--out", "output_dir", str),
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with ExperimentConfig keys")
    for flag, _, kind in _CONFIG_FLAGS:
        p.add_argument(flag, type=kind)


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
    for flag, name, _ in _CONFIG_FLAGS:
        v = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
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


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to a temp file in path's directory, then move it
    onto path.  If a chunk fails (the iterable raises), the temp file is
    removed and a file already at path is left as it was."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _int_cells(column) -> list[str]:
    """Cells "%d"; a cell that is not an integer is a TypeError."""
    return list(map(str, map(operator.index, column)))


def _float_cells(column) -> np.ndarray:
    """Cells "%.11e" (12 significant digits), each distinct float bit
    pattern formatted once; -0.0, NaN and +-inf keep Python's text."""
    bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.int64), return_inverse=True)
    text = np.array([f"{x:.11e}" for x in bits.view(float).tolist()], dtype=object)
    return text[inverse]


def _csv_chunks(header: list[str], rows) -> Iterator[str]:
    yield ",".join(header) + "\n"
    rows = iter(rows)
    columns = None
    while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
        if columns is None:
            columns = [_int_cells if isinstance(v, (int, np.integer)) else _float_cells
                       for v in block[0]]
        if set(map(len, block)) != {len(columns)}:
            raise ValueError(f"every CSV row needs the first row's {len(columns)} cells")
        cells = [cells_of(col) for cells_of, col in zip(columns, zip(*block))]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_csv(path: str, header: list[str], rows) -> None:
    """Write header and rows (any iterable of equal-length tuples) to path
    as CSV, atomically.

    Each column takes its type from its first row: integers (int or
    np.integer) are written as "%d", anything else as a float "%.11e"
    (12 significant digits).  Rows are formatted and written CSV_BLOCK_ROWS
    at a time, so the whole text is never held, and within a block each
    distinct float value is formatted once.  The bytes are those of
    formatting cell by cell.  Rows of unequal length are a ValueError.  If
    rows raises, so does write_csv, and a file already at path is left as
    it was.
    """
    _atomic_write(path, _csv_chunks(header, rows))


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_sidecar(path: str, cfg: ExperimentConfig) -> None:
    stem, _ = os.path.splitext(path)
    write_json(stem + ".config.json", {"config": asdict(cfg)})


def _analytic(cfg: ExperimentConfig) -> tuple[float, float]:
    """analytic_params without its coupler-cap warning.  table1 reports the
    cap as coupling_cap_exceeded, from its analytic and numerical g_max."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return analytic_params(cfg.eta, t_ramp=cfg.t_ramp)


def _optimize(cfg: ExperimentConfig) -> TransferReport:
    return transfer.optimize_pulse(cfg.eta, cfg.t_ramp, _analytic(cfg), dt=cfg.dt)


def cmd_table1(cfg: ExperimentConfig, analytic_only: bool) -> int:
    g_a, t_a = _analytic(cfg)
    u = transfer.evolve_transfer(TrapezoidPulse(g_a, t_a, cfg.t_ramp), cfg.eta, dt=cfg.dt)
    rep_a = transfer.measure_report(u, g_a, t_a)
    payload = {"config": asdict(cfg), "analytic": rep_a.to_dict()}
    g_top = g_a
    if not analytic_only:
        rep_n = _optimize(cfg)
        payload["numerical"] = rep_n.to_dict()
        g_top = max(g_a, rep_n.g_max)
    payload["coupling_cap_exceeded"] = bool(g_top > COUPLING_CAP_MHZ)
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

    g_a, t_a = _analytic(cfg)

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
        if args.command == "errors" and cfg.n_steps < 3:
            raise ValueError("errors needs n_steps >= 3 for its power-law fits")
        if args.command == "populations":
            _check_output_grid(cfg, args.dt_out_ns, 1, 3)  # t, p01, p02
        if args.command == "schedule":
            # t and one coupling per edge
            _check_output_grid(cfg, args.dt_out_ns, args.n_qutrits - 1, args.n_qutrits)
        if args.command != "validate":  # every other command writes files
            os.makedirs(cfg.output_dir, exist_ok=True)
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
    except OSError as exc:
        print(f"write failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
