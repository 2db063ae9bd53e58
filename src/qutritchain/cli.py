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
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from . import analysis, chain, noise, transfer
from .evolution import _finite
from .model import COUPLING_CAP_MHZ, _check_eta, rwa_residual
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
CSV_BLOCK_ROWS = 128  # rows write_csv formats and writes at a time


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
        for _, name, kind in _CONFIG_FLAGS:
            _checked(name, getattr(self, name), kind)
        _check_eta(self.eta)
        # a subnormal ramp time is too small for the step arithmetic: its
        # midpoints lose their bits (0.5 * 5e-324 rounds to 0), and
        # 1 / t_ramp overflows
        if not (self.t_ramp == 0.0 or self.t_ramp >= np.finfo(float).tiny):
            raise ValueError(
                f"t_ramp must be 0 or at least {np.finfo(float).tiny:.4g} ns, got {self.t_ramp}"
            )
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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
        # the lifetimes over the longest idle time: validate's channels and
        # the decoherence curve's last step
        noise.check_lifetimes(self.n_steps * t_qst, self.t1, self.t2)

    def pulse_duration(self) -> float:
        """Analytic t_qst in ns, the length of one transfer pulse."""
        return _analytic(self)[1]


# (flag, ExperimentConfig field, kind) of each config flag; the kind is
# argparse's type for the flag and the type _checked holds any value to
_CONFIG_FLAGS = (
    ("--eta-mhz", "eta", float),
    ("--t-ramp-ns", "t_ramp", float),
    ("--dt-ns", "dt", float),
    ("--t1-us", "t1", float),
    ("--t2-us", "t2", float),
    ("--n-steps", "n_steps", int),
    ("--out", "output_dir", str),
)


def _checked(name: str, value, kind: type):
    """value, if it is of the kind its flag declares: a str for str; an int
    for int, or an int or a float for float, never a bool, and at most the
    largest float in size (evolution._finite), which refuses NaN, +-inf
    and an int past the float range without converting it.  ValueError
    otherwise."""
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool) and _finite(value)
    if not ok:
        what = "a string" if kind is str else f"a finite {kind.__name__} within the float range"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


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
        bad = loaded.keys() - values  # values holds every config key
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
    if _checked("dt_out_ns", dt_out, float) <= 0:
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


def _float_cells(values: np.ndarray) -> np.ndarray:
    """Cells "%.11e" (12 significant digits) of a float array, in its shape,
    each distinct float bit pattern formatted once; -0.0, NaN and +-inf keep
    Python's text."""
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    text = np.array([f"{x:.11e}" for x in bits.view(float).tolist()], dtype=object)
    return text[inverse].reshape(values.shape)


def _csv_chunks(header: list[str], rows) -> Iterator[str]:
    yield ",".join(header) + "\n"
    rows = iter(rows)
    block = list(itertools.islice(rows, CSV_BLOCK_ROWS))
    first = block[0] if block else ()
    ints = [j for j, v in enumerate(first) if isinstance(v, (int, np.integer))]
    floats = [j for j in range(len(first)) if j not in ints]
    while block:
        if set(map(len, block)) != {len(first)}:
            raise ValueError(f"every CSV row needs the first row's {len(first)} cells")
        if ints:  # int cells go through operator.index, never through float
            cells = np.array(block, dtype=object)
            for j in ints:
                cells[:, j] = _int_cells(cells[:, j])
            cells[:, floats] = _float_cells(cells[:, floats].astype(float))
        else:
            cells = _float_cells(np.array(block, dtype=float))
        yield "\n".join(map(",".join, cells.tolist())) + "\n"
        block = list(itertools.islice(rows, CSV_BLOCK_ROWS))


def write_csv(path: str, header: list[str], rows) -> None:
    """Write header and rows (any iterable of equal-length tuples) to path
    as CSV, atomically.

    Each column takes its type from its first row: integers (int or
    np.integer) are written as "%d", anything else as a float "%.11e"
    (12 significant digits).  Rows are formatted and written CSV_BLOCK_ROWS
    at a time, so only one block is held: its float columns as one 2-D
    float array, formatted in one pass with each distinct value formatted
    once, and its integer columns through operator.index, never through
    float.  The bytes are those of formatting cell by cell.  Rows of
    unequal length are a ValueError.  If rows raises, so does write_csv,
    and a file already at path is left as it was.
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


def cmd_table1(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    g_a, t_a = _analytic(cfg)
    u = transfer.evolve_transfer(TrapezoidPulse(g_a, t_a, cfg.t_ramp), cfg.eta, dt=cfg.dt)
    reports = {"analytic": transfer.measure_report(u, g_a, t_a)}
    if not args.analytic_only:
        reports["numerical"] = _optimize(cfg)
    payload = {name: rep.to_dict() for name, rep in reports.items()}
    payload["config"] = asdict(cfg)
    payload["coupling_cap_exceeded"] = any(r.g_max > COUPLING_CAP_MHZ for r in reports.values())
    write_json(os.path.join(cfg.output_dir, "table1.json"), payload)
    return EXIT_OK


def cmd_populations(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    rep = _optimize(cfg)
    pulse = TrapezoidPulse(rep.g_max, rep.t_qst, cfg.t_ramp)
    ts, p01, p02 = transfer.population_series(pulse, cfg.eta, dt=cfg.dt, dt_out=args.dt_out_ns)
    path = os.path.join(cfg.output_dir, "fig2b.csv")
    write_csv(path, ["t_ns", "p01", "p02"], zip(ts, p01, p02))
    _write_sidecar(path, cfg)
    return EXIT_OK


def cmd_schedule(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    rep = _optimize(cfg)
    sched, _, _ = chain.make_schedule(
        rep.g_max, rep.t_qst, cfg.t_ramp, cfg.eta, args.n_qutrits - 1, dt=cfg.dt
    )
    n_out = int(round(sched.total_duration / args.dt_out_ns))
    ts = np.linspace(0.0, sched.total_duration, n_out + 1)
    path = os.path.join(cfg.output_dir, "fig3.csv")
    header = ["t_ns"] + [f"g{k + 1}" for k in range(sched.n_steps)]
    write_csv(path, header, zip(ts, *sched.coupling_values(ts)))
    _write_sidecar(path, cfg)
    return EXIT_OK


def cmd_errors(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    rep = _optimize(cfg)
    _, u_step, comp = chain.make_schedule(
        rep.g_max, rep.t_qst, cfg.t_ramp, cfg.eta, cfg.n_steps, dt=cfg.dt
    )
    intr = chain.intrinsic_error_curve(cfg.n_steps, u_step, comp)
    deco = noise.decoherence_error_curve(cfg.n_steps, rep.t_qst, cfg.t1, cfg.t2)

    # every fit before the first file, so a failed fit leaves no output.  A
    # curve that is 0 to roundoff (an exact transfer, or lifetimes too long
    # for any decoherence to show) has no log-log fit or no crossover: that
    # value is null, and "note" gives the reason
    fit_a = analysis.fit_power(intr, 4)
    fit_b = analysis.fit_power(deco, 1)
    notes = []

    def unless_degenerate(key, fit, *args):
        try:
            return fit(*args)
        except ValueError as exc:
            notes.append(f"{key} is null: {exc}")
            return None

    free = unless_degenerate("intrinsic_free_fit", analysis.free_exponent_fit, intr)
    if free is None:
        # the quartic prefactor of a curve at roundoff is noise, and so is
        # any k* from it
        notes.append("k_star is null: the intrinsic error is at roundoff")
    fits = {
        "config": asdict(cfg),
        "intrinsic": asdict(fit_a),
        "decoherence": asdict(fit_b),
        "k_star": free and unless_degenerate("k_star", analysis.crossover, fit_a, fit_b),
        "intrinsic_free_fit": free and {"exponent": free[0], "prefactor": free[1]},
    }
    if notes:
        fits["note"] = "; ".join(notes)

    path = os.path.join(cfg.output_dir, "fig4.csv")
    rows = zip(intr[:, 0].astype(int), intr[:, 1], deco[:, 1])
    write_csv(path, ["k", "error_intrinsic", "error_decoherence"], rows)
    _write_sidecar(path, cfg)
    write_json(os.path.join(cfg.output_dir, "fits.json"), fits)
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
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
        record(f"kraus completeness ({name})", d <= noise.COMPLETENESS_TOL, f"defect {d:.2e}")

    f1 = transfer.qst_fidelity(transfer.evolve_transfer(pulse, cfg.eta, dt=cfg.dt))
    f2 = transfer.qst_fidelity(transfer.evolve_transfer(pulse, cfg.eta, dt=cfg.dt / 2))
    record("dt-halving convergence", abs(f1 - f2) < 1e-8, f"fidelity shift {abs(f1 - f2):.2e}")

    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_NUMERICAL


def _check_populations(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    _check_output_grid(cfg, args.dt_out_ns, 1, 3)  # t, p01, p02


def _check_schedule(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    if _checked("n_qutrits", args.n_qutrits, int) < 2:
        raise ValueError("schedule needs at least 2 qutrits")
    # t and one coupling per edge
    _check_output_grid(cfg, args.dt_out_ns, args.n_qutrits - 1, args.n_qutrits)


def _check_errors(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    if cfg.n_steps < analysis.MIN_FIT_POINTS:
        raise ValueError(f"errors needs n_steps >= {analysis.MIN_FIT_POINTS} for its fits")


def _make_output_dir(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    os.makedirs(cfg.output_dir, exist_ok=True)


_DT_OUT = ("--dt-out-ns", {"type": float, "default": 0.05})
# Each subcommand once: (name, help, runner, the checks main runs on the
# config and flags before any work, its flags beyond the config flags).
# Every command but validate writes files, so it checks the output dir.
_COMMANDS = (
    ("table1", "analytic and optimized pulse parameters", cmd_table1,
     (_make_output_dir,), [("--analytic-only", {"action": "store_true"})]),
    ("populations", "transfer population traces (fig2b.csv)", cmd_populations,
     (_check_populations, _make_output_dir), [_DT_OUT]),
    ("schedule", "concatenated coupling schedule (fig3.csv)", cmd_schedule,
     (_check_schedule, _make_output_dir),
     [("--n-qutrits", {"type": int, "default": 4}), _DT_OUT]),
    ("errors", "error-scaling curves and fits (fig4.csv, fits.json)", cmd_errors,
     (_check_errors, _make_output_dir), []),
    ("validate", "run the numerical oracle suite", cmd_validate, (), []),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutritchain",
        description="Qutrit state-transfer simulator for tunably coupled transmon chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run, checks, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with ExperimentConfig keys")
        for flag, _, kind in _CONFIG_FLAGS:
            p.add_argument(flag, type=kind)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(run=run, checks=checks)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        for check in args.checks:
            check(cfg, args)
    except (ValueError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return args.run(cfg, args)
    except (RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"write failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
