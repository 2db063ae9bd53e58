#!/usr/bin/env python3
"""qutritchain benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload design|validate|chain-scan \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Inputs
are a pure function of the workload and seed (see workloads.py).  The run
sets BLAS to one thread, then makes closed-loop passes over the same
inputs, one after another, while the next still fits in S seconds (the
first always runs).  Every pass is checked.  Set-up is timed in fresh
processes before and, in untraced runs, between the timed calls
(SETUP_SPACING_S); setup_s is the median.

--trace 0 times each part of a pass on its own (a design pass is three
optimized points of unequal cost, ~5-12 s each; the other workloads have one
part) and keeps going part by part, so a run fills most of S seconds even
where a pass is half of S.  It reports the end-to-end metrics:
  setup_s      import of qutritchain plus input generation, s
  wall_s       wall time of one pass: the sum over its parts of each part's
               median time, s
  cpu_s        user + sys CPU time of one pass, summed the same way, s
  peak_rss_mb  peak resident memory of this fresh process through its first
               pass (later passes add allocator reuse effects, not workload)
  pass_frac    checked-good operations / attempted operations (1 - fail_frac)
  infidelity   design: mean 1 - F of the optimized pulses; validate and
               chain-scan: 1 - F of the analytic pulse they run, at dt = 1 ps
--trace 1 runs whole passes: an untraced warm-up pass, then untraced and
traced passes in turn.  It reports the per-layer metrics of
tracing.LAYER_METRICS (medians over the traced passes), with
trace.overhead_s = traced wall_s - untraced wall_s (medians, warm-up
excluded).  It always makes these first three passes, so on design, where a
pass takes about half of S, a traced run takes about 1.5 S.

The metric names and units are read from BENCHMARK.json.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
environment manifest, the per-layer report table and the spans are written
to bench/results/.  Exit status: 0 with a result, 2 for a checkout without
src/qutritchain or bad arguments, 1 if set-up fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
BLAS_THREADS = 1  # steadiest; must not exceed nproc
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up samples: SETUP_FIRST before the timed calls, then (untraced runs)
# one after any call that ends SETUP_SPACING_S after the previous sample, so
# that, like wall_s, setup_s is a median over the whole run: on a shared
# 2-vCPU host, import time shifted by up to 1.8x between runs a minute apart.
SETUP_FIRST = 2
SETUP_SPACING_S = 4.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it (used by the run)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup_once(workload: str, seed: int):
    """Import qutritchain and generate the inputs; returns (inputs, seconds)."""
    t0 = time.perf_counter()
    import workloads  # imports qutritchain and numpy

    inputs = workloads.make_inputs(workload, seed)
    return inputs, time.perf_counter() - t0


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _blas_threads_reported():
    """Thread count OpenBLAS reports, read through its C API; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None when ROOT is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                        None)
    except OSError:
        return None


def manifest(args, inputs) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # older numpy: no dict mode
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_set": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads_reported": _blas_threads_reported(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def run_calls(args, inputs, workdir, setups):
    """Timed, checked calls, one after another, while the next still fits in
    --seconds; the first round always runs.

    With --trace 0 a call runs one part of a pass (workloads.parts), in pass
    order, round after round.  With --trace 1 a call runs a whole pass:
    first an untraced warm-up, because the first pass in a process pays
    one-off page faults (glibc raises its mmap threshold only after the
    first large frees) that would otherwise be booked against the untraced
    side of trace.overhead_s; then untraced and traced passes alternate.
    Untraced runs append set-up samples to setups between calls.
    """
    import tracing
    import workloads

    checker = workloads.Checker(args.workload, inputs)
    workloads.prepare(args.workload, inputs, workdir)
    if args.trace:
        first, cycle = [("warm-up", None), ("plain", None), ("traced", None)], \
            [("plain", None), ("traced", None)]
    else:
        first = cycle = [("plain", part) for part in workloads.parts(args.workload, inputs)]
    calls = []
    start = last_setup = time.perf_counter()
    for i in itertools.count():
        kind, part = first[i] if i < len(first) else cycle[(i - len(first)) % len(cycle)]
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{i}") if kind == "traced" else None
        c0, t0 = time.process_time(), time.perf_counter()
        with tracer or contextlib.nullcontext():
            if part is None:
                outputs = workloads.run_pass(args.workload, inputs, workdir)
            else:
                outputs = workloads.run_part(args.workload, inputs, workdir, part)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracing.installed_wrappers():
            raise RuntimeError(f"wrappers left installed: {tracing.installed_wrappers()}")
        failures, quality = checker.check(outputs)
        attempted = workloads.operations(outputs)
        calls.append({"kind": kind, "part": part, "wall_s": wall, "cpu_s": cpu,
                     "rss_mb": rss_mb, "attempted": attempted,
                     "failed": min(len(failures), attempted), "failures": failures,
                     "quality": quality, "tracer": tracer})
        if not args.trace and time.perf_counter() - last_setup >= SETUP_SPACING_S:
            setups.append(setup_sample(args.workload, args.seed))
            last_setup = time.perf_counter()
        if i + 1 >= len(first):
            _, next_part = cycle[(i + 1 - len(first)) % len(cycle)]
            slowest = max(c["wall_s"] for c in calls if c["part"] == next_part)
            if time.perf_counter() - start + slowest > args.seconds:
                return calls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qutritchain", "__init__.py")):
        print(f"no qutritchain sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported, here and in children
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]

    if args.setup_only:
        _, seconds = setup_once(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    try:
        setups = [setup_sample(args.workload, args.seed) for _ in range(SETUP_FIRST)]
        inputs, _ = setup_once(args.workload, args.seed)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    import tracing

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        calls = run_calls(args, inputs, workdir, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    plain = [c for c in calls if c["kind"] == "plain"]

    def med(key, cs):
        return statistics.median(c[key] for c in cs)

    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"manifest": manifest(args, inputs), "setup_samples_s": setups,
              "calls": [{k: v for k, v in c.items() if k != "tracer"} for c in calls]}

    if args.trace:
        traced = [c for c in calls if c["kind"] == "traced"]
        per_pass = [c["tracer"].metrics(c["wall_s"]) for c in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in tracing.LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
        units = tracing.LAYER_METRICS
        report = tracing.report_table(args.workload, metrics)
        with open(stem + "-spans.json", "w") as f:
            json.dump([c["tracer"].record() for c in traced], f)
        record["report"] = report
        print(report)
    else:
        # A pass is its parts run once: sum each part's median over the rounds.
        by_part = {}
        for c in plain:
            by_part.setdefault(c["part"], []).append(c)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(med("wall_s", cs) for cs in by_part.values()),
            "cpu_s": sum(med("cpu_s", cs) for cs in by_part.values()),
            "peak_rss_mb": plain[len(by_part) - 1]["rss_mb"],
            "pass_frac": (attempted - failed) / attempted,
            "infidelity": statistics.mean(
                statistics.median(c["quality"]["infidelity"] for c in cs)
                for cs in by_part.values()
            ),
        }
        units = END_TO_END
    record["metrics"] = metrics
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    print("manifest: " + json.dumps(record["manifest"], default=str))
    for c in calls:
        for op, reason in c["failures"].items():
            print(f"FAILED {op}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
