"""Per-layer tracing: wrap public qutritchain functions where they are called.

A wrapper replaces the module attribute that the caller looks up (for example
``transfer.evolve_affine``, which ``evolve_transfer`` calls, and
``chain.evolve_affine``, which the full-chain oracle calls).  Span wrappers
record (name, tag, start, end, parent, run id) in memory; count wrappers
only count, for functions called thousands of times per pass.  Leaving the
``Tracer`` context restores every attribute it replaced.

Span names are ``<layer>.<function>``, where the layer is the module that
defines the function, not the one that imports it.  A layer's self time is
the summed duration of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from qutritchain import analysis, chain, cli, model, noise, pulse, transfer

LAYERS = ("pulse", "evolution", "model", "transfer", "chain", "noise", "analysis", "cli")

# Golub & Van Loan, symmetric QR with eigenvectors: ~9 d^3 real flops per
# d x d matrix; a complex Hermitian matrix costs ~4x (4 real multiply-adds
# per complex one).  Computed from the shapes, not measured.
EIGH_FLOPS_REAL = 9
EIGH_FLOPS_COMPLEX = 36

# (module whose attribute is replaced, attribute, span name, kind)
TARGETS = (
    (pulse, "solve_constraint", "pulse.solve_constraint", "span"),
    (pulse, "effective_area", "pulse.effective_area", "count"),
    (transfer, "evolve_affine", "evolution.evolve_affine", "span"),
    (chain, "evolve_affine", "evolution.evolve_affine", "span"),
    (model, "evolve", "evolution.evolve", "span"),
    (np.linalg, "eigh", "evolution.eigh", "eigh"),
    (cli, "rwa_residual", "model.rwa_residual", "span"),
    (transfer, "optimize_pulse", "transfer.optimize_pulse", "span"),
    (transfer, "evolve_transfer", "transfer.evolve_transfer", "span"),
    (chain, "evolve_transfer", "transfer.evolve_transfer", "span"),
    (transfer, "population_series", "transfer.population_series", "span"),
    (transfer, "qst_fidelity", "transfer.qst_fidelity", "span"),
    (chain, "make_schedule", "chain.make_schedule", "span"),
    (chain, "validate_front_vs_full", "chain.validate_front_vs_full", "span"),
    (chain, "evolve_chain_full", "chain.evolve_chain_full", "span"),
    (chain, "intrinsic_error_curve", "chain.intrinsic_error_curve", "span"),
    (chain, "step_transfer", "chain.step_transfer", "count"),
    (noise, "decoherence_error_curve", "noise.decoherence_error_curve", "span"),
    (noise, "amplitude_damping", "noise.channels_built", "count"),
    (noise, "phase_damping", "noise.channels_built", "count"),
    (analysis, "fit_power", "analysis.fit_power", "span"),
    (analysis, "free_exponent_fit", "analysis.free_exponent_fit", "span"),
    (analysis, "crossover", "analysis.crossover", "span"),
    (cli, "main", "cli.main", "span"),
    (cli, "write_csv", "cli.write_csv", "span"),
    (cli, "write_json", "cli.write_json", "span"),
)

# {name: unit} of every per-layer metric the traced run reports, as
# BENCHMARK.json lists them.
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _f:
    LAYER_METRICS = {m["name"]: m["unit"] for m in json.load(_f)["per_layer"]}


def _steps(t_span, dt) -> int:
    """Midpoint steps evolve/evolve_affine take for t_span at dt."""
    t0, t1 = t_span
    return max(1, int(round((t1 - t0) / dt))) if t1 > t0 else 0


class Tracer:
    """Context manager that installs the wrappers for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation --------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, kind in TARGETS:
                orig = getattr(module, attr)
                make = {"span": self._span, "count": self._count, "eigh": self._eigh}[kind]
                self._saved.append((module, attr, orig))
                setattr(module, attr, make(orig, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    # -- wrappers --------------------------------------------------------
    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def _open(self, name: str, tag: str | None) -> int:
        self.counts[name] += 1
        self.counts[(name, self._parent_name())] += 1
        self.spans.append({"name": name, "tag": tag, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "run": self.run_id})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def _span(self, orig, name: str):
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tag = None
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            if name in ("evolution.evolve_affine", "evolution.evolve"):
                self.counts["evolution.steps"] += _steps(arg["t_span"], arg["dt"])
            elif name == "transfer.population_series":
                # Steps it integrates itself, through evolution's step unitaries.
                self.counts["evolution.steps"] += _steps((0.0, arg["g_pulse"].t_total), arg["dt"])
            elif name == "chain.validate_front_vs_full":
                tag = f"n{arg['n']}"
            idx = self._open(name, tag)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(idx)
                if name in ("cli.write_csv", "cli.write_json"):
                    path = arg["path"]
                    if os.path.exists(path):
                        self.counts["cli.bytes_written"] += os.path.getsize(path)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _count(self, orig, name: str):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            self.counts[(name, self._parent_name())] += 1
            return orig(*args, **kwargs)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _eigh(self, orig, name: str):
        @functools.wraps(orig)
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "qutritchain.evolution":
                return orig(a, *args, **kwargs)
            a_arr = np.asarray(a)
            d = a_arr.shape[-1]
            mats = int(np.prod(a_arr.shape[:-2], dtype=np.int64))
            per = EIGH_FLOPS_COMPLEX if np.iscomplexobj(a_arr) else EIGH_FLOPS_REAL
            self.counts[f"evolution.eigh_mats.d{d}"] += mats
            self.counts["evolution.eigh_mats"] += mats
            self.counts["evolution.eigh_flop_computed"] += per * mats * d**3
            idx = self._open(name, f"d{d}")
            try:
                return orig(a, *args, **kwargs)
            finally:
                self._close(idx)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- results ---------------------------------------------------------
    def total(self, name: str, tag: str | None = None) -> float:
        """Summed duration of spans called name (and tagged tag, if given)."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (tag is None or s["tag"] == tag)
        )

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            d = s["end"] - s["start"]
            layer = s["name"].split(".")[0]
            out[layer] += d
            if s["parent"] is not None:
                parent_layer = self.spans[s["parent"]]["name"].split(".")[0]
                out[parent_layer] -= d
        return out

    def metrics(self, wall: float) -> dict[str, float]:
        """Every LAYER_METRICS value but trace.overhead_s, for a pass of wall s."""
        c, t = self.counts, self.total
        optimizes = c["transfer.optimize_pulse"]
        steps = c["evolution.steps"]
        intrinsic_s = t("chain.intrinsic_error_curve")
        intrinsic_steps = c[("chain.step_transfer", "chain.intrinsic_error_curve")]
        out = {
            "transfer.optimize_s": t("transfer.optimize_pulse"),
            "transfer.evals_per_optimize": (
                c[("transfer.evolve_transfer", "transfer.optimize_pulse")] / optimizes
                if optimizes else 0.0
            ),
            "transfer.evolve_transfer_calls": c["transfer.evolve_transfer"],
            "transfer.evolve_transfer_s": t("transfer.evolve_transfer"),
            "transfer.population_series_s": t("transfer.population_series"),
            "transfer.qst_fidelity_s": t("transfer.qst_fidelity"),
            "evolution.evolve_affine_calls": c["evolution.evolve_affine"],
            "evolution.evolve_affine_s": t("evolution.evolve_affine"),
            "evolution.evolve_s": t("evolution.evolve"),
            "evolution.steps": steps,
            "evolution.eigh_s": t("evolution.eigh"),
            "evolution.eigh_mats.d9": c["evolution.eigh_mats.d9"],
            "evolution.eigh_mats.d27": c["evolution.eigh_mats.d27"],
            "evolution.eigh_mats.d81": c["evolution.eigh_mats.d81"],
            "evolution.eigh_per_step": c["evolution.eigh_mats"] / steps if steps else 0.0,
            "evolution.eigh_flop_computed": c["evolution.eigh_flop_computed"],
            "chain.oracle_s.n2": t("chain.validate_front_vs_full", "n2"),
            "chain.oracle_s.n3": t("chain.validate_front_vs_full", "n3"),
            "chain.oracle_s.n4": t("chain.validate_front_vs_full", "n4"),
            "chain.evolve_chain_full_s": t("chain.evolve_chain_full"),
            "chain.front_steps": c["chain.step_transfer"],
            "chain.front_steps_per_s": intrinsic_steps / intrinsic_s if intrinsic_s else 0.0,
            "model.rwa_residual_s": t("model.rwa_residual"),
            "pulse.solve_constraint_s": t("pulse.solve_constraint"),
            "pulse.effective_area_calls": c["pulse.effective_area"],
            "noise.decoherence_curve_s": t("noise.decoherence_error_curve"),
            "noise.channels_built": c["noise.channels_built"],
            "analysis.fit_s": sum(
                t(f"analysis.{f}") for f in ("fit_power", "free_exponent_fit", "crossover")
            ),
            "cli.write_s": t("cli.write_csv") + t("cli.write_json"),
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.wall_s": wall,
        }
        for layer, s in self.self_times().items():
            out[f"{layer}.self_share"] = s / wall
        return out

    def record(self) -> dict:
        """Spans and counts, JSON-ready."""
        counts = {k if isinstance(k, str) else f"{k[0]} <- {k[1]}": v
                  for k, v in self.counts.items()}
        return {"run": self.run_id, "spans": self.spans, "counts": counts}


def installed_wrappers() -> list[str]:
    """Targets whose attribute is currently a tracer wrapper (should be none)."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in TARGETS
        if getattr(getattr(module, attr), "__wrapped_by_tracer__", False)
    ]


def report_table(workload: str, metrics: dict[str, float]) -> str:
    """Markdown report: layer self time as a share of the traced wall_s, then
    every layer metric.  Later changes size their gains from it."""
    base = metrics["trace.wall_s"]
    rows = [f"### {workload}: per-layer report (base: traced wall_s = {base:.3f} s)", "",
            "| layer | self s | share of wall_s |", "|---|---|---|"]
    shares = {layer: metrics[f"{layer}.self_share"] for layer in LAYERS}
    for layer, share in shares.items():
        rows.append(f"| {layer} | {share * base:.4f} | {share:.4f} |")
    rest = base * (1.0 - sum(shares.values()))
    rows.append(f"| (benchmark glue) | {rest:.4f} | {rest / base:.4f} |")
    rows += ["", "| metric | value | unit | share of wall_s |", "|---|---|---|---|"]
    for name, unit in LAYER_METRICS.items():
        v = metrics[name]
        share = f"{v / base:.4f}" if unit == "s" and not name.startswith("trace.") else ""
        rows.append(f"| {name} | {v:.6g} | {unit} | {share} |")
    return "\n".join(rows)
