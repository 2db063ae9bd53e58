"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REPEATED_COUNTS = (
    "transfer.evals_per_optimize",
    "evolution.eigh_mats.d9",
    "evolution.eigh_mats.d27",
    "evolution.eigh_mats.d81",
    "chain.front_steps",
)


@pytest.fixture
def workdir():
    os.makedirs(run.RESULTS, exist_ok=True)
    d = tempfile.mkdtemp(prefix="test-", dir=run.RESULTS)
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for size in ("full", "tiny"):
        a = workloads.make_inputs(workload, 11, size)
        assert a == workloads.make_inputs(workload, 11, size)
        assert a != workloads.make_inputs(workload, 12, size)
        json.dumps(a)


def test_reference_point_always_in_design():
    for seed in range(5):
        points = workloads.make_inputs("design", seed)["points"]
        assert points[0] == workloads.REFERENCE
        assert all(150 <= p["eta"] <= 290 and 1 <= p["t_ramp"] <= 3 for p in points)


def test_budget_refuses_oversized_schedule():
    """A 2000-step Fig. 3 schedule sampled every 0.05 ns needs ~14 GB."""
    inputs = workloads.make_inputs("chain-scan", 1)
    inputs["n_qutrits"] = 2001
    sizes = workloads.predicted_bytes("chain-scan", inputs)
    assert sizes["coupling_values (n_steps x samples x 8 B)"] > 13e9
    with pytest.raises(workloads.InputTooLarge):
        workloads.check_budget("chain-scan", inputs)


def _traced_pass(workload, inputs, workdir):
    tracer = tracing.Tracer("test")
    with tracer:
        outputs = workloads.run_pass(workload, inputs, workdir)
    return outputs, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_counts_repeat_and_wrappers_removed(workload, workdir):
    originals = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.TARGETS}
    inputs = workloads.make_inputs(workload, 3, "tiny")
    workloads.prepare(workload, inputs, workdir)
    checker = workloads.Checker(workload, inputs)
    counts = []
    for _ in range(2):
        outputs, tracer = _traced_pass(workload, inputs, workdir)
        failures, quality = checker.check(outputs)
        assert failures == {}
        assert workloads.operations(outputs) > 0
        assert 0 < quality["infidelity"] < 1e-3
        metrics = tracer.metrics(wall=1.0)
        assert set(tracing.LAYER_METRICS) - set(metrics) == {
            "trace.overhead_s"
        }
        assert 0 < metrics["evolution.eigh_per_step"] <= 1
        counts.append({k: metrics[k] for k in REPEATED_COUNTS})
        assert tracing.installed_wrappers() == []
        for (mod, attr), orig in originals.items():
            assert getattr(sys.modules[mod], attr) is orig
    assert counts[0] == counts[1]
    busy = {"design": "transfer.evals_per_optimize", "validate": "evolution.eigh_mats.d81",
            "chain-scan": "chain.front_steps"}[workload]
    assert counts[0][busy] > 0


def test_design_parts_make_up_a_pass_and_check_alone(workdir):
    inputs = workloads.make_inputs("design", 3, "tiny")
    parts = workloads.parts("design", inputs)
    assert parts == [f"point {i}" for i in range(len(inputs["points"]))]
    checker = workloads.Checker("design", inputs)
    outputs = workloads.run_part("design", inputs, workdir, parts[1])
    assert list(outputs) == [parts[1]]
    failures, quality = checker.check(outputs)
    assert failures == {}
    assert 0 < quality["infidelity"] < 1e-3
    assert workloads.parts("validate", workloads.make_inputs("validate", 3, "tiny")) == ["validate"]


def test_tracer_restores_after_exception(workdir):
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer("boom"):
            1 / 0
    assert tracing.installed_wrappers() == []


def test_validate_books_each_failed_check_once():
    inputs = workloads.make_inputs("validate", 1, "tiny")
    checker = workloads.Checker("validate", inputs)
    text = "PASS  a\n" * 6 + "FAIL  dt-halving convergence: fidelity shift 1e-3\n"
    failures, _ = checker.check({"cli validate": (1, text)})
    assert list(failures) == ["oracle line 6"]
    failures, _ = checker.check({"cli validate": (1, "PASS  a\n" * 7)})
    assert list(failures) == ["cli validate"]
    failures, _ = checker.check({"cli validate": (RuntimeError("boom"), "")})
    assert len(failures) == workloads.VALIDATE_CHECKS
    assert "boom" in failures["oracle line 0"]


def test_benchmark_json_workloads_match_code():
    assert run.WORKLOADS == workloads.WORKLOADS


def test_run_fails_without_sources(workdir):
    """In a directory holding only BENCHMARK.json and bench/, the run exits
    nonzero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(HERE, os.path.join(workdir, "bench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
