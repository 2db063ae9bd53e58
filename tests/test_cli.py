import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qutritchain.cli import main

# coarse step keeps the CLI tests quick; the physics is converged well below
# the assertions used here
FAST = ["--dt-ns", "0.01"]


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in f])
    return header, rows


def test_table1_analytic_only(tmp_path):
    assert run(["table1", "--analytic-only", "--out", tmp_path, *FAST]) == 0
    data = read_json(tmp_path / "table1.json")
    assert data["analytic"]["g_max_mhz"] == pytest.approx(37.5, abs=1e-12)
    assert data["analytic"]["t_qst_ns"] == pytest.approx(22.0, abs=1e-12)
    assert data["analytic"]["fidelity"] == pytest.approx(0.99992, abs=5e-5)
    assert "numerical" not in data
    assert data["coupling_cap_exceeded"] is False
    assert data["config"]["eta"] == 200.0


def test_table1_with_optimizer(tmp_path):
    assert run(["table1", "--out", tmp_path, *FAST]) == 0
    data = read_json(tmp_path / "table1.json")
    assert data["numerical"]["fidelity"] >= data["analytic"]["fidelity"]
    assert data["numerical"]["g_max_mhz"] == pytest.approx(37.7, abs=0.3)
    assert data["numerical"]["t_qst_ns"] == pytest.approx(21.95, abs=0.3)


def test_table1_flags_coupler_cap(tmp_path):
    assert run(["table1", "--analytic-only", "--eta-mhz", 400, "--out", tmp_path, *FAST]) == 0
    data = read_json(tmp_path / "table1.json")
    assert data["analytic"]["g_max_mhz"] == pytest.approx(75.0)
    assert data["coupling_cap_exceeded"] is True


def test_populations(tmp_path):
    assert run(["populations", "--out", tmp_path, *FAST]) == 0
    header, rows = read_csv(tmp_path / "fig2b.csv")
    assert header == ["t_ns", "p01", "p02"]
    assert rows[0, 1] == 0.0 and rows[0, 2] == 0.0
    assert rows[-1, 1] > 0.999 and rows[-1, 2] > 0.999
    assert (tmp_path / "fig2b.config.json").exists()


def test_schedule(tmp_path):
    assert run(["schedule", "--n-qutrits", 4, "--out", tmp_path, *FAST]) == 0
    header, rows = read_csv(tmp_path / "fig3.csv")
    assert header == ["t_ns", "g1", "g2", "g3"]
    g = rows[:, 1:]
    assert np.all((g > 0).sum(axis=1) <= 1)  # sequential schedule
    assert np.all(g.max(axis=0) > 30.0)      # every edge fires
    assert rows[-1, 0] == pytest.approx(3 * 21.95, abs=0.5)


def test_schedule_two_qutrits_single_pulse(tmp_path):
    assert run(["schedule", "--n-qutrits", 2, "--out", tmp_path, *FAST]) == 0
    header, rows = read_csv(tmp_path / "fig3.csv")
    assert header == ["t_ns", "g1"]
    assert rows[-1, 0] == pytest.approx(21.95, abs=0.3)


def test_schedule_rejects_single_qutrit(tmp_path):
    assert run(["schedule", "--n-qutrits", 1, "--out", tmp_path, *FAST]) == 2


def test_errors_outputs(tmp_path):
    assert run(["errors", "--n-steps", 60, "--out", tmp_path, *FAST]) == 0
    header, rows = read_csv(tmp_path / "fig4.csv")
    assert header == ["k", "error_intrinsic", "error_decoherence"]
    assert rows.shape[0] == 60
    assert np.array_equal(rows[:, 0], np.arange(1, 61))
    fits = read_json(tmp_path / "fits.json")
    assert set(fits) >= {"config", "intrinsic", "decoherence", "k_star", "intrinsic_free_fit"}
    assert fits["decoherence"]["exponent"] == 1
    assert fits["intrinsic"]["exponent"] == 4
    assert fits["k_star"] > 0


def test_validate_ok(tmp_path, capsys):
    assert run(["validate", "--out", tmp_path, "--dt-ns", 0.002]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "front-vs-full n=4" in out


def test_validate_coarse_dt_fails(tmp_path, capsys):
    assert run(["validate", "--out", tmp_path, "--dt-ns", 0.5]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_invalid_t2_regime_is_config_error(tmp_path):
    assert run(["validate", "--t2-us", 200, "--t1-us", 60, "--out", tmp_path]) == 2


def test_invalid_dt_is_config_error(tmp_path):
    assert run(["table1", "--dt-ns", 0, "--out", tmp_path]) == 2


@pytest.mark.parametrize(
    "flag", ["--dt-ns=inf", "--eta-mhz=nan", "--t-ramp-ns=-inf", "--t1-us=nan"]
)
def test_non_finite_value_is_config_error(tmp_path, capsys, flag):
    assert run(["table1", "--analytic-only", flag, "--out", tmp_path]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "table1.json").exists()


@pytest.mark.parametrize(
    "values",
    [
        {"n_steps": 2.5},
        {"eta": "200"},
        {"dt": None},
        5,
        None,
        [],
        {"output_dir": 5},
        {"output_dir": None},
    ],
)
def test_config_file_bad_type_is_config_error(tmp_path, monkeypatch, capsys, values):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    # --out would override a bad output_dir, so those cases run without it
    out = [] if isinstance(values, dict) and "output_dir" in values else ["--out", tmp_path]
    assert run(["errors", "--config", cfg, *out]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta": 100.0, "dt": 0.01}))
    assert run(["table1", "--analytic-only", "--config", cfg, "--eta-mhz", 200, "--out", tmp_path]) == 0
    data = read_json(tmp_path / "table1.json")
    assert data["config"]["eta"] == 200.0  # flag beats file
    assert data["config"]["dt"] == 0.01    # file beats default


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"etaa": 100.0}))
    assert run(["table1", "--config", cfg, "--out", tmp_path]) == 2


def test_coupling_cap_is_not_configurable(tmp_path, capsys):
    # the cap is the fixed 55 MHz coupler range of model and pulse
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling_cap": 40.0}))
    assert run(["table1", "--analytic-only", "--config", cfg, "--out", tmp_path]) == 2
    assert "coupling_cap" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["table1", "--analytic-only", "--coupling-cap-mhz", 40, "--out", tmp_path])
    assert exc.value.code == 2


def test_output_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QST_OUT_DIR", str(tmp_path / "envout"))
    assert run(["table1", "--analytic-only", *FAST]) == 0
    assert (tmp_path / "envout" / "table1.json").exists()


def test_byte_identical_reruns(tmp_path):
    assert run(["table1", "--analytic-only", "--out", tmp_path, *FAST]) == 0
    first = (tmp_path / "table1.json").read_bytes()
    assert run(["table1", "--analytic-only", "--out", tmp_path, *FAST]) == 0
    assert (tmp_path / "table1.json").read_bytes() == first


def _no_optimize(cfg):
    raise AssertionError("optimized before the config was checked")


@pytest.mark.parametrize("command", ["populations", "schedule"])
@pytest.mark.parametrize("dt_out", ["0", "-1", "nan", "inf", "-inf"])
def test_bad_dt_out_is_config_error_before_optimizing(tmp_path, monkeypatch, capsys, command, dt_out):
    monkeypatch.setattr("qutritchain.cli._optimize", _no_optimize)
    assert run([command, f"--dt-out-ns={dt_out}", "--out", tmp_path, *FAST]) == 2
    assert "dt_out_ns" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["errors", "--n-steps", 100_000_000],
        ["errors", "--dt-ns", 1e-7],
        ["errors", "--eta-mhz", 1e-6],
        ["validate", "--dt-ns", 1e-9],
        ["populations", "--dt-out-ns", 1e-9],
        ["schedule", "--n-qutrits", 100_000, "--dt-out-ns", 0.05],
        ["schedule", "--n-qutrits", 1000, "--dt-out-ns", 0.05],  # rows alone fit
    ],
)
def test_oversized_grid_is_config_error_before_optimizing(tmp_path, monkeypatch, capsys, args):
    monkeypatch.setattr("qutritchain.cli._optimize", _no_optimize)
    assert run([*args, "--out", tmp_path]) == 2
    assert "bound" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_python_dash_m_runs_the_cli(tmp_path):
    import qutritchain

    src = os.path.dirname(os.path.dirname(qutritchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qutritchain", "table1", "--analytic-only", "--out", str(tmp_path), *FAST],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "table1.json").exists()
