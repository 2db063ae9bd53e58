import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from _reference import T_OPT
from test_golden import GOLDEN, validate_lines
from qutritchain.chain import ChainSchedule
from qutritchain.cli import _COMMANDS, _CONFIG_FLAGS, CSV_BLOCK_ROWS, main, write_csv
from qutritchain.evolution import _finite
from qutritchain import noise
from qutritchain.noise import decoherence_error_curve
from qutritchain.pulse import TrapezoidPulse, analytic_params

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


@pytest.mark.parametrize("flags", [["--t-ramp-ns", 0], ["--eta-mhz", 10]])
def test_table1_keeps_a_seed_the_search_cannot_beat(tmp_path, flags):
    # the analytic seed is already at F ~ 1 here (1 - 7e-16 and 1 - 1.8e-12),
    # so optimize_pulse warns and returns it; that report is still valid
    with pytest.warns(UserWarning, match="failed to improve"):
        assert run(["table1", "--out", tmp_path, *flags, *FAST]) == 0
    data = read_json(tmp_path / "table1.json")
    assert data["numerical"] == data["analytic"]


def test_table1_flags_coupler_cap(tmp_path):
    assert run(["table1", "--analytic-only", "--eta-mhz", 400, "--out", tmp_path, *FAST]) == 0
    data = read_json(tmp_path / "table1.json")
    assert data["analytic"]["g_max_mhz"] == pytest.approx(75.0)
    assert data["coupling_cap_exceeded"] is True


def test_table1_flags_coupler_cap_of_the_numerical_pulse(tmp_path):
    # the analytic 3 eta / 16 = 54.375 MHz is inside the 55 MHz cap, the
    # optimized pulse (~55.9 MHz) is not
    flags = ["--eta-mhz", 290, "--t-ramp-ns", 3]
    assert run(["table1", "--out", tmp_path, *flags, *FAST]) == 0
    data = read_json(tmp_path / "table1.json")
    assert data["analytic"]["g_max_mhz"] == pytest.approx(54.375)
    assert data["numerical"]["g_max_mhz"] > 55.0
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
    # the golden config's lines: the same 7 check names, each PASS; their
    # values are oracle roundoff and are not compared
    golden = (GOLDEN / "validate.txt").read_text()
    assert validate_lines(out) == validate_lines(golden)


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
        # integers past the float range, which no float conversion survives
        {"t1": 10**330},
        {"n_steps": 10**330},
        {"eta": -10**400},
    ],
)
def test_config_file_bad_type_is_config_error(tmp_path, monkeypatch, capsys, values):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    # --out would override a bad output_dir, so those cases run without it
    out = [] if isinstance(values, dict) and "output_dir" in values else ["--out", tmp_path]
    assert run(["errors", "--config", cfg, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_readme_cli_section_names_every_command_and_config_flag():
    # the README's CLI block and its "Common flags" sentence follow the
    # command table and the config-flag table
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    assert sorted(set(re.findall(r"qutritchain (\w+)", block))) == sorted(c[0] for c in _COMMANDS)
    common = re.search(r"Common flags:(.*?)\.\s", section, re.S).group(1)
    flags = [flag for flag, _, _ in _CONFIG_FLAGS] + ["--config"]
    assert sorted(re.findall(r"`(--[\w-]+)", common)) == sorted(flags)


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


@pytest.mark.parametrize(
    "args",
    [["table1", "--analytic-only", "--n-steps", 10**330], ["schedule", "--n-qutrits", 10**330]],
    ids=["n-steps", "n-qutrits"],
)
def test_integer_flag_past_the_float_range_is_config_error(tmp_path, monkeypatch, capsys, args):
    monkeypatch.setattr("qutritchain.cli._optimize", _no_optimize)
    assert run([*args, "--out", tmp_path, *FAST]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("n_steps", [1, 2])
def test_errors_with_too_few_steps_is_config_error_before_optimizing(
    tmp_path, monkeypatch, capsys, n_steps
):
    # the power-law fits need 3 points; refuse before the optimizer runs
    monkeypatch.setattr("qutritchain.cli._optimize", _no_optimize)
    assert run(["errors", "--n-steps", n_steps, "--out", tmp_path, *FAST]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["table1", "populations", "schedule", "errors"])
def test_unusable_output_dir_is_config_error_before_optimizing(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setattr("qutritchain.cli._optimize", _no_optimize)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run([command, "--out", blocker / "sub", *FAST]) == 2
    assert capsys.readouterr().err.startswith("invalid config")
    assert list(tmp_path.iterdir()) == [blocker]


def test_failed_write_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    def full_disk(path, chunks):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr("qutritchain.cli._atomic_write", full_disk)
    assert run(["table1", "--analytic-only", "--out", tmp_path, *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith("write failed") and "No space left" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.filterwarnings("error::UserWarning")
def test_validate_above_the_coupler_cap_warns_nothing(tmp_path, capsys):
    # eta = 300 MHz puts the analytic g_max = 3 eta / 16 above 55 MHz; the
    # other commands already silence analytic_params' warning
    run(["validate", "--eta-mhz", 300, "--out", tmp_path, *FAST])
    assert "front-vs-full n=4" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ["table1", "--analytic-only", "--t-ramp-ns", 50],
        ["table1", "--analytic-only", "--eta-mhz", 1e300],
        ["validate", "--t-ramp-ns", 20.5],
    ],
)
def test_ramp_longer_than_analytic_plateau_bound_is_config_error(tmp_path, capsys, args):
    # t_qst = t_ramp + 8 pi / eta_angular >= 2 t_ramp needs t_ramp <= 4000 / eta ns
    assert run([*args, "--out", tmp_path, *FAST]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "t_ramp" in err and "4000 / eta" in err
    assert list(tmp_path.iterdir()) == []


def test_ramp_just_inside_analytic_plateau_bound_runs(tmp_path):
    assert run(["table1", "--analytic-only", "--t-ramp-ns", 19.9, "--out", tmp_path, *FAST]) == 0
    assert (tmp_path / "table1.json").exists()


@pytest.mark.parametrize("eta", [5e-324, 7e-322, 1e-310])
def test_eta_without_normal_angular_value_is_config_error(tmp_path, capsys, eta):
    # eta * 2 pi / 1000 rounds to 0 below ~8e-322 MHz, where analytic_params
    # divided by it; every eta whose angular value is subnormal is refused
    assert run(["table1", "--analytic-only", "--eta-mhz", eta, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config") and "eta" in err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="eta"):
        analytic_params(eta)


def test_subnormal_ramp_is_config_error_before_optimizing(tmp_path, monkeypatch, capsys):
    # population_series overflowed on int(round(dt_out / t_ramp))
    monkeypatch.setattr("qutritchain.cli._optimize", _no_optimize)
    args = ["populations", "--eta-mhz", 300, "--t-ramp-ns", 5e-324, "--dt-ns", 0.05]
    assert run([*args, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config") and "t_ramp" in err
    assert list(tmp_path.iterdir()) == []


def test_populations_output_step_far_above_the_ramp_step(tmp_path):
    # dt_out / dt_ramp = 1e300 / 1e-300 overflows a float; the ramp is then
    # sampled at its ends only.  The nearly square seed is kept, as in
    # test_table1_keeps_a_seed_the_search_cannot_beat
    args = ["--t-ramp-ns", 1e-300, "--dt-ns", 0.05, "--dt-out-ns", 1e300]
    with pytest.warns(UserWarning, match="failed to improve"):
        assert run(["populations", *args, "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "fig2b.csv")
    assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(20.0, abs=0.5)
    assert rows[-1, 1] > 0.999 and rows[-1, 2] > 0.99


@pytest.mark.parametrize(
    "args",
    [["--n-steps", 3, "--eta-mhz", 250, "--t-ramp-ns", 0, "--dt-ns", 0.05],
     ["--n-steps", 3, "--eta-mhz", 200, "--t-ramp-ns", 0.01, "--dt-ns", 0.002]],
    ids=["square-pulse", "short-ramp"],
)
def test_errors_with_a_transfer_exact_to_roundoff_writes_a_null_free_fit(tmp_path, args):
    # the optimized pulse transfers to roundoff, so the intrinsic curve has
    # too few positive points for its log-log fit: that fit is null, with
    # the reason in "note", and every file is written
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "optimizer failed to improve", UserWarning)
        assert run(["errors", *args, "--out", tmp_path]) == 0
    fits = read_json(tmp_path / "fits.json")
    assert fits["intrinsic_free_fit"] is None
    assert "intrinsic_free_fit is null: not enough positive points" in fits["note"]
    assert sorted(os.listdir(tmp_path)) == ["fig4.config.json", "fig4.csv", "fits.json"]


@pytest.mark.parametrize("n_steps", [5, 50])
def test_errors_at_roundoff_writes_no_fit_and_no_crossover(tmp_path, n_steps):
    # |error_k| <= 2.6 k eps here: a fit to it, its quartic prefactor and a
    # k* from that would be fits to roundoff, so all three are null with a note
    args = ["--n-steps", n_steps, "--eta-mhz", 200, "--t-ramp-ns", 0.01, "--dt-ns", 0.002]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "optimizer failed to improve", UserWarning)
        assert run(["errors", *args, "--out", tmp_path]) == 0
    fits = read_json(tmp_path / "fits.json")
    assert fits["intrinsic_free_fit"] is None and fits["k_star"] is None
    assert fits["intrinsic"] is None
    assert fits["note"] == ("intrinsic_free_fit is null: not enough positive points for a "
                            "log-log fit; intrinsic and k_star are null: the intrinsic "
                            "error is at roundoff")
    _, rows = read_csv(tmp_path / "fig4.csv")
    assert rows.shape == (n_steps, 3)
    assert np.all(np.abs(rows[:, 1]) <= 16 * rows[:, 0] * np.finfo(float).eps)


def test_errors_with_no_decoherence_writes_a_null_crossover(tmp_path):
    # lifetimes of 1e300 us leave the decoherence curve at 0, so its linear
    # prefactor is 0 and there is no crossover k*
    assert run(["errors", "--t1-us", 1e300, "--t2-us", 1e300, "--out", tmp_path]) == 0
    fits = read_json(tmp_path / "fits.json")
    assert fits["decoherence"]["prefactor"] == 0.0
    assert fits["k_star"] is None
    assert fits["note"] == "k_star is null: crossover needs strictly positive prefactors"
    assert fits["intrinsic_free_fit"]["exponent"] > 0
    _, rows = read_csv(tmp_path / "fig4.csv")
    assert rows.shape == (200, 3) and not rows[:, 2].any()


# values no config check may let through as a traceback: zero, a negative,
# the smallest subnormal, a tiny and a huge normal, nan, +-inf and an int
# past the float range
HUGE_INT = 10**400
ODD_VALUES = [0.0, -1.0, 5e-324, 1e-300, 1e300, float("nan"), float("inf"), float("-inf"),
              HUGE_INT]
# (t1, t2) pairs at the edges of the lifetime rule: T2 just above 2 T1 by
# 2.5e-7 (relative) and by 8e-14, just below, and tiny normal lifetimes
LIFETIME_EDGES = [(1e-6, 2.0000005e-6), (60.0, 120.0 + 1e-11), (60.0, 120.0 - 1e-11),
                  (3e-308, 3e-308)]
LIFETIMES = st.one_of(
    st.sampled_from(LIFETIME_EDGES),
    st.tuples(st.sampled_from([*ODD_VALUES, 60.0]), st.sampled_from([*ODD_VALUES, 60.0])),
)
CONTRACT = settings(deadline=None, derandomize=True, database=None)


def raises_value_error(f, *args):
    try:
        f(*args)
    except ValueError:
        return True
    return False


def lifetimes_rejected(t1, t2):
    return raises_value_error(noise.check_lifetimes, 0.0, t1, t2)


def exit_contract(args):
    """Run the CLI in process on args and check the exit contract: exit 0,
    1 or 2, no traceback on stderr, and exit 1 only with a "numerical
    failure" or "write failed" line, or for validate only with a FAIL line
    on stdout.  A kept seed's "failed to improve" warning is part of a
    successful run."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.filterwarnings("ignore", "optimizer failed to improve", UserWarning)
            code = main([*map(str, args), f"--out={tmp}"])
    text = err.getvalue()
    assert code in (0, 1, 2), (args, code, text)
    assert "Traceback" not in text, (args, text)
    if code == 1 and args[0] == "validate":
        assert "FAIL" in out.getvalue() and not text, (args, out.getvalue(), text)
    elif code == 1:
        assert any(
            line.startswith(("numerical failure", "write failed")) for line in text.splitlines()
        ), (args, text)
    return code


@settings(CONTRACT, max_examples=60)
@given(
    eta=st.sampled_from([*ODD_VALUES, 200.0, 290.0]),
    t_ramp=st.sampled_from([*ODD_VALUES, 2.0]),
    dt=st.sampled_from([*ODD_VALUES, 0.002]),
    lifetimes=LIFETIMES,
)
def test_exit_contract_config_and_analytic_table(eta, t_ramp, dt, lifetimes):
    # every draw resolves the config and, if it is valid, evolves the
    # analytic pulse; "=" keeps argparse from reading "-1" as a flag
    t1, t2 = lifetimes
    code = exit_contract(["table1", "--analytic-only", f"--eta-mhz={eta}",
                          f"--t-ramp-ns={t_ramp}", f"--dt-ns={dt}",
                          f"--t1-us={t1}", f"--t2-us={t2}"])
    if not (all(map(_finite, (eta, t_ramp, dt))) and eta > 0 and t_ramp >= 0 and dt > 0):
        assert code == 2
    if lifetimes_rejected(t1, t2):
        assert code == 2


@settings(CONTRACT, max_examples=24)
@given(
    command=st.sampled_from(["table1", "populations", "schedule", "errors", "validate"]),
    eta=st.sampled_from([200.0, 250.0, 1e5, 1e300, -1.0, float("nan"), HUGE_INT]),
    t_ramp=st.sampled_from([0.0, 1e-300, 0.01, 2.0, 5e-324, float("inf")]),
    dt=st.sampled_from([0.01, 0.05, 1e300, float("inf")]),
    dt_out=st.sampled_from([0.05, 5e-324, 1e300, float("nan"), HUGE_INT]),
    lifetimes=LIFETIMES,
)
# an intrinsic error at roundoff (exit 0 with a null free fit), a ramp far
# below the output step, one step over the whole pulse, a huge eta with no
# ramp, and tiny normal lifetimes through the decoherence curve and the
# Kraus channels
@example(command="errors", eta=1e5, t_ramp=0.0, dt=0.05, dt_out=0.05, lifetimes=(60.0, 60.0))
@example(command="populations", eta=200.0, t_ramp=1e-300, dt=0.05, dt_out=1e300,
         lifetimes=(60.0, 60.0))
@example(command="schedule", eta=250.0, t_ramp=2.0, dt=1e300, dt_out=0.05, lifetimes=(60.0, 60.0))
@example(command="table1", eta=1e300, t_ramp=0.0, dt=0.01, dt_out=0.05, lifetimes=(60.0, 60.0))
@example(command="errors", eta=200.0, t_ramp=2.0, dt=0.01, dt_out=0.05, lifetimes=(3e-308, 3e-308))
@example(command="validate", eta=200.0, t_ramp=2.0, dt=0.05, dt_out=0.05,
         lifetimes=(3e-308, 3e-308))
def test_exit_contract_optimizer_commands(command, eta, t_ramp, dt, dt_out, lifetimes):
    # the optimizer runs only on a coarse grid, dt >= 10 ps, and validate's
    # 81-dim oracle at dt >= 0.02 ns
    if command == "validate":
        dt = max(dt, 0.02)
    t1, t2 = lifetimes
    args = [command, f"--eta-mhz={eta}", f"--t-ramp-ns={t_ramp}", f"--dt-ns={dt}",
            f"--t1-us={t1}", f"--t2-us={t2}"]
    if command in ("populations", "schedule"):
        args.append(f"--dt-out-ns={dt_out}")
    if command == "errors":
        args.append("--n-steps=20")
    code = exit_contract(args)
    if not (all(map(_finite, (eta, t_ramp, dt))) and eta > 0) or lifetimes_rejected(t1, t2):
        assert code == 2


@pytest.mark.parametrize(
    "t1, t2",
    [*LIFETIME_EDGES, (60.0, 120.0), (60.0, 120.0 * (1 + 0.5 * noise.T2_RTOL)),
     (60.0, 120.0 * (1 + 2 * noise.T2_RTOL)), (np.finfo(float).tiny, np.finfo(float).tiny),
     (np.finfo(float).tiny / 2, 60.0), (60.0, 5e-324), (1e300, 1e300),
     (np.finfo(float).max, np.finfo(float).max), (60.0, float("inf")), (0.0, 60.0),
     (60.0, -1.0)],
)
def test_cli_refuses_exactly_the_lifetimes_the_library_refuses(t1, t2, tmp_path, capsys):
    # exit 2 <=> ValueError from the curve and the channels that errors and
    # validate call; no other config value is at fault here
    refused = [raises_value_error(noise.decoherence_error_curve, 200, 22.0, t1, t2),
               raises_value_error(noise.phase_damping, 4400.0, t1, t2),
               raises_value_error(noise.amplitude_damping, 4400.0, t1)]
    code = run(["table1", "--analytic-only", "--dt-ns=0.05", f"--t1-us={t1}", f"--t2-us={t2}",
                "--out", tmp_path])
    assert code in (0, 2)
    assert (code == 2) == any(refused), (refused, capsys.readouterr().err)


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


def _fig2b_rows(n=300):
    ts = np.linspace(0.0, 22.0, n)
    return zip(ts, np.sin(0.07 * ts) ** 2, np.sin(0.05 * ts) ** 2 * np.exp(-ts))


def _fig3_columns(n_rows, n_edges=5):
    sched = ChainSchedule(TrapezoidPulse(37.5, 22.0, 2.0), n_edges, (0.0, 0.0))
    ts = np.linspace(0.0, sched.total_duration, n_rows)
    return ts, sched.coupling_values(ts)


def _fig3_rows(n=2201):
    ts, g = _fig3_columns(n)
    return zip(ts, *g)


def _fig4_rows(n=CSV_BLOCK_ROWS + 7):
    deco = decoherence_error_curve(n, T_OPT)
    return zip(deco[:, 0].astype(int), 1e-5 * deco[:, 0], deco[:, 1])


def _special_rows():
    values = [-0.0, 0.0, float("nan"), -np.inf, np.inf, 5e-324, 1e300, -1e-300, 0.1, 2.0 / 3.0]
    return [(k, v, np.float64(v), -v) for k, v in enumerate(values)]


def _huge_int_rows():
    # an int column never passes through float: 10**400 would overflow it
    return [(10**400, 0.5), (np.int64(-3), np.float64(1.5)), (7, 2.0 / 3.0),
            (np.int64(2**62), -0.0), (-(10**30), np.float64(1e-300))]


def _sized_rows(n):
    return lambda: ((np.int64(k), 0.25 * (k % 7), np.sqrt(k)) for k in range(n))


@pytest.mark.parametrize(
    "make_rows",
    [
        _fig2b_rows,
        _fig3_rows,
        lambda: _fig3_rows(4 * CSV_BLOCK_ROWS + 5),
        _fig4_rows,
        _special_rows,
        _huge_int_rows,
        _sized_rows(0),
        _sized_rows(1),
        _sized_rows(CSV_BLOCK_ROWS),
        _sized_rows(CSV_BLOCK_ROWS + 1),
        _sized_rows(2 * CSV_BLOCK_ROWS),
    ],
    ids=["fig2b", "fig3", "fig3-past-four-blocks", "fig4", "special-values", "huge-int",
         "rows0", "rows1", "one-block", "one-block-plus-1", "two-blocks"],
)
def test_write_csv_bytes_match_cell_by_cell_writer(tmp_path, make_rows):
    rows = list(make_rows())
    header = [f"c{j}" for j in range(len(rows[0]) if rows else 3)]
    write_csv(str(tmp_path / "new.csv"), header, make_rows())  # a generator or zip
    _oracles.write_csv(str(tmp_path / "ref.csv"), header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_failure_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "fig4.csv"
    path.write_bytes(b"k,error\n1,5.00000000000e-01\n")

    def rows():
        for k in range(2 * CSV_BLOCK_ROWS + 5):  # past two whole blocks
            yield k, 0.5 * k
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(str(path), ["k", "error"], rows())
    assert path.read_bytes() == b"k,error\n1,5.00000000000e-01\n"
    assert os.listdir(tmp_path) == ["fig4.csv"]


def test_write_csv_rejects_rows_of_unequal_length(tmp_path):
    rows = [(k, 0.5 * k) for k in range(CSV_BLOCK_ROWS + 3)] + [(1,)]
    with pytest.raises(ValueError, match="first row's 2 cells"):
        write_csv(str(tmp_path / "fig.csv"), ["k", "x"], rows)
    assert os.listdir(tmp_path) == []


def _write_csv_peak_bytes(path, n_rows, n_edges):
    ts, g = _fig3_columns(n_rows, n_edges)  # the columns, made before tracing
    tracemalloc.start()
    try:
        write_csv(str(path), ["t_ns"] + [f"g{k + 1}" for k in range(n_edges)], zip(ts, *g))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_is_bounded_by_block(tmp_path):
    # a fig3-shaped generator of numpy scalars: the writer holds one block
    # of rows, its float array and its text, ~105 B a cell (measured), and
    # nothing that grows with the row count
    n, n_edges = 4 * CSV_BLOCK_ROWS, 20
    block_cells = CSV_BLOCK_ROWS * (n_edges + 1)
    peaks = [_write_csv_peak_bytes(tmp_path / f"fig3-{m}.csv", m, n_edges) for m in (n, 4 * n)]
    assert peaks[1] < 1.2 * peaks[0], peaks
    assert max(peaks) < 256 * block_cells, peaks
