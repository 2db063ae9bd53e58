"""Golden outputs: the CLI's output files at a fast config, compared number
by number with the copies checked in under tests/golden/.  validate's lines
are checked against golden/validate.txt in test_cli.test_validate_ok, which
runs the same config.

A change that moves a value beyond RTOL regenerates the files, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py

and says which values moved, by how much and why.
"""

import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from qutritchain.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAST = ["--dt-ns", "0.002"]
# command line (without --out and FAST) -> files it writes
COMMANDS = {
    "table1": (["table1"], ["table1.json"]),
    "populations": (["populations"], ["fig2b.csv"]),
    "schedule": (["schedule", "--n-qutrits", "4", "--dt-out-ns", "0.5"], ["fig3.csv"]),
    "errors": (["errors", "--n-steps", "50"], ["fig4.csv", "fits.json"]),
}
# every number agrees to RTOL relative, or to ATOL where it is roundoff
# near zero (a population or error of unit scale)
RTOL = 1e-9
ATOL = 1e-14


def compare_json(got, want, path=()):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            if path + (key,) != ("config", "output_dir"):
                compare_json(got[key], want[key], path + (key,))
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) is type(want), (path, got, want)
        assert np.isclose(got, want, rtol=RTOL, atol=ATOL), (path, got, want)
    else:
        assert got == want, (path, got, want)


def read_csv(path):
    with open(path) as f:
        header = f.readline().rstrip("\n")
        rows = np.array([[float(v) for v in line.split(",")] for line in f])
    return header, rows


def compare_file(got: Path, want: Path):
    if want.suffix == ".json":
        compare_json(json.loads(got.read_text()), json.loads(want.read_text()))
        return
    header, rows = read_csv(got)
    want_header, want_rows = read_csv(want)
    assert header == want_header
    assert rows.shape == want_rows.shape
    bad = ~np.isclose(rows, want_rows, rtol=RTOL, atol=ATOL)
    assert not bad.any(), f"{want.name}: first mismatch at (row, col) {np.argwhere(bad)[0]}"


def validate_lines(text: str) -> list[tuple[str, str]]:
    """(PASS/FAIL, check name) of each validate line, without its values."""
    return [tuple(line.split(":")[0].split(None, 1)) for line in text.splitlines()]


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_golden(tmp_path, command):
    args, files = COMMANDS[command]
    assert main([*args, *FAST, "--out", str(tmp_path)]) == 0
    for name in files:
        compare_file(tmp_path / name, GOLDEN / name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)  # output_dir "." in the files, not a checkout's path
    for args, _ in COMMANDS.values():
        assert main([*args, *FAST, "--out", "."]) == 0
    for sidecar in Path().glob("*.config.json"):  # they hold only the config
        sidecar.unlink()
    with open("validate.txt", "w") as f, contextlib.redirect_stdout(f):
        sys.exit(main(["validate", *FAST]))
