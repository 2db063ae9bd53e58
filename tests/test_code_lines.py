import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code with a comment counts once


def f(x):
    """One-line docstring."""
    text = """a string that is assigned
    is code on both lines"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_code_lines_only(tmp_path, capsys):
    # import, def, the assignment's two lines, return's two lines, class
    # and y: 8 lines; docstrings, comments and blank lines do not count
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 8
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["8", "total"]
