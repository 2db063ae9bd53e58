"""Count the code lines of Python modules: lines that hold a token of code,
so blank lines, comment lines and docstring lines do not count.

A docstring is a string literal that is a statement on its own (the first
statement of a module, class or function, or any other bare string).  A
line that holds code and a comment counts once.

Usage: python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
the package, src/qutritchain.  Prints the count per module and the total.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tokenize

# tokens that mark a statement's start, and with ENDMARKER hold no code
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path) -> int:
    """Lines of the file at path that hold code."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _STATEMENT_START or tok.type == tokenize.ENDMARKER:
            continue
        bare_string = (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not bare_string:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = pathlib.Path(__file__).parents[1] / "src" / "qutritchain"
    roots = [pathlib.Path(a) for a in argv] or [package]
    files = sorted(p for r in roots for p in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
