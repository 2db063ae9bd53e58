"""Reference implementations shared by the tests, independent of the
package's closed forms and fast paths."""

import numpy as np


def adaptive_simpson(f, a: float, b: float, rtol: float = 1e-12) -> float:
    """Adaptive Simpson quadrature of f on [a, b] with relative tolerance."""
    if b <= a:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        fl = f(0.5 * (x0 + xm))
        fr = f(0.5 * (xm + x2))
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth > 48 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, tol / 2.0, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, tol / 2.0, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    tol = rtol * max(abs(whole), 1e-300)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.11e}"  # 12 significant digits


def write_csv(path: str, header: list[str], rows) -> None:
    """The CSV writer that formats one cell at a time and joins the whole
    text before writing it."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
