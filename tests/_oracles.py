"""Reference implementations shared by the tests, independent of the
package's closed forms and fast paths."""

import numpy as np

from qutritchain.evolution import _per_time, evolve, evolve_affine
from qutritchain.model import (
    MHZ_TO_RAD_NS,
    chain_hamiltonian,
    coupling_operator,
    x_op,
)


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


def rwa_residual_rotating(
    eta: float,
    g_of_t,
    t_span: tuple[float, float],
    omega: float,
    dt: float = 0.001,
) -> float:
    """The RWA residual evolved in the rotating frame, where the exact
    Hamiltonian carries exp(i de t) phases and no two steps are equal."""
    diag = chain_hamiltonian(eta, [0.0])
    xx = np.kron(x_op(), x_op())
    w_rwa = coupling_operator(0, 2)
    e = omega * MHZ_TO_RAD_NS * np.add.outer(np.arange(3), np.arange(3)).ravel()
    de = e[None, :] - e[:, None]

    def g_values(ts):
        ts = np.atleast_1d(ts)
        return _per_time(g_of_t(ts), ts, "g_of_t") * MHZ_TO_RAD_NS

    def h_exact(ts):
        g = g_values(ts)
        v = xx[None, :, :] * np.exp(1j * de[None, :, :] * np.atleast_1d(ts)[:, None, None])
        return diag[None, :, :] + g[:, None, None] * v

    u_exact = evolve(h_exact, t_span, dt)
    u_rwa = evolve_affine(diag, w_rwa, g_values, t_span, dt)
    return float(np.linalg.norm(u_exact - u_rwa, ord=2))
