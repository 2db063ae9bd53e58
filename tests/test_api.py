import importlib.util
import inspect
import itertools
import pathlib

import pytest

import qutritchain
from qutritchain import noise
from qutritchain.evolution import _midpoints
from qutritchain.model import chain_hamiltonian
from qutritchain.pulse import TrapezoidPulse, analytic_params, g_eff, solve_constraint
from qutritchain.transfer import (
    compensation_params,
    evolve_transfer,
    optimize_pulse,
    phase_gate,
    population_series,
    rwa_residual,
)

ROOT = pathlib.Path(__file__).parents[1]
# argument names the benchmark's span wrappers read, by span name
TRACED_ARGUMENTS = {
    "evolution.evolve_affine": ("t_span", "dt"),
    "evolution.evolve": ("t_span", "dt"),
    "transfer.population_series": ("g_pulse", "dt"),
    "chain.validate_front_vs_full": ("n",),
    "cli.write_csv": ("path",),
    "cli.write_json": ("path",),
}


# the public API, sorted; a re-exported test-only helper (such as
# evolution.evolve, the step-by-step reference) fails this pin
PUBLIC_NAMES = [
    "ChainSchedule",
    "ConstraintSolution",
    "PhaseCompensation",
    "PowerLawFit",
    "QutritChannel",
    "TransferReport",
    "TrapezoidPulse",
    "amplitude_damping",
    "analytic_params",
    "basis_labels",
    "chain_hamiltonian",
    "compensation_params",
    "crossover",
    "decoherence_error_curve",
    "effective_area",
    "evolve_transfer",
    "fit_power",
    "free_exponent_fit",
    "g_eff",
    "intrinsic_error_curve",
    "make_schedule",
    "optimize_pulse",
    "phase_damping",
    "phase_gate",
    "population_series",
    "pulse_area",
    "qst_fidelity",
    "rwa_residual",
    "solve_constraint",
    "step_transfer",
    "uniform_state",
    "validate_front_vs_full",
    "x_op",
    "y_op",
]


def test_public_names_are_pinned():
    assert sorted(qutritchain.__all__) == PUBLIC_NAMES


def test_star_import_resolves_every_public_name():
    # a name left in __all__ after its definition is gone makes the star
    # import raise AttributeError
    namespace: dict = {}
    exec("from qutritchain import *", namespace)
    assert [name for name in qutritchain.__all__ if name not in namespace] == []


def test_readme_library_example_runs():
    # a renamed or removed public name breaks the README's example
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    sol = namespace["sol"]
    assert (round(sol.g_max, 2), round(sol.t_qst, 2)) == (39.03, 21.21)


def test_benchmark_tracer_targets_resolve_and_bind():
    # bench/tracing.py replaces each (module, attribute) of TARGETS and binds
    # the call's arguments to read some by name; a renamed function or
    # argument would break the benchmark's traced runs
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing, unbound = [], []
    for module, attr, name, kind in tracing.TARGETS:
        if not hasattr(module, attr):
            missing.append(f"{module.__name__}.{attr}")
        elif kind == "span":
            names = TRACED_ARGUMENTS.get(name, ())
            try:
                inspect.signature(getattr(module, attr)).bind_partial(**dict.fromkeys(names))
            except TypeError:
                unbound.append(f"{module.__name__}.{attr}{names}")
    assert (missing, unbound) == ([], [])


HUGE_INT = 10**400  # past the float range: float(HUGE_INT) is an OverflowError
SHORT_PULSE = TrapezoidPulse(30.0, 10.0, 2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TrapezoidPulse(HUGE_INT, 1.0, 0.0),
        lambda: analytic_params(HUGE_INT),
        lambda: chain_hamiltonian(HUGE_INT, [0.0]),
        lambda: solve_constraint(200.0, t_ramp=HUGE_INT),
        lambda: noise.check_lifetimes(0.0, HUGE_INT, HUGE_INT),
        lambda: _midpoints((0.0, HUGE_INT), 0.001),
    ],
    ids=["pulse", "analytic_params", "chain_hamiltonian", "solve_constraint",
         "check_lifetimes", "midpoints"],
)
def test_library_checks_refuse_an_int_past_the_float_range(call):
    # the documented ValueError, not an OverflowError or TypeError from a
    # float conversion inside the check
    with pytest.raises(ValueError):
        call()


# (id, start of the ValueError's message, call with a bad number x), one per
# library argument
ENTRY_POINTS = [
    ("g_eff-g", "g must", lambda x: g_eff(x, 200.0)),
    ("phase_gate-theta", "theta and phi", lambda x: phase_gate(x, 0.0)),
    ("phase_gate-phi", "theta and phi", lambda x: phase_gate(0.0, x)),
    ("compensation_params-theta", "theta and phi", lambda x: compensation_params(x, 0.5, 200.0)),
    ("compensation_params-phi", "theta and phi", lambda x: compensation_params(1.0, x, 200.0)),
    ("compensation_params-eta", "eta", lambda x: compensation_params(1.0, 0.5, x)),
    ("compensation_params-t_ramp", "t_ramp",
     lambda x: compensation_params(1.0, 0.5, 200.0, t_ramp=x)),
    ("rwa_residual-omega", "omega", lambda x: rwa_residual(200.0, lambda ts: 30.0, (0.0, 1.0), x)),
    ("rwa_residual-g_of_t", "g_of_t",
     lambda x: rwa_residual(200.0, lambda ts: x, (0.0, 1.0), 4000.0)),
    ("optimize_pulse-seed-g", "seed", lambda x: optimize_pulse(200.0, 2.0, (x, 22.0))),
    ("optimize_pulse-seed-t", "seed", lambda x: optimize_pulse(200.0, 2.0, (37.5, x))),
    ("optimize_pulse-eta", "eta", lambda x: optimize_pulse(x, 2.0, (37.5, 22.0))),
    ("population_series-eta", "eta", lambda x: population_series(SHORT_PULSE, x)),
    ("evolve_transfer-eta", "eta", lambda x: evolve_transfer(SHORT_PULSE, x, dt=0.01)),
]
BAD_NUMBERS = {"inf": float("inf"), "nan": float("nan"), "huge-int": HUGE_INT}
BAD_INPUTS = {
    f"{name}-{bad}": (message, call, x)
    for (name, message, call), (bad, x) in itertools.product(ENTRY_POINTS, BAD_NUMBERS.items())
}
BAD_INPUTS["compensation_params-eta-zero"] = (
    "eta", lambda x: compensation_params(1.0, 0.5, x), 0.0
)
BAD_INPUTS["compensation_params-t_ramp-negative"] = (
    "t_ramp", lambda x: compensation_params(0.0, 0.0, 200.0, t_ramp=x), -1.0
)
# eta must be positive, with a normal angular value (model._check_eta)
for name, message, call in ENTRY_POINTS:
    if name in ("optimize_pulse-eta", "population_series-eta", "evolve_transfer-eta"):
        BAD_INPUTS[f"{name}-zero"] = (message, call, 0.0)
        BAD_INPUTS[f"{name}-negative"] = (message, call, -200.0)
        BAD_INPUTS[f"{name}-subnormal"] = (message, call, 1e-320)


@pytest.mark.parametrize("message, call, x", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_library_entry_points_refuse_bad_numbers(message, call, x):
    # the entry point's own check, which names the argument: not a
    # RuntimeWarning, an OverflowError, a ZeroDivisionError or a later
    # check's error from the arithmetic after it
    with pytest.raises(ValueError, match=f"^{message}"):
        call(x)
