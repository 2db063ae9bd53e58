import importlib.util
import inspect
import pathlib

import qutritchain

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
