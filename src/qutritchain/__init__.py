"""Qutrit-to-qutrit state transfer on chains of tunably coupled transmons:
pulse design, transfer-fidelity simulation, chain error scaling, and T1/T2
decoherence modeling."""

from .analysis import PowerLawFit, crossover, fit_power, free_exponent_fit
from .chain import (
    ChainSchedule,
    intrinsic_error_curve,
    make_schedule,
    step_transfer,
    uniform_state,
    validate_front_vs_full,
)
from .model import (
    basis_labels,
    chain_hamiltonian,
    rwa_residual,
    x_op,
    y_op,
)
from .noise import QutritChannel, amplitude_damping, decoherence_error_curve, phase_damping
from .pulse import (
    ConstraintSolution,
    TrapezoidPulse,
    analytic_params,
    effective_area,
    g_eff,
    pulse_area,
    solve_constraint,
)
from .transfer import (
    PhaseCompensation,
    TransferReport,
    compensation_params,
    evolve_transfer,
    optimize_pulse,
    phase_gate,
    population_series,
    qst_fidelity,
)

__version__ = "0.1.0"

__all__ = [
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
