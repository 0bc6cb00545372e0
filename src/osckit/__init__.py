"""Oscillating-source heat equation toolkit.

Forward spectral solver, two-term two-scale asymptotics, and the four
source-reconstruction procedures for

    u_t = u_xx + f(x, t) r(t, omega t)   on (0, pi) x (0, T),

with homogeneous initial and boundary data and r 2*pi-periodic in its fast
argument.  All operations are pure; values are immutable after
construction.
"""

from .catalog import (
    CatalogError,
    FastProfile,
    GridFunction,
    SineSeries,
    SlowFunction,
    SourceFactor,
    duhamel_oscillatory,
    duhamel_slow,
    duhamel_weight,
    exp_kernel_moment,
    sine_coefficients,
)
from .forward import HeatProblem, solve_heat, trace
from .asymptotics import (
    TwoTermExpansion,
    corrector,
    initial_layer,
    leading_term,
    residual_norm,
)
from .volterra import (
    ConvergenceReport,
    Kernel,
    SeparableResolvent,
    SingularEquationError,
    VolterraProblem,
    build_kernel,
    convergence_order,
)
from .volterra import solve as solve_volterra
from .inverse import (
    BothFactorsRecovery,
    ConsistencyReport,
    IllConditionedSystemError,
    ModeWeightSpectrum,
    MultiPointObservation,
    SnapshotObservation,
    SolvabilityReport,
    SpaceFactorRecovery,
    SpaceOscillationRecovery,
    TimeFactorRecovery,
    TraceObservation,
    implied_initial_layer,
    mode_weight_spectrum,
    recover_both_factors,
    recover_space_factor,
    recover_space_factor_and_oscillation,
    recover_time_factor,
    solve_amplitude_system,
    solve_snapshot_system,
)
from .scenarios import (
    RunReport,
    Scenario,
    ScenarioError,
    builtin_scenario,
    emit,
    parse_scenario,
    run,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogError",
    "SlowFunction",
    "FastProfile",
    "SineSeries",
    "SourceFactor",
    "GridFunction",
    "sine_coefficients",
    "duhamel_weight",
    "duhamel_oscillatory",
    "duhamel_slow",
    "exp_kernel_moment",
    "HeatProblem",
    "solve_heat",
    "trace",
    "TwoTermExpansion",
    "leading_term",
    "corrector",
    "initial_layer",
    "residual_norm",
    "Kernel",
    "VolterraProblem",
    "SingularEquationError",
    "SeparableResolvent",
    "ConvergenceReport",
    "build_kernel",
    "solve_volterra",
    "convergence_order",
    "TraceObservation",
    "SnapshotObservation",
    "MultiPointObservation",
    "ModeWeightSpectrum",
    "mode_weight_spectrum",
    "implied_initial_layer",
    "recover_time_factor",
    "recover_space_factor",
    "recover_space_factor_and_oscillation",
    "recover_both_factors",
    "solve_snapshot_system",
    "solve_amplitude_system",
    "TimeFactorRecovery",
    "SpaceFactorRecovery",
    "SpaceOscillationRecovery",
    "BothFactorsRecovery",
    "SolvabilityReport",
    "ConsistencyReport",
    "IllConditionedSystemError",
    "Scenario",
    "RunReport",
    "ScenarioError",
    "parse_scenario",
    "serialize_scenario",
    "builtin_scenario",
    "run",
    "emit",
]
