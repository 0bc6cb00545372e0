"""Source reconstruction from partial asymptotics of the heat field.

Four recoveries, all driven by the same structure: the leading trace obeys
a second-kind Volterra equation in the mean time factor, the first-order
oscillating trace determines the zero-mean oscillation pointwise, and the
t0-snapshot coefficients divided by the mode weights
``L_n = integral_0^{t0} e^{-n^2 (t0-s)} r0(s) ds`` determine the spatial
envelope.  Vanishing mode weights make the envelope non-unique or the data
unsolvable; multi-point data for an N-harmonic envelope add two linear
systems, a gauge ``r0(t0) = 1``, and a window-consistency condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import InitialLayer
# sine_coefficients and duhamel_weight stay importable here because
# bench/spans.py traces these bindings
from .catalog import (  # noqa: F401
    FastProfile,
    GridFunction,
    SineSeries,
    SlowFunction,
    _duhamel_weights,
    _require_count,
    _require_finite,
    _require_type,
    duhamel_slow,
    duhamel_weight,
    sine_coefficients,
)
from .volterra import SeparableResolvent, VolterraProblem, build_kernel, solve

__all__ = [
    "IllConditionedSystemError",
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
]

WEIGHT_ZERO_TOL = 1e-10     # |L_n| < tol * n^-2 declares the weight zero
COEFF_ZERO_TOL = 1e-10      # snapshot coefficient treated as zero
GAUGE_FLOOR = 1e-10
RCOND_FLOOR = 1e-10
WINDOW_POINTS = 257         # nodes of the inverse-4 consistency window


class IllConditionedSystemError(ValueError):
    """The sine collocation matrix is numerically singular."""


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def _check_leading(leading: SlowFunction, horizon: float):
    """The leading trace vanishes at t = 0."""
    values = leading(np.linspace(0.0, horizon, 1025))
    if abs(values[0]) > 1e-10 * (1.0 + float(np.max(np.abs(values)))):
        raise ValueError("leading trace must vanish at t = 0")


@dataclass(frozen=True)
class TraceObservation:
    """Two-term trace data at a single x0: leading + oscillating parts.

    ``leading`` is a SlowFunction that vanishes at t = 0, ``oscillating`` a
    zero-mean FastProfile.  The initial-layer component is derivable from
    the oscillating part and may be supplied for checking.
    """

    x0: float
    leading: SlowFunction
    oscillating: FastProfile
    horizon: float
    initial_layer: SlowFunction | None = None

    def __post_init__(self):
        _require_type(self, "leading", SlowFunction)
        _require_type(self, "oscillating", FastProfile)
        if self.initial_layer is not None:
            _require_type(self, "initial_layer", SlowFunction)
        _require_finite(self, "horizon")
        if not 0.0 < self.x0 < math.pi:
            raise ValueError(f"x0 = {self.x0:g} outside (0, pi)")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        _check_leading(self.leading, self.horizon)


@dataclass(frozen=True)
class SnapshotObservation:
    """Leading-order profile at time t0 as a sine series."""

    t0: float
    profile: SineSeries

    def __post_init__(self):
        _require_type(self, "profile", SineSeries)
        _require_finite(self, "t0")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")

    def coefficient_value(self, n: int) -> float:
        return float(self.profile.coefficient(n)(0.0))


@dataclass(frozen=True)
class MultiPointObservation:
    """Window data for the N-harmonic recovery of both source factors.

    ``x_points[0]`` carries the two-term trace (leading + oscillating);
    ``interior_traces[j-1]`` is the leading trace at ``x_points[j]`` on the
    window ``(t0 - half_width, t0 + half_width)``.
    """

    t0: float
    half_width: float
    x_points: tuple[float, ...]
    leading: SlowFunction
    oscillating: FastProfile
    interior_traces: tuple[SlowFunction, ...]
    horizon: float

    def __post_init__(self):
        _require_type(self, "leading", SlowFunction)
        _require_type(self, "oscillating", FastProfile)
        _require_finite(self, "half_width", "horizon")
        object.__setattr__(self, "x_points", tuple(float(x) for x in self.x_points))
        object.__setattr__(self, "interior_traces", tuple(self.interior_traces))
        n = len(self.x_points)
        if n < 1:
            raise ValueError("at least one observation point required")
        if len(self.interior_traces) != n - 1:
            raise ValueError("need one interior trace per point beyond x0")
        for a in self.interior_traces:
            if not isinstance(a, SlowFunction):
                raise TypeError("interior_traces is not a tuple of SlowFunction, "
                                f"got a {type(a).__name__}")
        for x in self.x_points:
            if not 0.0 < x < math.pi:
                raise ValueError(f"observation point {x:g} outside (0, pi)")
        if len(set(self.x_points)) != n:
            raise ValueError("observation points must be distinct")
        if not 0.0 < self.t0 < self.horizon:
            raise ValueError("t0 must lie inside (0, horizon)")
        if self.half_width <= 0 or self.t0 - self.half_width <= 0.0 \
                or self.t0 + self.half_width >= self.horizon:
            raise ValueError("window must sit inside (0, horizon)")
        _check_leading(self.leading, self.horizon)

    @property
    def order(self) -> int:
        return len(self.x_points)


# ---------------------------------------------------------------------------
# mode weights L_n(t0) and their zero set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeWeightSpectrum:
    """Duhamel weights of the mean factor per mode, with the zero set.

    For a mean factor of one sign on [0, t0] the scaled weights n^2 L_n are
    bounded away from zero, so genuine zeros are isolated events detected by
    the n^-2-scaled threshold.
    """

    t0: float
    values: tuple[float, ...]
    zero_modes: tuple[int, ...]
    floor_estimate: float
    tol: float

    @property
    def n_max(self) -> int:
        return len(self.values)

    def weight(self, n: int) -> float:
        return self.values[n - 1]

    def is_zero(self, n: int) -> bool:
        return n in self.zero_modes


def mode_weight_spectrum(mean: SlowFunction, t0: float, n_max: int = 32,
                         tol: float = WEIGHT_ZERO_TOL) -> ModeWeightSpectrum:
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    _require_count("n_max", n_max)
    values = tuple(_duhamel_weights(range(1, n_max + 1), [mean] * n_max,
                                    np.array([float(t0)]))[:, 0].tolist())
    zeros = tuple(n for n, v in enumerate(values, start=1)
                  if abs(v) < tol / (n * n))
    scaled = [n * n * v for n, v in enumerate(values, start=1) if n not in zeros]
    floor = min(scaled) if scaled else math.nan
    return ModeWeightSpectrum(t0, values, zeros, floor, tol)


# ---------------------------------------------------------------------------
# initial layer implied by the oscillating trace
# ---------------------------------------------------------------------------

def implied_initial_layer(oscillating: FastProfile, envelope: SineSeries,
                          x0: float, n_max: int = 32) -> SlowFunction:
    """The initial-layer trace forced by the oscillating component.

    Equals ``level / f(x0, 0) * sum_n f_n(0) sin(n x0) e^{-n^2 t}`` where
    ``level`` is the fast mean of the antiderivative of d(oscillating)/dtau
    at t = 0, which coincides with ``-oscillating(0, 0)``.
    """
    denom = envelope.at_x(x0)(0.0)
    if abs(denom) < GAUGE_FLOOR:
        raise ValueError("envelope vanishes at (x0, 0); initial layer undefined")
    level = oscillating.tau_derivative().antiderivative_fast_mean()(0.0) / denom
    return InitialLayer(envelope, level, n_max).at_x(x0)


def _oscillation(oscillating: FastProfile, trace: SlowFunction) -> FastProfile:
    """The oscillation rule ``d(oscillating)/dtau / f(x0, t)``."""
    return oscillating.tau_derivative().scale_slow(trace.reciprocal())


# ---------------------------------------------------------------------------
# recovery 1: time factor from a two-term trace, envelope known
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFactorRecovery:
    mean_grid: GridFunction
    oscillation: FastProfile
    diagnostics: dict = field(default_factory=dict)


def recover_time_factor(obs: TraceObservation, envelope: SineSeries,
                        n_max: int = 32, intervals: int = 2048) -> TimeFactorRecovery:
    """Mean factor via the trace Volterra equation, oscillation pointwise.

    The mean solves ``f(x0,t) r0(t) + int_0^t K(t,s) r0(s) ds = leading'(t)``
    with the separable trace kernel; the oscillation is
    ``d(oscillating)/dtau / f(x0, t)``.
    """
    g = envelope.at_x(obs.x0)
    probe = np.linspace(0.0, obs.horizon, 4097)
    g_min = float(np.min(np.abs(g(probe))))
    if g_min < 1e-8:
        raise ValueError(
            f"envelope trace at x0 = {obs.x0:g} not bounded away from zero "
            f"(min {g_min:.2e})"
        )
    kernel = build_kernel(envelope, obs.x0, n_max)
    problem = VolterraProblem(g, kernel, obs.leading.derivative(), obs.horizon, intervals)
    return TimeFactorRecovery(
        solve(problem),
        _oscillation(obs.oscillating, g),
        {"envelope_min_at_x0": g_min, "kernel_tail_bound": kernel.tail_bound},
    )


# ---------------------------------------------------------------------------
# recovery 2: envelope from a t0 snapshot, time factor known
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolvabilityReport:
    status: str                      # "unique" | "non_unique" | "unsolvable"
    zero_modes: tuple[int, ...]
    offending_modes: tuple[int, ...]
    warnings: tuple[str, ...]
    spectrum: ModeWeightSpectrum

    @property
    def solvable(self) -> bool:
        return self.status != "unsolvable"


@dataclass(frozen=True)
class SpaceFactorRecovery:
    envelope: SineSeries
    report: SolvabilityReport


def recover_space_factor(obs: SnapshotObservation, mean: SlowFunction,
                         n_max: int = 32, tol_weight: float = WEIGHT_ZERO_TOL,
                         tol_coeff: float = COEFF_ZERO_TOL) -> SpaceFactorRecovery:
    """Envelope coefficients by weight division, with the solvability split.

    Modes with vanishing weight admit any coefficient when the matching
    snapshot coefficient vanishes (the zero representative is returned and
    the result flagged non-unique); a non-vanishing snapshot coefficient
    there makes the data unsolvable.  Snapshot coefficients decaying slower
    than n^-4 (``n^4 |psi_n|`` growing over the modes) add a warning.
    """
    spectrum = mode_weight_spectrum(mean, obs.t0, n_max, tol_weight)
    warnings = []
    if abs(mean(obs.t0)) < 1e-12:
        warnings.append("mean factor vanishes at t0; zero weights likely")
    if obs.profile.max_mode > n_max:
        warnings.append(
            f"snapshot carries modes above n_max = {n_max}; they were ignored"
        )
    psi = [obs.coefficient_value(n) for n in range(1, n_max + 1)]
    if n_max >= 8:
        scaled = np.abs(psi) * np.arange(1, n_max + 1) ** 4.0
        # growth beyond rounding; exact n^-4 decay keeps scaled sizes level
        if scaled[n_max // 2:].max() > (1.0 + 1e-9) * scaled[: n_max // 2].max() + 1e-14:
            warnings.append("snapshot coefficients decay slower than n^-4; "
                            "profile may lack the required smoothness")

    coeffs: dict[int, float] = {}
    offending = []
    for n, psi_n in enumerate(psi, start=1):
        if spectrum.is_zero(n):
            if abs(psi_n) > tol_coeff:
                offending.append(n)
            continue  # zero representative
        if psi_n != 0.0:
            coeffs[n] = psi_n / spectrum.weight(n)

    if offending:
        status = "unsolvable"
    elif spectrum.zero_modes:
        status = "non_unique"
    else:
        status = "unique"
    report = SolvabilityReport(status, spectrum.zero_modes, tuple(offending),
                               tuple(warnings), spectrum)
    return SpaceFactorRecovery(SineSeries(coeffs), report)


# ---------------------------------------------------------------------------
# recovery 3: envelope and oscillation, mean factor known
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    """Sup of a data-consistency residual against its tolerance."""

    residual_sup: float
    tolerance: float
    consistent: bool


def _consistency(residual: float, tol: float | None, scale: float) -> ConsistencyReport:
    """Compare ``residual`` with ``tol``, by default ``1e-6 * (1 + scale)``."""
    if tol is None:
        tol = 1e-6 * (1.0 + scale)
    return ConsistencyReport(residual, tol, residual <= tol)


@dataclass(frozen=True)
class SpaceOscillationRecovery:
    envelope: SineSeries
    oscillation: FastProfile
    congruence: ConsistencyReport
    report: SolvabilityReport
    initial_layer_mismatch: float | None


def recover_space_factor_and_oscillation(
        snapshot: SnapshotObservation, trace: TraceObservation,
        mean: SlowFunction, n_max: int = 32,
        congruence_tol: float | None = None) -> SpaceOscillationRecovery:
    """Envelope by weight division, oscillation from the trace, data checked.

    Requires every mode weight nonzero.  The recovered envelope must
    reproduce the leading-trace derivative through the Volterra left side
    with the known mean factor; the sup of that congruence residual is
    reported and compared against ``congruence_tol`` (default
    1e-6 * (1 + sup |leading'|)).
    """
    space = recover_space_factor(snapshot, mean, n_max)
    if space.report.zero_modes:
        raise ValueError(
            f"mode weights vanish at t0 for n = {space.report.zero_modes}; "
            "this recovery assumes all weights nonzero"
        )
    envelope = space.envelope
    g = envelope.at_x(trace.x0)
    if abs(g(0.0)) < GAUGE_FLOOR:
        raise ValueError("recovered envelope vanishes at x0")

    rhs = trace.leading.derivative()
    lhs = g * mean
    for n, c_n in build_kernel(envelope, trace.x0, n_max).modes:
        lhs = lhs + duhamel_slow(n, mean) * c_n
    residual = (lhs - rhs).sup_on(0.0, trace.horizon, 4097)
    congruence = _consistency(residual, congruence_tol,
                              rhs.sup_on(0.0, trace.horizon))

    mismatch = None
    if trace.initial_layer is not None:
        implied = implied_initial_layer(trace.oscillating, envelope,
                                        trace.x0, n_max)
        mismatch = (implied - trace.initial_layer).sup_on(0.0, trace.horizon)
    return SpaceOscillationRecovery(envelope, _oscillation(trace.oscillating, g),
                                    congruence, space.report, mismatch)


# ---------------------------------------------------------------------------
# recovery 4: both factors, N-harmonic envelope
# ---------------------------------------------------------------------------

def _collocation_matrix(obs: MultiPointObservation) -> np.ndarray:
    n = obs.order
    modes = np.arange(1, n + 1)
    a = np.sin(np.outer(obs.x_points, modes))
    rcond = 1.0 / np.linalg.cond(a)
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise IllConditionedSystemError(
            f"sine collocation matrix nearly singular (rcond {rcond:.2e})"
        )
    return a


def solve_snapshot_system(obs: MultiPointObservation) -> np.ndarray:
    """Snapshot coefficients psi from the point values of the leading term."""
    a = _collocation_matrix(obs)
    rhs = np.empty(obs.order)
    rhs[0] = obs.leading(obs.t0)
    for j, alpha in enumerate(obs.interior_traces, start=1):
        rhs[j] = alpha(obs.t0)
    return np.linalg.solve(a, rhs)


def solve_amplitude_system(obs: MultiPointObservation,
                           psi: np.ndarray) -> np.ndarray:
    """Envelope amplitudes from the time derivatives at t0 (gauge r0(t0)=1)."""
    a = _collocation_matrix(obs)
    modes2 = np.arange(1, obs.order + 1) ** 2
    deriv = np.empty(obs.order)
    deriv[0] = obs.leading.derivative()(obs.t0)
    for j, alpha in enumerate(obs.interior_traces, start=1):
        deriv[j] = alpha.derivative()(obs.t0)
    rhs = a @ (modes2 * psi) + deriv
    return np.linalg.solve(a, rhs)


@dataclass(frozen=True)
class BothFactorsRecovery:
    envelope: SineSeries
    mean_grid: GridFunction
    oscillation: FastProfile
    snapshot_coeffs: np.ndarray
    gauge: float
    consistency: ConsistencyReport

    @property
    def solvable(self) -> bool:
        return self.consistency.consistent


def recover_both_factors(obs: MultiPointObservation, intervals: int = 2048,
                         consistency_tol: float | None = None) -> BothFactorsRecovery:
    """Full pipeline: two linear systems, Volterra equation, gauge, check.

    The reported mean factor is the product-trapezoidal Volterra solution
    rescaled so the mean is 1 at t0; the gauge factor and the consistency
    residual are evaluated through the exact separable resolvent so they are
    not polluted by the O(h^2) marching error.  The envelope amplitudes
    absorb the reciprocal gauge, preserving the observable product.
    """
    psi = solve_snapshot_system(obs)
    amps = solve_amplitude_system(obs, psi)
    x0 = obs.x_points[0]
    env = SineSeries.from_coefficients(amps)
    g = env.at_x(x0)
    env_x0 = g(0.0)
    if abs(env_x0) < GAUGE_FLOOR * (1.0 + float(np.max(np.abs(amps)))):
        raise ValueError("recovered envelope vanishes at x0; data rejected")

    kernel = build_kernel(env, x0, obs.order)
    rhs = obs.leading.derivative()
    mean_grid = solve(VolterraProblem(g, kernel, rhs, obs.horizon, intervals))
    ns = np.array([n for n, _ in kernel.modes])
    resolvent = SeparableResolvent(env_x0, ns, [c(0.0) for _, c in kernel.modes], rhs)

    gauge = float(resolvent(obs.t0))
    if abs(gauge) < GAUGE_FLOOR:
        raise ValueError(f"mean factor at t0 is {gauge:.2e}; gauge undefined")

    window = np.linspace(obs.t0 - obs.half_width, obs.t0 + obs.half_width, WINDOW_POINTS)
    residual = 0.0
    if obs.interior_traces:
        y = resolvent.mode_integrals(window)
        residual = max(float(np.max(np.abs((amps[ns - 1] * np.sin(ns * xj)) @ y
                                           - alpha(window))))
                       for xj, alpha in zip(obs.x_points[1:], obs.interior_traces))
    scale = max([obs.leading.sup_on(0.0, obs.horizon)]
                + [alpha.sup_on(window[0], window[-1]) for alpha in obs.interior_traces])
    normalized = GridFunction(mean_grid.axes, mean_grid.values / gauge,
                              dict(mean_grid.meta, gauge=gauge))
    return BothFactorsRecovery(SineSeries.from_coefficients(amps * gauge), normalized,
                               _oscillation(obs.oscillating, g * gauge), psi, gauge,
                               _consistency(residual, consistency_tol, scale))
