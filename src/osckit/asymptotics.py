"""Two-term two-scale expansion of the oscillating-source heat field.

The field splits as ``u = U + W`` with

    U(x, t) = u0(x, t) + (1/omega) * [u1(x, t) + v1(x, t, omega t)],

where u0 solves the averaged problem (mean forcing), v1 is the zero-mean
fast corrector ``envelope * (integral of the oscillation minus its fast
mean)``, and u1 is the heat-semigroup term cancelling v1 at t = 0.  The
remainder W is measured mode by mode on a fast-phase-resolving grid: u - u0
is the oscillatory Duhamel part of u alone, so no O(1) - O(1) cancellation
enters.  Its sup norm falls faster than 1/omega, and ``u - u0`` falls like
1/omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (
    FastProfile,
    SineSeries,
    SlowFunction,
    duhamel_slow,
    duhamel_weight,
    sine_synthesis,
)
# solve_heat stays importable here because bench/spans.py traces this binding
from .forward import HeatProblem, oscillatory_amplitudes, solve_heat  # noqa: F401

__all__ = [
    "LeadingTerm",
    "OscillatoryCorrector",
    "InitialLayer",
    "TwoTermExpansion",
    "leading_term",
    "corrector",
    "initial_layer",
    "residual_norm",
]

POINTS_PER_PERIOD = 16
MAX_TIME_NODES = 200_001


@dataclass(frozen=True)
class LeadingTerm:
    """Averaged-source field ``u0 = sum_n sin(nx) int_0^t e^{-n^2(t-s)} f_n(s) r0(s) ds``."""

    envelope: SineSeries
    mean: SlowFunction
    n_max: int

    @property
    def modes(self) -> list[int]:
        return [n for n in self.envelope.modes if n <= self.n_max]

    def mode_amplitude(self, n: int, t) -> np.ndarray:
        return duhamel_weight(n, self.envelope.coefficient(n) * self.mean, t)

    def mode_amplitude_slow(self, n: int) -> SlowFunction:
        return duhamel_slow(n, self.envelope.coefficient(n) * self.mean)

    def _grid(self, x, t, amplitude) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rows = [amplitude(n, t) for n in self.modes]
        return sine_synthesis(x, self.modes, np.reshape(rows, (-1, t.size)))

    def evaluate_grid(self, x, t) -> np.ndarray:
        return self._grid(x, t, self.mode_amplitude)

    def __call__(self, x, t):
        return float(self.evaluate_grid([x], [t])[0, 0])

    def at_x(self, x0: float) -> SlowFunction:
        """Exact slow trace ``t -> u0(x0, t)``."""
        out = SlowFunction.zero()
        for n in self.modes:
            out = out + self.mode_amplitude_slow(n) * math.sin(n * x0)
        return out

    def time_derivative_grid(self, x, t) -> np.ndarray:
        """du0/dt from the termwise-differentiated closed forms."""
        return self._grid(x, t, lambda n, t: self.mode_amplitude_slow(n).derivative()(t))

    def xx_derivative_grid(self, x, t) -> np.ndarray:
        return self._grid(x, t, lambda n, t: -(n * n) * self.mode_amplitude(n, t))


@dataclass(frozen=True)
class OscillatoryCorrector:
    """Fast corrector ``v1(x, t, tau) = envelope(x, t) * profile(t, tau)``.

    ``profile`` is the zero-mean fast antiderivative of the source
    oscillation, so dv1/dtau = envelope * oscillation exactly.
    """

    envelope: SineSeries
    profile: FastProfile

    def evaluate_grid(self, x, t, omega: float) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.envelope.evaluate_grid(x, t) * self.profile(t, omega * t)

    def __call__(self, x, t, tau):
        return float(self.envelope(x, t) * self.profile(t, tau))

    def at_x(self, x0: float) -> FastProfile:
        return self.profile.scale_slow(self.envelope.at_x(x0))


@dataclass(frozen=True)
class InitialLayer:
    """Heat-semigroup term ``u1 = level * sum_n f_n(0) sin(nx) e^{-n^2 t}``.

    ``level`` is the fast mean of the oscillation's antiderivative at t = 0;
    the initial value cancels v1(x, 0, 0).
    """

    envelope: SineSeries
    level: float
    n_max: int

    @property
    def modes(self) -> list[int]:
        return [n for n in self.envelope.modes if n <= self.n_max]

    def mode_amplitude(self, n: int, t) -> np.ndarray:
        return self.level * self.envelope.coefficient(n)(0.0) * np.exp(-n * n * t)

    def evaluate_grid(self, x, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        modes = self.modes if self.level else []
        rows = [self.mode_amplitude(n, t) for n in modes]
        return sine_synthesis(x, modes, np.reshape(rows, (-1, t.size)))

    def __call__(self, x, t):
        return float(self.evaluate_grid([x], [t])[0, 0])

    def at_x(self, x0: float) -> SlowFunction:
        terms = []
        for n in self.modes:
            fn0 = self.envelope.coefficient(n)(0.0)
            terms.append((self.level * fn0 * math.sin(n * x0), 0, -float(n * n)))
        return SlowFunction(terms)


def leading_term(envelope: SineSeries, mean: SlowFunction, n_max: int = 32) -> LeadingTerm:
    return LeadingTerm(envelope, mean, n_max)


def corrector(envelope: SineSeries, oscillation: FastProfile) -> OscillatoryCorrector:
    return OscillatoryCorrector(envelope, oscillation.antiderivative_zero_mean())


def initial_layer(envelope: SineSeries, oscillation: FastProfile,
                  n_max: int = 32) -> InitialLayer:
    level = oscillation.antiderivative_fast_mean()(0.0)
    return InitialLayer(envelope, level, n_max)


@dataclass(frozen=True)
class TwoTermExpansion:
    """Bundle (u0, u1, v1) for one forcing pair, omega attached at evaluation."""

    leading: LeadingTerm
    layer: InitialLayer
    fast: OscillatoryCorrector

    @classmethod
    def for_problem(cls, problem: HeatProblem) -> "TwoTermExpansion":
        return cls.build(problem.envelope, problem.factor.mean,
                         problem.factor.oscillation, problem.n_max)

    @classmethod
    def build(cls, envelope: SineSeries, mean: SlowFunction,
              oscillation: FastProfile, n_max: int = 32) -> "TwoTermExpansion":
        return cls(
            leading_term(envelope, mean, n_max),
            initial_layer(envelope, oscillation, n_max),
            corrector(envelope, oscillation),
        )

    def evaluate_grid(self, x, t, omega: float, order: int = 2) -> np.ndarray:
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        out = self.leading.evaluate_grid(x, t)
        if order == 2:
            out = out + (self.layer.evaluate_grid(x, t)
                         + self.fast.evaluate_grid(x, t, omega)) / omega
        return out

    def trace_components(self, x0: float) -> tuple[SlowFunction, SlowFunction, FastProfile]:
        """Exact (leading, initial-layer, oscillating) trace triple at x0."""
        return self.leading.at_x(x0), self.layer.at_x(x0), self.fast.at_x(x0)


def resolving_time_count(omega: float, horizon: float,
                         points_per_period: int = POINTS_PER_PERIOD) -> int:
    periods = omega * horizon / (2.0 * math.pi)
    return max(int(math.ceil(points_per_period * periods)) + 1, 513)


def residual_norm(problem: HeatProblem, expansion: TwoTermExpansion | None = None,
                  order: int = 2, x_count: int = 65,
                  t_count: int | None = None) -> float:
    """Sup over a resolving grid of ``|u - (expansion truncated at order)|``.

    Order 1 compares against u0 alone, order 2 against the full two-term
    composition.  The time grid must carry at least POINTS_PER_PERIOD nodes
    per fast period so oscillation peaks enter the sup, and at most
    MAX_TIME_NODES.  The remainder is summed mode by mode (the oscillatory
    amplitudes of u, less the expansion's corrections) and synthesized once.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    need = resolving_time_count(problem.omega, problem.horizon)
    if need > MAX_TIME_NODES:
        raise ValueError(
            f"omega * T = {problem.omega * problem.horizon:g} needs {need} time "
            f"nodes to resolve the fast phase, above MAX_TIME_NODES = {MAX_TIME_NODES}"
        )
    t_count = need if t_count is None else t_count
    if t_count < need:
        raise ValueError(
            f"t_count {t_count} too coarse for omega {problem.omega:g}: "
            f"need at least {need} nodes"
        )
    if x_count < 2:
        raise ValueError("grid counts must be >= 2")
    if expansion is None:
        expansion = TwoTermExpansion.for_problem(problem)
    omega, lead = problem.omega, expansion.leading
    t = np.linspace(0.0, problem.horizon, t_count)
    own = problem.active_modes
    rem = dict(zip(own, oscillatory_amplitudes(problem, own, t)))

    def add(n, row):
        rem[n] = rem.get(n, 0.0) + row

    mean_part = leading_term(problem.envelope, problem.factor.mean, problem.n_max)
    if lead != mean_part:  # u0 of other data: add the mean parts' difference
        for n in own:
            add(n, mean_part.mode_amplitude(n, t))
        for n in lead.modes:
            add(n, -lead.mode_amplitude(n, t))
    if order == 2:
        for n in expansion.layer.modes:
            add(n, -expansion.layer.mode_amplitude(n, t) / omega)
        profile = expansion.fast.profile(t, omega * t)
        for n, coeff in expansion.fast.envelope.modes.items():
            add(n, -coeff(t) * profile / omega)
    modes = sorted(rem)
    rows = np.reshape([rem[n] for n in modes], (-1, t.size))
    x = np.linspace(0.0, math.pi, x_count)
    return float(np.max(np.abs(sine_synthesis(x, modes, rows))))
