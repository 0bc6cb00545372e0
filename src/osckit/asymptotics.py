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
    MOMENT_CHUNK,
    FastProfile,
    SineSeries,
    SlowFunction,
    _duhamel_weights,
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
# Node counts of residual_norm's time blocks and synthesis slices.  A time
# block is half the moment budget, so the moment batches of a block take its
# rows two at a time, not one; a slice is sized for its (x_count, slice)
# product to stay in cache.
TIME_BLOCK = MOMENT_CHUNK // 2
SYNTHESIS_SLICE = 1024
# Rounding margin of residual_norm's column bounds, per mode.  A synthesized
# value is a K-term product sum_n sin(n x) a_n.  Since |sin| <= 1 and rounding
# is monotone, no rounded product exceeds |a_n|, and after the additions, in
# any order, the value is at most (1 + gamma_K) sum_n |a_n|, gamma_K =
# K eps / (1 - K eps) (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, section 3.1); the computed sum_n |a_n| is at least
# (1 - gamma_K) times its exact value.  A factor 1 + 4 K eps on the
# computed sum covers both, and the factor's own rounding, while K eps < 1/8.
# Additions of subnormals are exact, so underflow adds nothing.
BOUND_MARGIN_PER_MODE = 4.0 * np.finfo(float).eps


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

    def evaluate_grid(self, x, t) -> np.ndarray:
        t = np.asarray(t, dtype=float).reshape(-1)
        modes = self.modes
        rows = _duhamel_weights(modes, [self.envelope.coefficient(n) * self.mean for n in modes], t)
        return sine_synthesis(x, modes, rows)

    def __call__(self, x, t):
        return float(self.evaluate_grid([x], [t])[0, 0])

    def at_x(self, x0: float) -> SlowFunction:
        """Exact slow trace ``t -> u0(x0, t)``."""
        return SineSeries({n: self.mode_amplitude_slow(n) for n in self.modes}).at_x(x0)


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
        modes = {n: SlowFunction.monomial(self.level * self.envelope.coefficient(n)(0.0),
                                          0, -float(n * n)) for n in self.modes}
        return SineSeries(modes).at_x(x0)


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


def resolving_time_count(omega: float, horizon: float) -> int:
    periods = omega * horizon / (2.0 * math.pi)
    return max(int(math.ceil(POINTS_PER_PERIOD * periods)) + 1, 513)


def _column_bounds(grid: np.ndarray) -> np.ndarray:
    """Per column of ``grid``, a bound on ``|sine_synthesis(x, modes, grid)|`` at any ``x``.

    The bound is ``sum_n |a_nj|`` times ``1 + BOUND_MARGIN_PER_MODE * K``
    for ``K`` rows.  A column holding NaN or inf has a NaN or inf bound, and
    so does one whose bound overflows, silently: such a column is never
    skipped.
    """
    margin = 1.0 + BOUND_MARGIN_PER_MODE * grid.shape[0]
    with np.errstate(over="ignore"):
        return np.abs(grid).sum(axis=0) * margin


def residual_norm(problem: HeatProblem, x_count: int = 65) -> tuple[float, float]:
    """Sups of ``|u - u0|`` and ``|u - u0 - (u1 + v1)/omega|`` on a resolving grid.

    The grid has ``resolving_time_count`` times, POINTS_PER_PERIOD per fast
    period so oscillation peaks enter the sup.  It is walked in blocks of
    TIME_BLOCK nodes: each block's oscillatory amplitudes (u - u0, mode by
    mode) serve both orders, and order 2 subtracts the corrections from
    those rows.  Each order's synthesis is cut into slices of
    SYNTHESIS_SLICE columns at fixed offsets, synthesized one at a time into
    one buffer and reduced to their max.  Column ``j`` of a block cannot
    exceed ``_column_bounds`` (``sum_n |a_nj|`` plus rounding), so a slice
    whose largest bound is below the order's running sup is skipped; a
    block's slices are visited largest bound first.  Every value is
    element-wise and a skipped slice holds no value above the sup, so the
    result is the max over the whole grid, bit for bit, NaN and inf
    included; the cost is linear in omega and the memory is 8 bytes per
    time node plus one block.
    """
    if x_count < 2:
        raise ValueError("grid counts must be >= 2")
    expansion = TwoTermExpansion.for_problem(problem)
    omega, own = problem.omega, problem.active_modes
    t_all = np.linspace(0.0, problem.horizon,
                        resolving_time_count(omega, problem.horizon))
    x = np.linspace(0.0, math.pi, x_count)
    buffer = np.empty((x_count, min(SYNTHESIS_SLICE, t_all.size)))
    sups = [-np.inf, -np.inf]
    for start in range(0, t_all.size, TIME_BLOCK):
        t = t_all[start:start + TIME_BLOCK]
        first = dict(zip(own, oscillatory_amplitudes(problem, own, t)))
        second = dict(first)  # rows are replaced, never updated in place
        for n in expansion.layer.modes:
            second[n] = second[n] - expansion.layer.mode_amplitude(n, t) / omega
        profile = expansion.fast.profile(t, omega * t)
        for n, coeff in expansion.fast.envelope.modes.items():  # all modes, even > n_max
            second[n] = second.get(n, 0.0) - coeff(t) * profile / omega
        offsets = np.arange(0, t.size, SYNTHESIS_SLICE)
        for order, rows in enumerate((first, second)):
            modes = sorted(rows)
            grid = np.reshape([rows[n] for n in modes], (-1, t.size))
            largest = np.maximum.reduceat(_column_bounds(grid), offsets)
            # NaN keys sort last and are still visited: no early exit
            for i in np.argsort(-largest, kind="stable"):
                if largest[i] < sups[order]:
                    continue
                col = offsets[i]
                part = buffer[:, :min(SYNTHESIS_SLICE, t.size - col)]
                sine_synthesis(x, modes, grid[:, col:col + part.shape[1]], out=part)
                # np.maximum, not max(): a NaN must stay in the sup
                sups[order] = np.maximum(sups[order], np.max(np.abs(part, out=part)))
    return float(sups[0]), float(sups[1])
