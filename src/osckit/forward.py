"""Spectral solver for the forced heat equation on (0, pi) x (0, T).

    u_t = u_xx + envelope(x, t) * factor(t, omega * t),   u = 0 on the
    parabolic boundary (t = 0 and x = 0, pi).

Each sine mode obeys ``u_n' = -n^2 u_n + f_n(t) r(t, omega t)`` and is
integrated by the Duhamel formula.  A catalog envelope (``SineSeries``)
reduces the oscillatory part to complex-rate exponential moments, so cost
and accuracy are independent of omega; a sampled one (``SampledSeries``)
takes a composite-Gauss quadrature that resolves the fast phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (
    CatalogError,
    GridFunction,
    SampledSeries,
    SineSeries,
    SourceFactor,
    _decay_exponential,
    _gauss_nodes,
    _phase_exponential,
    _require_finite,
    duhamel_oscillatory,
    duhamel_weight,
    sine_synthesis,
)

__all__ = ["HeatProblem", "mode_amplitudes", "oscillatory_amplitudes", "solve_heat",
           "trace"]

TAIL_TOL = 1e-9  # mode truncation tail estimate above which solve_heat warns


@dataclass(frozen=True)
class HeatProblem:
    """Forcing data ``envelope(x, t) * factor(t, omega t)`` plus horizon."""

    envelope: SineSeries | SampledSeries
    factor: SourceFactor
    omega: float
    horizon: float
    n_max: int = 32

    def __post_init__(self):
        if not isinstance(self.envelope, (SineSeries, SampledSeries)):
            raise TypeError(f"envelope {self.envelope!r} is not a SineSeries or SampledSeries")
        _require_finite(self, "omega", "horizon")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def active_modes(self) -> list[int]:
        return [n for n in self.envelope.modes if n <= self.n_max]


def oscillatory_amplitudes(problem: HeatProblem, modes, t: np.ndarray) -> np.ndarray:
    """Closed-form Duhamel part of ``u_n(t)`` driven by the oscillation ``r - r0``.

    One row per entry of ``modes``; exponential moments are taken once per
    (mode, harmonic, distinct term), so the cos and sin parts of a harmonic
    share the moments of their common terms.  Each harmonic's phase
    ``e^{i k omega t}`` is formed once for all modes, and each mode's
    ``e^{-n^2 t}`` once for all harmonics.  A sampled envelope raises
    ``CatalogError``.
    """
    if isinstance(problem.envelope, SampledSeries):
        raise CatalogError("a sampled envelope has no closed-form amplitudes")
    omega = problem.omega
    harmonics = [(k, a, b, _phase_exponential(k * omega, t))
                 for k, a, b in problem.factor.oscillation.harmonics]
    out = np.zeros((len(modes), t.size))
    for row, n in zip(out, modes):
        fn = problem.envelope.coefficient(n)
        e_decay = _decay_exponential(float(n) * float(n), t)
        for k, a, b, phase in harmonics:
            cos, sin = duhamel_oscillatory(n, (fn * a, fn * b), k * omega, t,
                                           e_decay=e_decay, phase=phase)
            if not a.is_zero:
                row += cos.real
            if not b.is_zero:
                row += sin.imag
    return out


def _amplitudes_quadrature(problem: HeatProblem, modes,
                           t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential-integrator marching with per-panel Gauss quadrature.

    Marches u' = -n^2 u + q for every mode at once on panels no wider than
    1/32 of a fast period; each panel integral of e^{-n^2 (t_{i+1}-s)} q(s)
    uses 8-point Gauss-Legendre, for the mean and the oscillatory forcing
    separately.  ``modes`` are modes of the sampled envelope.
    """
    if max(modes, default=0) > problem.envelope.n_max:
        raise ValueError(f"modes {list(modes)} exceed the sampled n_max {problem.envelope.n_max}")
    step = 2.0 * math.pi / (32.0 * problem.omega)
    rows = np.asarray(modes, dtype=int) - 1
    factor = problem.factor
    n2 = np.array([float(n * n) for n in modes])[:, None]
    out = np.zeros((2, len(modes), t.size))
    u = np.zeros((2, len(modes)))
    pos = 0.0
    for idx in np.argsort(t):
        target = t[idx]
        span = target - pos
        if span > 0:
            panels = max(1, int(math.ceil(span / step)))
            nodes, weights = _gauss_nodes(pos, target, panels, 8)
            fn = problem.envelope.table(nodes)[rows]
            kernel = fn * np.exp(-n2 * (target - nodes)) * weights
            drive = (factor.mean(nodes), factor.oscillation(nodes, problem.omega * nodes))
            u = u * np.exp(-n2[:, 0] * span) + np.stack([kernel @ d for d in drive])
            pos = target
        out[:, :, idx] = u
    return out[0], out[1]


def mode_amplitudes(problem: HeatProblem, modes,
                    t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and oscillatory Duhamel parts of ``u_n(t)`` for each of ``modes``.

    Returns two ``(len(modes), len(t))`` arrays whose sum is ``u_n(t)``: the
    part driven by the mean ``r0`` and the part driven by the oscillation
    ``r - r0``.  A ``SineSeries`` envelope takes the closed forms; a
    ``SampledSeries`` takes the marching quadrature, which fills the same
    two arrays.
    """
    if isinstance(problem.envelope, SampledSeries):
        return _amplitudes_quadrature(problem, modes, t)
    mean = [duhamel_weight(n, problem.envelope.coefficient(n) * problem.factor.mean, t)
            for n in modes]
    return (np.reshape(mean, (-1, t.size)),
            oscillatory_amplitudes(problem, modes, t))


def _tail_estimate(problem: HeatProblem) -> float:
    modes = list(problem.envelope.modes)
    if max(modes, default=0) <= problem.n_max:
        return 0.0
    table = problem.envelope.table(np.linspace(0.0, problem.horizon, 65))
    sups = np.max(np.abs(table), axis=1).tolist()
    return sum(s / (n * n) for n, s in zip(modes, sups) if n > problem.n_max)


def solve_heat(problem: HeatProblem, x_count: int, t_count: int) -> GridFunction:
    """Field ``u(x_i, t_j)`` as a 2-D grid function (deterministic)."""
    if x_count < 2 or t_count < 2:
        raise ValueError("grid counts must be >= 2")
    x = np.linspace(0.0, math.pi, x_count)
    t = np.linspace(0.0, problem.horizon, t_count)
    modes = problem.active_modes
    mean, osc = mode_amplitudes(problem, modes, t)
    values = sine_synthesis(x, modes, mean + osc)
    meta = {"omega": problem.omega, "n_max": problem.n_max, "warnings": []}
    tail = _tail_estimate(problem)
    meta["tail_estimate"] = tail
    if tail > TAIL_TOL:
        meta["warnings"].append(
            f"mode truncation tail estimate {tail:.3e} above {TAIL_TOL:.1e}"
        )
    return GridFunction((x, t), values, meta)


def trace(u: GridFunction, x0: float) -> GridFunction:
    """Time trace ``t -> u(x0, t)`` by linear interpolation in x."""
    if len(u.axes) != 2:
        raise ValueError("trace expects a 2-D grid function")
    x, t = u.axes
    if not (0.0 < x0 < math.pi):
        raise ValueError(f"x0 = {x0:g} outside (0, pi)")
    exact = np.nonzero(x == x0)[0]
    if exact.size:
        row = u.values[int(exact[0])].copy()
    else:
        hi = int(np.searchsorted(x, x0))
        lo = hi - 1
        w = (x0 - x[lo]) / (x[hi] - x[lo])
        row = (1.0 - w) * u.values[lo] + w * u.values[hi]
    return GridFunction((t,), row, dict(u.meta, x0=x0))
