"""Spectral solver for the forced heat equation on (0, pi) x (0, T).

    u_t = u_xx + envelope(x, t) * factor(t, omega * t),   u = 0 on the
    parabolic boundary (t = 0 and x = 0, pi).

Each sine mode obeys ``u_n' = -n^2 u_n + f_n(t) r(t, omega t)`` and is
integrated by the Duhamel formula.  Catalog inputs reduce the oscillatory
part to complex-rate exponential moments, so cost and accuracy are
independent of omega; a composite-Gauss quadrature fallback covers sampled
sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (
    GridFunction,
    SineSeries,
    SlowFunction,
    SourceFactor,
    _gauss_nodes,
    duhamel_oscillatory,
    duhamel_weight,
    sine_synthesis,
)

__all__ = ["HeatProblem", "mode_amplitudes", "oscillatory_amplitudes", "solve_mode",
           "solve_heat", "trace"]


@dataclass(frozen=True)
class HeatProblem:
    """Forcing data ``envelope(x, t) * factor(t, omega t)`` plus horizon."""

    envelope: SineSeries
    factor: SourceFactor
    omega: float
    horizon: float
    n_max: int = 32

    def __post_init__(self):
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

    One row per entry of ``modes``; exponential moments are taken per
    (mode, harmonic, term).
    """
    out = np.zeros((len(modes), t.size))
    for row, n in zip(out, modes):
        fn = problem.envelope.coefficient(n)
        for k, a, b in problem.factor.oscillation.harmonics:
            freq = k * problem.omega
            if not a.is_zero:
                row += duhamel_oscillatory(n, fn * a, freq, t).real
            if not b.is_zero:
                row += duhamel_oscillatory(n, fn * b, freq, t).imag
    return out


def _amplitudes_quadrature(problem: HeatProblem, modes, t: np.ndarray,
                           step: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponential-integrator marching with per-panel Gauss quadrature.

    Marches u' = -n^2 u + q for every mode at once on panels no wider than
    ``step``; each panel integral of e^{-n^2 (t_{i+1}-s)} q(s) uses 8-point
    Gauss-Legendre, for the mean and the oscillatory forcing separately.
    """
    if step > math.pi / (2.0 * problem.omega):
        raise ValueError(
            "quadrature step does not resolve the oscillation: "
            f"step {step:g} > pi/(2 omega) = {math.pi / (2 * problem.omega):g}"
        )
    coeffs = [problem.envelope.modes.get(n, SlowFunction.zero()) for n in modes]
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
            fn = np.reshape([np.broadcast_to(np.asarray(c(nodes), float), nodes.shape)
                             for c in coeffs], (-1, nodes.size))
            kernel = fn * np.exp(-n2 * (target - nodes)) * weights
            drive = (factor.mean(nodes), factor.oscillation(nodes, problem.omega * nodes))
            u = u * np.exp(-n2[:, 0] * span) + np.stack([kernel @ d for d in drive])
            pos = target
        out[:, :, idx] = u
    return out[0], out[1]


def mode_amplitudes(problem: HeatProblem, modes, t: np.ndarray, method: str = "auto",
                    quadrature_step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and oscillatory Duhamel parts of ``u_n(t)`` for each of ``modes``.

    Returns two ``(len(modes), len(t))`` arrays whose sum is ``u_n(t)``: the
    part driven by the mean ``r0`` and the part driven by the oscillation
    ``r - r0``.  Catalog envelopes take the closed forms; sampled ones take
    the marching quadrature, which fills the same two arrays.
    """
    if method == "auto":
        method = "closed" if problem.envelope.is_catalog else "quadrature"
    if method == "closed":
        mean = [duhamel_weight(n, problem.envelope.coefficient(n) * problem.factor.mean, t)
                for n in modes]
        return (np.reshape(mean, (-1, t.size)),
                oscillatory_amplitudes(problem, modes, t))
    if method == "quadrature":
        step = quadrature_step
        if step is None:
            step = 2.0 * math.pi / (32.0 * problem.omega)
        return _amplitudes_quadrature(problem, modes, t, step)
    raise ValueError(f"unknown method {method!r}")


def solve_mode(problem: HeatProblem, n: int, t, method: str = "auto",
               quadrature_step: float | None = None):
    """Mode amplitude ``u_n(t) = integral_0^t e^{-n^2(t-s)} f_n(s) r(s, omega s) ds``."""
    if not 1 <= n <= problem.n_max:
        raise ValueError(f"mode {n} outside 1..{problem.n_max}")
    arr = np.asarray(t, dtype=float)
    mean, osc = mode_amplitudes(problem, [n], arr.ravel(), method, quadrature_step)
    out = (mean[0] + osc[0]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _tail_estimate(problem: HeatProblem, horizon: float) -> float:
    tail = 0.0
    probe = np.linspace(0.0, horizon, 65)
    for n, coeff in problem.envelope.modes.items():
        if n > problem.n_max:
            sup = float(np.max(np.abs(np.asarray(coeff(probe), dtype=float))))
            tail += sup / (n * n)
    return tail


def solve_heat(problem: HeatProblem, x_count: int, t_count: int,
               tail_tol: float = 1e-9, method: str = "auto") -> GridFunction:
    """Field ``u(x_i, t_j)`` as a 2-D grid function (deterministic)."""
    if x_count < 2 or t_count < 2:
        raise ValueError("grid counts must be >= 2")
    x = np.linspace(0.0, math.pi, x_count)
    t = np.linspace(0.0, problem.horizon, t_count)
    modes = problem.active_modes
    mean, osc = mode_amplitudes(problem, modes, t, method)
    values = sine_synthesis(x, modes, mean + osc)
    meta = {"omega": problem.omega, "n_max": problem.n_max, "warnings": []}
    tail = _tail_estimate(problem, problem.horizon)
    meta["tail_estimate"] = tail
    if tail > tail_tol:
        meta["warnings"].append(
            f"mode truncation tail estimate {tail:.3e} above {tail_tol:.1e}"
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
