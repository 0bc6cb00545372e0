"""Spectral solver for the forced heat equation on (0, pi) x (0, T).

    u_t = u_xx + envelope(x, t) * factor(t, omega * t),   u = 0 on the
    parabolic boundary (t = 0 and x = 0, pi).

Each sine mode obeys ``u_n' = -n^2 u_n + f_n(t) r(t, omega t)`` and is
integrated by the Duhamel formula.  The envelope is a catalog
``SineSeries``, which reduces the oscillatory part to complex-rate
exponential moments, so cost and accuracy are independent of omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (
    GridFunction,
    SineSeries,
    SourceFactor,
    _decay_rows,
    _duhamel_table,
    _duhamel_weights,
    _phase_exponential,
    _require_finite,
    _Work,
    _work,
    sine_synthesis,
)
# stay importable here because bench/spans.py traces these bindings
from .catalog import duhamel_oscillatory, duhamel_weight  # noqa: F401

__all__ = ["HeatProblem", "mode_amplitudes", "oscillatory_amplitudes", "solve_heat",
           "trace"]

TAIL_TOL = 1e-9  # mode truncation tail estimate above which solve_heat warns


@dataclass(frozen=True)
class HeatProblem:
    """Forcing data ``envelope(x, t) * factor(t, omega t)`` plus horizon."""

    envelope: SineSeries
    factor: SourceFactor
    omega: float
    horizon: float
    n_max: int = 32

    def __post_init__(self):
        if not isinstance(self.envelope, SineSeries):
            raise TypeError(f"envelope {self.envelope!r} is not a SineSeries")
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

    One row per entry of ``modes``.  Each harmonic's moments, for all modes
    at once, are one table (``catalog._duhamel_table``): one moment per
    (mode, distinct term), shared by the cos and sin parts, one phase
    ``e^{i k omega t}`` for all of them, and one real ``e^{-n^2 t}`` per mode
    for every harmonic.  Each row then adds its harmonics' cos and sin parts
    in order.
    """
    work = _work()
    decays = [float(n) * float(n) for n in modes]
    return _oscillatory(problem, modes, t, decays, _decay_rows(decays, t, work), work)


def _oscillatory(problem: HeatProblem, modes, t: np.ndarray, decays, e_decays: np.ndarray,
                 work: _Work) -> np.ndarray:
    """``oscillatory_amplitudes`` with the modes' ``decays`` ``n^2``, their
    ``_decay_rows`` and the arrays of ``work``."""
    out = np.zeros((len(modes), t.size))
    envelope = [problem.envelope.coefficient(n) for n in modes]
    for k, a, b in problem.factor.oscillation.harmonics:
        frequency = k * problem.omega
        pieces = [(c, imag) for imag, c in ((False, a), (True, b)) if not c.is_zero]
        parts = [(m, fn * c, imag) for m, fn in enumerate(envelope) for c, imag in pieces]
        # an array of work, which the next harmonic's table overwrites
        table = _duhamel_table(parts, frequency, t, decays, e_decays,
                               _phase_exponential(frequency, t), True, work)
        for piece in range(len(pieces)):  # each mode's cos part, then its sin part
            out += table[piece::len(pieces)]
    return out


def mode_amplitudes(problem: HeatProblem, modes,
                    t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and oscillatory Duhamel parts of ``u_n(t)`` for each of ``modes``.

    Returns two ``(len(modes), len(t))`` arrays whose sum is ``u_n(t)``: the
    part driven by the mean ``r0`` and the part driven by the oscillation
    ``r - r0``.  The mean's moments are one batch, and both parts share one
    ``e^{-n^2 t}`` per mode.
    """
    work = _work()
    decays = [float(n) * float(n) for n in modes]
    e_decays = _decay_rows(decays, t, work)
    mean = _duhamel_weights(modes, [problem.envelope.coefficient(n) * problem.factor.mean
                                    for n in modes], t, e_decays)
    return mean, _oscillatory(problem, modes, t, decays, e_decays, work)


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
