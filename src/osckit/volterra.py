"""Second-kind Volterra equations by product-trapezoidal marching.

Solves ``diagonal(t) l(t) + integral_0^t K(t, s) l(s) ds = rhs(t)`` on a
uniform grid.  Separable kernels ``K(t, s) = sum_n c_n(s) e^{-n^2 (t-s)}``
get an O(M * modes) exponential recurrence; arbitrary kernel callables fall
back to row-wise trapezoid sums.  A spectral resolvent gives the exact
solution of the constant-coefficient separable case (needed where the
O(h^2) marching error would mask a data-consistency question).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import GridFunction, SineSeries, SlowFunction, exp_kernel_moment

__all__ = [
    "SingularEquationError",
    "Kernel",
    "VolterraProblem",
    "build_kernel",
    "solve",
    "convergence_order",
    "ConvergenceReport",
    "SeparableResolvent",
]

DENOMINATOR_FLOOR = 1e-12


class SingularEquationError(RuntimeError):
    """Diagonal coefficient (after quadrature correction) vanished."""


@dataclass(frozen=True)
class Kernel:
    """Separable kernel ``K(t, s) = sum c_n(s) e^{-n^2 (t - s)}``."""

    modes: tuple[tuple[int, SlowFunction], ...]
    tail_bound: float = 0.0

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.zeros(np.broadcast(t, s).shape)
        for n, c in self.modes:
            out = out + c(s) * np.exp(-float(n * n) * (t - s))
        return float(out) if out.ndim == 0 else out

    @property
    def is_constant(self) -> bool:
        """True when every coefficient is a constant (convolution kernel)."""
        return all(
            len(c.terms) == 0 or (len(c.terms) == 1 and c.terms[0][1:] == (0, 0.0))
            for _, c in self.modes
        )


def build_kernel(envelope: SineSeries, x0: float, n_max: int = 32) -> Kernel:
    """Kernel ``-sum_n n^2 f_n(s) sin(n x0) e^{-n^2 (t-s)}`` of the trace equation.

    Modes of the envelope above ``n_max`` are dropped; their worst-case
    contribution ``sum |f_n| n^2 e^{-n^2 (t-s)}`` at t = s is recorded as
    ``tail_bound``.
    """
    if not 0.0 < x0 < math.pi:
        raise ValueError(f"x0 = {x0:g} outside (0, pi)")
    modes = []
    tail = 0.0
    for n in envelope.modes:
        coeff = envelope.coefficient(n) * (-float(n * n) * math.sin(n * x0))
        if n <= n_max:
            if not coeff.is_zero:
                modes.append((n, coeff))
        else:
            tail += max(abs(c) for c, _, _ in coeff.terms) if coeff.terms else 0.0
    return Kernel(tuple(modes), tail)


@dataclass(frozen=True)
class VolterraProblem:
    """diagonal(t) l(t) + int_0^t K(t,s) l(s) ds = rhs(t) on [0, horizon]."""

    diagonal: object  # SlowFunction | callable | ndarray
    kernel: object    # Kernel | callable K(t, s)
    rhs: object       # SlowFunction | callable | ndarray
    horizon: float
    intervals: int = 2048

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.intervals + 1)


def _sample(obj, t: np.ndarray, what: str) -> np.ndarray:
    if isinstance(obj, SlowFunction):
        vals = obj(t)
    elif callable(obj):
        vals = np.asarray(obj(t), dtype=float)
    else:
        vals = np.asarray(obj, dtype=float)
        if vals.shape != t.shape:
            raise ValueError(f"{what} samples have wrong length")
    vals = np.broadcast_to(np.asarray(vals, dtype=float), t.shape).copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite {what} values")
    return vals


def solve(problem: VolterraProblem) -> GridFunction:
    """Product-trapezoidal marching; second-order accurate.

    Row i solves

        l_i = [rhs_i - h (K(t_i,t_0) l_0 / 2 + sum_{0<j<i} K(t_i,t_j) l_j)]
              / [diag_i + (h/2) K(t_i,t_i)].
    """
    t = problem.grid()
    h = problem.horizon / problem.intervals
    g = _sample(problem.diagonal, t, "diagonal")
    mu = _sample(problem.rhs, t, "rhs")
    if np.min(np.abs(g)) <= DENOMINATOR_FLOOR:
        raise SingularEquationError("diagonal coefficient not bounded away from zero")

    m = t.size
    l = np.empty(m)
    l[0] = mu[0] / g[0]

    if isinstance(problem.kernel, Kernel) and problem.kernel.modes:
        ns = np.array([n for n, _ in problem.kernel.modes], dtype=float)
        cs = np.vstack([_sample(c, t, "kernel coefficient")
                        for _, c in problem.kernel.modes])
        decay = np.exp(-(ns * ns) * h)
        running = np.zeros(ns.size)
        diag_k = cs.sum(axis=0)  # K(t_i, t_i)
        for i in range(1, m):
            w_prev = 0.5 if i == 1 else 1.0
            running = decay * (running + w_prev * cs[:, i - 1] * l[i - 1])
            den = g[i] + 0.5 * h * diag_k[i]
            if abs(den) < DENOMINATOR_FLOOR:
                raise SingularEquationError(f"singular step at t = {t[i]:g}")
            l[i] = (mu[i] - h * running.sum()) / den
    elif isinstance(problem.kernel, Kernel):
        l[1:] = mu[1:] / g[1:]  # zero kernel
    else:
        kernel = problem.kernel
        for i in range(1, m):
            row = np.asarray(kernel(t[i], t[: i + 1]), dtype=float)
            den = g[i] + 0.5 * h * row[i]
            if abs(den) < DENOMINATOR_FLOOR:
                raise SingularEquationError(f"singular step at t = {t[i]:g}")
            acc = 0.5 * row[0] * l[0] + row[1:i] @ l[1:i]
            l[i] = (mu[i] - h * acc) / den
    return GridFunction((t,), l, {"intervals": problem.intervals, "h": h})


@dataclass(frozen=True)
class ConvergenceReport:
    intervals: tuple[int, ...]
    errors: tuple[float, ...]
    pair_orders: tuple[float, ...]
    order: float
    monotone: bool
    degenerate: bool


def convergence_order(problem: VolterraProblem, ladder, reference) -> ConvergenceReport:
    """Observed order from successive grid refinements against ``reference``.

    ``reference`` is the exact solution as a callable of t.  Errors at
    machine level mark the report degenerate; non-monotone errors clear the
    ``monotone`` flag so callers can treat the order as unreliable.
    """
    ladder = tuple(int(m) for m in ladder)
    errors = []
    scale = 0.0
    for m in ladder:
        sol = solve(replace(problem, intervals=m))
        exact = np.asarray(reference(sol.axes[0]), dtype=float)
        scale = max(scale, float(np.max(np.abs(exact))))
        errors.append(float(np.max(np.abs(sol.values - exact))))
    degenerate = max(errors) <= 1e-12 * (1.0 + scale)
    pair_orders = tuple(
        math.log2(errors[k] / errors[k + 1]) if errors[k + 1] > 0 else math.inf
        for k in range(len(errors) - 1)
    )
    monotone = all(errors[k] > errors[k + 1] for k in range(len(errors) - 1))
    finite = [p for p in pair_orders if math.isfinite(p)]
    order = sum(finite) / len(finite) if finite and not degenerate else math.nan
    return ConvergenceReport(ladder, tuple(errors), pair_orders, order,
                             monotone, degenerate)


class SeparableResolvent:
    """Exact solution operator for the constant separable case.

    For ``g0 l(t) + sum_n c_n y_n(t) = rhs(t)`` with
    ``y_n(t) = integral_0^t e^{-n^2 (t-s)} l(s) ds``, the vector y solves the
    linear constant-coefficient system ``y' = B y + rhs(t) 1 / g0`` with
    ``B = -diag(n^2) - 1 c^T / g0``.  Eigendecomposition of B reduces every
    component to closed-form exponential moments of the catalog rhs, so both
    l and the mode integrals y_n are available at machine precision for any
    t - no time stepping, no grid error.
    """

    def __init__(self, g0: float, mode_ns, mode_coeffs, rhs: SlowFunction):
        self.g0 = float(g0)
        self.ns = np.asarray(mode_ns, dtype=float)
        self.c = np.asarray(mode_coeffs, dtype=float)
        if self.ns.shape != self.c.shape:
            raise ValueError("mode lists of unequal length")
        if abs(self.g0) <= DENOMINATOR_FLOOR:
            raise SingularEquationError("constant diagonal too small")
        self.rhs = rhs
        n2 = self.ns * self.ns
        b = -np.diag(n2) - np.outer(np.ones_like(self.c), self.c) / self.g0
        lam, vec = np.linalg.eig(b)
        cond = np.linalg.cond(vec)
        if not np.isfinite(cond) or cond > 1e10:
            raise SingularEquationError(
                f"defective mode system (eigenvector condition {cond:.2e})"
            )
        self.eigenvalues = lam
        self.vectors = vec
        self.weights = np.linalg.solve(vec, np.ones(self.ns.size, dtype=complex))

    def mode_integrals(self, t) -> np.ndarray:
        """``y_n(t)``, shape (modes, len(t))."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        moments = np.zeros((self.ns.size, arr.size), dtype=complex)
        for e, lam in enumerate(self.eigenvalues):
            acc = np.zeros(arr.size, dtype=complex)
            for coeff, power, rate in self.rhs.terms:
                acc += coeff * exp_kernel_moment(power, rate, -lam, arr)
            moments[e] = self.weights[e] * acc / self.g0
        return (self.vectors @ moments).real

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        y = self.mode_integrals(arr)
        l = (self.rhs(arr) - self.c @ y) / self.g0
        return float(l[0]) if scalar else l
