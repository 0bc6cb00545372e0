"""Second-kind Volterra equations by product-trapezoidal marching.

Solves ``diagonal(t) l(t) + integral_0^t K(t, s) l(s) ds = rhs(t)`` on a
uniform grid.  Separable kernels ``K(t, s) = sum_n c_n(s) e^{-n^2 (t-s)}``
make the march a linear recurrence in N mode sums.  The M steps are cut
into chunks of about ``sqrt(M / 4)`` rows that march side by side, each
with its response to its own data and to every unit history; one short
scan over the chunk boundaries carries the true history, and one product
forms every row.  The work is O(M N^2) element-wise with no LU, so it wins
for few modes and loses to a blocked triangular solve past about 20 modes
(see ``solve``).  Kernels are always separable (``Kernel``); a zero kernel
reduces the equation to a division.  A spectral resolvent gives the exact
solution of the constant-coefficient separable case (needed where the
O(h^2) marching error would mask a data-consistency question).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import (
    GridFunction,
    SineSeries,
    SlowFunction,
    _decay_rows,
    _duhamel_table,
    _require_finite,
)
# exp_kernel_moment stays importable here because bench/spans.py traces this binding
from .catalog import exp_kernel_moment  # noqa: F401

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

    diagonal: object  # SlowFunction | samples on grid()
    kernel: Kernel
    rhs: object       # SlowFunction | samples on grid()
    horizon: float
    intervals: int = 2048

    def __post_init__(self):
        _require_finite(self, "horizon")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        m = self.intervals
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"intervals must be an integer, got {m!r}")
        if m < 1:
            raise ValueError("intervals must be >= 1")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.intervals + 1)


def _sample(obj, t: np.ndarray, what: str) -> np.ndarray:
    if isinstance(obj, SlowFunction):
        vals = obj(t)
    elif isinstance(obj, (np.ndarray, list, tuple)):
        vals = np.asarray(obj, dtype=float)
        if vals.shape != t.shape:
            raise ValueError(f"{what} samples have wrong length")
    else:
        raise TypeError(f"{what} must be a SlowFunction or samples, "
                        f"got {type(obj).__name__}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"non-finite {what} values")
    return vals


def solve(problem: VolterraProblem) -> GridFunction:
    """Product-trapezoidal marching; second-order accurate.

    Row i solves

        l_i = [rhs_i - h (K(t_i,t_0) l_0 / 2 + sum_{0<j<i} K(t_i,t_j) l_j)]
              / [diag_i + (h/2) K(t_i,t_i)].

    The separable kernel marches these rows in chunks side by side and
    joins the chunks with one carry scan (see ``_march_chunks``); a zero
    kernel divides.  A kernel that is not a ``Kernel`` raises ``TypeError``.

    The work is O(M N^2) for N modes, in about 6 numpy calls per row of a
    chunk and 2 per chunk.  At M = 2^15 on one x86_64 core it takes about
    6 ms for N = 3, 40 ms for N = 16 and 145 ms for N = 32.  A blocked
    triangular solve (64-step blocks, O(M (64^2/3 + 64 N)) in LAPACK) takes
    30-70 ms over that range, so it is the faster march past about 20 modes.
    """
    if not isinstance(problem.kernel, Kernel):
        raise TypeError(f"kernel {problem.kernel!r} is not a separable Kernel")
    t = problem.grid()
    h = problem.horizon / problem.intervals
    g = _sample(problem.diagonal, t, "diagonal")
    mu = _sample(problem.rhs, t, "rhs")
    if np.min(np.abs(g)) <= DENOMINATOR_FLOOR:
        raise SingularEquationError("diagonal coefficient not bounded away from zero")

    l = np.empty(t.size)
    l[0] = mu[0] / g[0]

    if problem.kernel.modes:
        ns = np.array([n for n, _ in problem.kernel.modes], dtype=float)
        cs = np.vstack([_sample(c, t, "kernel coefficient")
                        for _, c in problem.kernel.modes])
        den = g + 0.5 * h * cs.sum(axis=0)  # diag_i + (h/2) K(t_i, t_i)
        bad = np.flatnonzero(np.abs(den[1:]) < DENOMINATOR_FLOOR)
        if bad.size:
            raise SingularEquationError(f"singular step at t = {t[bad[0] + 1]:g}")
        _march_chunks(l, mu, den, cs, ns, h)
    else:
        l[1:] = mu[1:] / g[1:]  # zero kernel
    return GridFunction((t,), l, {"intervals": problem.intervals, "h": h})


def _march_chunks(l, mu, den, cs, ns, h) -> None:
    """Fill ``l[1:]`` for the separable kernel, every chunk of rows at once.

    With ``D_n = e^{-n^2 h}`` and trapezoid weights ``w_0 = 1/2``,
    ``w_j = 1``, row i reads ``den_i l_i + sum_n s_n(i) = mu_i``, where
    ``s_n(1) = D_n h w_0 c_n(t_0) l_0`` and
    ``s_n(i+1) = D_n (s_n(i) + h w_i c_n(t_i) l_i)``: a linear recurrence.
    Rows 1..M are cut into ``nch`` chunks of ``b`` rows, the last padded
    with rows that do nothing (``mu = 0``, ``den = 1``, ``c = 0``), and
    all chunks advance together, one row per step.  Each chunk carries an
    ``N x (N+1)`` state: column 0 is its response to its own ``mu`` from
    zero history, column ``1 + m`` its response to the unit history
    ``e_m``.  A scan over the chunks then carries the true history,
    ``sigma_{k+1} = e_k + F_k sigma_k`` with ``e_k``, ``F_k`` the chunk's
    final columns, and every row is ``l = y + G sigma``.
    """
    m, modes = l.size - 1, ns.size
    b = _chunk_rows(m)
    nch = -(-m // b)

    def by_row(a, fill):  # (..., M) -> (b, ..., nch), chunk index contiguous
        lead = a.shape[:-1]
        a = np.concatenate([a, np.full(lead + (nch * b - m,), fill)], axis=-1)
        return np.ascontiguousarray(np.moveaxis(a.reshape(lead + (nch, b)), -1, 0))

    decay = np.exp(-(ns * ns) * h)[:, None, None]  # D_n
    mu_r, neg_den = by_row(mu[1:], 0.0), by_row(-den[1:], -1.0)
    hwc = by_row(h * cs[:, 1:], 0.0)  # h w_i c_n(t_i), w_i = 1 past t_0
    state = np.zeros((modes, modes + 1, nch))
    state[:, 1:, :] = np.eye(modes)[:, :, None]
    resp = np.empty((b, modes + 1, nch))  # row responses: y in column 0, G after
    for lr, mu_i, neg_den_i, hwc_i in zip(resp, mu_r, neg_den, hwc[:, :, None, :]):
        np.add.reduce(state, axis=0, out=lr)  # l = (mu - sum_n s_n) / den
        np.subtract(lr[0], mu_i, out=lr[0])
        lr /= neg_den_i
        state += hwc_i * lr
        state *= decay

    carry, jump = state[:, 0, :].T.copy(), state[:, 1:, :].transpose(2, 0, 1).copy()
    sigma = np.empty((nch, modes))  # true history entering each chunk
    sigma[0] = decay[:, 0, 0] * (0.5 * h * cs[:, 0]) * l[0]
    for e, f, prev, nxt in zip(carry, jump, sigma, sigma[1:]):
        np.add(e, f @ prev, out=nxt)
    rows = resp[:, 0, :] + np.einsum("rnk,kn->rk", resp[:, 1:, :], sigma)
    l[1:] = rows.T.ravel()[:m]


def _chunk_rows(m: int) -> int:
    """Rows per chunk of an M-step march; about ``sqrt(M / 4)`` balances the
    ``b`` row steps against the ``M / b`` scan steps."""
    return max(1, math.isqrt(m // 4))


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
        decays = [-lam for lam in self.eigenvalues]
        moments = _duhamel_table([(e, self.rhs, False) for e in range(len(decays))], 0.0, arr,
                                 decays, _decay_rows(decays, arr), None)
        for row, weight in zip(moments, self.weights):
            row[...] = weight * row / self.g0
        return (self.vectors @ moments).real

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        y = self.mode_integrals(arr)
        l = (self.rhs(arr) - self.c @ y) / self.g0
        return float(l[0]) if scalar else l
