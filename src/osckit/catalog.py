"""Closed-form function catalog shared by all solvers.

Slow time factors are finite sums ``sum_i c_i t^{m_i} e^{g_i t}``; fast
profiles are zero-mean trigonometric polynomials in the fast phase ``tau``
with slow amplitudes; spatial envelopes are finite sine series on
``[0, pi]``.  The catalog is closed under termwise calculus, products, and
Duhamel convolution against ``e^{-n^2 (t-s)}``, so every time integral the
solvers need is evaluated in closed form instead of by time stepping.
A sampled profile ``f(x)`` enters only through ``sine_coefficients``, whose
quadrature turns it into catalog constants.

Each such integral is ``int_0^t e^{-d (t-s)} s^m e^{r s} ds``, taken by parts
or, where ``|r + d| t <= 1``, as a power series; symbolic results (no t)
apply that one rule at ``t = SERIES_HORIZON``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

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
    "sine_synthesis",
]

SERIES_HORIZON = 4.0  # symbolic series regime: |rate + decay| <= 1/4
# Power-series terms per moment.  Numeric (|lam| t <= 1): term p is at most
# 1/p! of the integral, and 1/20! ~ 4e-19 is below half an ulp.  Symbolic:
# 40 terms keep about 1e-13 of the integral's size up to |lam| t = 4.
NUMERIC_TERMS = 20
SYMBOLIC_TERMS = 40


class CatalogError(ValueError):
    """Requested transform leaves the closed-form catalog."""


def _require_finite(owner, *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``owner``'s fields that is nan or inf."""
    for name in names:
        value = getattr(owner, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_type(owner, name: str, cls: type) -> None:
    """Raise ``TypeError`` naming ``owner``'s field ``name`` unless it is a ``cls``."""
    value = getattr(owner, name)
    if not isinstance(value, cls):
        raise TypeError(f"{name} is not a {cls.__name__}, got {type(value).__name__}")


def _require_count(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer, not a
    bool, of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


# ---------------------------------------------------------------------------
# slow time factors:  sum of c * t^m * e^{g t}
# ---------------------------------------------------------------------------

def _merged_terms(terms):
    acc: dict[tuple[int, float], float] = {}
    for coeff, power, rate in terms:
        coeff = float(coeff)
        power = int(power)
        rate = float(rate)
        if power < 0:
            raise CatalogError(f"negative power {power} not in catalog")
        if not (math.isfinite(coeff) and math.isfinite(rate)):
            raise CatalogError("non-finite term in slow function")
        key = (power, rate)
        acc[key] = acc.get(key, 0.0) + coeff
    out = tuple(
        (c, m, g) for (m, g), c in sorted(acc.items()) if c != 0.0
    )
    return out


class SlowFunction:
    """Finite sum ``sum_i c_i t^{m_i} e^{g_i t}`` with real rates.

    Closed under addition, scalar multiples, products, differentiation,
    multiplication by ``e^{a t}``, and integration from 0 to t.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = _merged_terms(terms)

    @classmethod
    def zero(cls) -> "SlowFunction":
        return cls()

    @classmethod
    def constant(cls, value: float) -> "SlowFunction":
        return cls([(value, 0, 0.0)])

    @classmethod
    def monomial(cls, coeff: float, power: int, rate: float = 0.0) -> "SlowFunction":
        return cls([(coeff, power, rate)])

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = np.zeros_like(arr)
        for c, m, g in self.terms:
            out = out + c * arr**m * np.exp(g * arr)
        if arr.ndim == 0:
            return float(out)
        return out

    def sup_on(self, lo: float, hi: float, samples: int = 1025) -> float:
        grid = np.linspace(lo, hi, samples)
        return float(np.max(np.abs(self(grid))))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SlowFunction):
            return SlowFunction(self.terms + other.terms)
        if isinstance(other, (int, float)):
            return SlowFunction(self.terms + ((float(other), 0, 0.0),))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return SlowFunction(tuple((-c, m, g) for c, m, g in self.terms))

    def __sub__(self, other):
        return self + (-other if isinstance(other, SlowFunction) else -float(other))

    def __mul__(self, other):
        if isinstance(other, SlowFunction):
            prod = [
                (c1 * c2, m1 + m2, g1 + g2)
                for c1, m1, g1 in self.terms
                for c2, m2, g2 in other.terms
            ]
            return SlowFunction(prod)
        if isinstance(other, (int, float)):
            return SlowFunction(tuple((c * float(other), m, g) for c, m, g in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SlowFunction) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "SlowFunction(0)"
        bits = " + ".join(f"{c:g}*t^{m}*e^({g:g}t)" for c, m, g in self.terms)
        return f"SlowFunction({bits})"

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "SlowFunction":
        out = []
        for c, m, g in self.terms:
            if m >= 1:
                out.append((c * m, m - 1, g))
            if g != 0.0:
                out.append((c * g, m, g))
        return SlowFunction(out)

    def integral(self) -> "SlowFunction":
        """Antiderivative vanishing at 0, i.e. t -> integral_0^t."""
        return _duhamel_symbolic(self, 0.0)

    def reciprocal(self) -> "SlowFunction":
        """1/self, defined only for a single term c*e^{g t}."""
        if len(self.terms) != 1 or self.terms[0][1] != 0:
            raise CatalogError(
                "reciprocal only exists in the catalog for a single exponential term"
            )
        c, _, g = self.terms[0]
        return SlowFunction([(1.0 / c, 0, -g)])


def _as_slow(value) -> SlowFunction:
    if isinstance(value, SlowFunction):
        return value
    if isinstance(value, (int, float)):
        return SlowFunction.constant(float(value))
    raise CatalogError(f"cannot interpret {value!r} as a slow function")


# ---------------------------------------------------------------------------
# fast profiles:  sum_k a_k(t) cos(k tau) + b_k(t) sin(k tau),  k >= 1
# ---------------------------------------------------------------------------

class FastProfile:
    """Zero-mean 2*pi-periodic trig polynomial in the fast phase.

    Stored as harmonics ``(k, a_k, b_k)`` with slow amplitudes; the absence
    of a k = 0 term makes the zero fast mean structural.
    """

    __slots__ = ("harmonics",)

    def __init__(self, harmonics=()):
        acc: dict[int, list[SlowFunction]] = {}
        for k, a, b in harmonics:
            k = int(k)
            if k < 1:
                raise CatalogError("fast harmonics require k >= 1 (zero mean)")
            a = _as_slow(a)
            b = _as_slow(b)
            if k in acc:
                acc[k][0] = acc[k][0] + a
                acc[k][1] = acc[k][1] + b
            else:
                acc[k] = [a, b]
        self.harmonics = tuple(
            (k, a, b)
            for k, (a, b) in sorted(acc.items())
            if not (a.is_zero and b.is_zero)
        )

    @classmethod
    def zero(cls) -> "FastProfile":
        return cls()

    def __call__(self, t, tau):
        t = np.asarray(t, dtype=float)
        tau_arr = np.asarray(tau, dtype=float)
        out = np.zeros(np.broadcast(t, tau_arr).shape)
        for k, a, b in self.harmonics:
            out = out + a(t) * np.cos(k * tau_arr) + b(t) * np.sin(k * tau_arr)
        if out.ndim == 0:
            return float(out)
        return out

    def __add__(self, other):
        if not isinstance(other, FastProfile):
            return NotImplemented
        return FastProfile(self.harmonics + other.harmonics)

    def __eq__(self, other):
        return isinstance(other, FastProfile) and self.harmonics == other.harmonics

    def __hash__(self):
        return hash(self.harmonics)

    def __repr__(self):
        return f"FastProfile({len(self.harmonics)} harmonics)"

    @property
    def is_zero(self) -> bool:
        return not self.harmonics

    def scale_slow(self, s: SlowFunction) -> "FastProfile":
        return FastProfile([(k, a * s, b * s) for k, a, b in self.harmonics])

    # -- fast-phase calculus --------------------------------------------

    def antiderivative_zero_mean(self) -> "FastProfile":
        """tau -> integral_0^tau minus its fast mean (again zero mean).

        Termwise: cos(k tau) integrates to sin(k tau)/k; sin(k tau)
        integrates to (1 - cos(k tau))/k whose mean 1/k is removed.
        """
        return FastProfile(
            [(k, b * (-1.0 / k), a * (1.0 / k)) for k, a, b in self.harmonics]
        )

    def tau_derivative(self) -> "FastProfile":
        return FastProfile(
            [(k, b * float(k), a * float(-k)) for k, a, b in self.harmonics]
        )

    def antiderivative_fast_mean(self) -> SlowFunction:
        """The fast mean of tau -> integral_0^tau, i.e. sum_k b_k(t)/k."""
        out = SlowFunction.zero()
        for k, _, b in self.harmonics:
            out = out + b * (1.0 / k)
        return out


# ---------------------------------------------------------------------------
# finite sine series on [0, pi]
# ---------------------------------------------------------------------------

class SineSeries:
    """``u(x, t) = sum_{n>=1} c_n(t) sin(n x)`` with catalog coefficients.

    Coefficients are SlowFunctions (constants are wrapped); anything else,
    a sampled callable included, raises ``CatalogError``.
    """

    __slots__ = ("modes",)

    def __init__(self, modes=None):
        cleaned = {int(n): _as_slow(value) for n, value in (modes or {}).items()}
        if any(n < 1 for n in cleaned):
            raise CatalogError("sine series modes start at n = 1")
        self.modes = {n: c for n, c in sorted(cleaned.items()) if not c.is_zero}

    @classmethod
    def from_coefficients(cls, coeffs) -> "SineSeries":
        """Build from an iterable of numbers, coefficient of sin((i+1) x)."""
        return cls({i + 1: c for i, c in enumerate(coeffs)})

    @property
    def max_mode(self) -> int:
        return max(self.modes) if self.modes else 0

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def coefficient(self, n: int) -> SlowFunction:
        return self.modes.get(int(n), SlowFunction.zero())

    def __eq__(self, other):
        return isinstance(other, SineSeries) and self.modes == other.modes

    def __hash__(self):
        return hash(tuple(self.modes.items()))

    def __repr__(self):
        return f"SineSeries(modes={sorted(self.modes)})"

    def __call__(self, x, t=0.0):
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast(x, np.asarray(t, float)).shape)
        for n, coeff in self.modes.items():
            out = out + coeff(t) * np.sin(n * x)
        if out.ndim == 0:
            return float(out)
        return out

    def table(self, t) -> np.ndarray:
        """Coefficient values ``c_n(t)``, shape ``(len(modes), len(t))``, in mode order."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.reshape([c(t) for c in self.modes.values()], (-1, t.size))

    def evaluate_grid(self, x, t) -> np.ndarray:
        """Values on the tensor grid, shape ``(len(x), len(t))``."""
        return sine_synthesis(x, list(self.modes), self.table(t))

    def at_x(self, x0: float) -> SlowFunction:
        """The slow trace ``t -> u(x0, t)``."""
        out = SlowFunction.zero()
        for n in self.modes:
            out = out + self.coefficient(n) * math.sin(n * x0)
        return out


# ---------------------------------------------------------------------------
# source time factor r(t, tau) = mean(t) + oscillation(t, tau)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceFactor:
    """Time factor split into mean part and zero-fast-mean oscillation."""

    mean: SlowFunction
    oscillation: FastProfile

    def __call__(self, t, tau):
        t_arr = np.asarray(t, dtype=float)
        tau_arr = np.asarray(tau, dtype=float)
        out = self.mean(t_arr) + np.zeros(np.broadcast(t_arr, tau_arr).shape)
        if not self.oscillation.is_zero:
            out = out + self.oscillation(t_arr, tau_arr)
        return float(out) if out.ndim == 0 else out

    @property
    def is_zero(self) -> bool:
        return self.mean.is_zero and self.oscillation.is_zero


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

def sine_synthesis(x, modes, amplitudes, out=None) -> np.ndarray:
    """``sum_i sin(modes[i] x) a_i(t)`` as one product ``sin(outer(x, modes)) @ a``.

    The product is ``np.matmul``; ``out``, if given, receives it and is
    returned, with the bits of the product into a new array.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.matmul(np.sin(np.outer(x, modes)), amplitudes, out=out)


@dataclass
class GridFunction:
    """Values on a uniform 1-D or tensor 2-D grid, with sup-norm algebra."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        for a in self.axes:
            if a.size < 2:
                raise ValueError("grid axes need at least 2 nodes")
        if self.values.shape != tuple(a.size for a in self.axes):
            raise ValueError("grid values shape does not match axes")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# sine coefficients by composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@functools.cache
def _legendre16():
    return np.polynomial.legendre.leggauss(16)


def _coefficients_once(sample, n_max: int, panels: int) -> np.ndarray:
    """One pass of 16-point Gauss-Legendre on ``panels`` equal panels of [0, pi]."""
    ref_x, ref_w = _legendre16()
    edges = np.linspace(0.0, math.pi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    vals = np.asarray(sample(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("sampled integrand has wrong shape")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite sample value in sine_coefficients input")
    ns = np.arange(1, n_max + 1)
    sines = np.sin(np.outer(ns, nodes))
    return (2.0 / math.pi) * sines @ (weights * vals)


def sine_coefficients(func, n_max: int, tol: float = 1e-12) -> SineSeries:
    """Sine coefficients ``(2/pi) * integral_0^pi f(x) sin(n x) dx``.

    Composite Gauss-Legendre on ``max(8, n_max)`` panels, doubled until two
    successive passes agree to ``tol``.  ``func`` is a profile of ``x``
    alone and is called as ``func(x)``; the coefficients are catalog
    constants.  A time-dependent ``f(x, t)`` is outside the catalog.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    panels = max(8, n_max)
    prev = _coefficients_once(func, n_max, panels)
    for _ in range(8):
        panels *= 2
        cur = _coefficients_once(func, n_max, panels)
        gap = float(np.max(np.abs(cur - prev)))
        if gap < tol:
            return SineSeries({n: c for n, c in zip(range(1, n_max + 1), cur)
                               if abs(c) > 1e-300})
        prev = cur
    raise ValueError(
        f"sine coefficients did not converge: successive passes agree to "
        f"{gap:.3e} at {panels} panels, tol {tol:.1e}"
    )


# ---------------------------------------------------------------------------
# Duhamel convolutions against e^{-n^2 (t - s)}
# ---------------------------------------------------------------------------

def _series_regime(sizes, t):
    """Where ``int_0^t s^m e^{lam s} ds`` is summed as a power series, not by parts.

    That is ``|lam| |t| <= 1``, for each ``|lam|`` of ``sizes`` (rows) and
    each node of ``t`` (columns).
    """
    return np.multiply.outer(sizes, np.abs(t)) <= 1.0


def _moment_terms(power: int, lam, series: bool, count: int):
    """Terms ``(a, k, b, grows)`` of ``int_0^t s^power e^{lam s} ds``.

    The integral is ``sum a t^k / b``, times ``e^{lam t}`` where ``grows``.
    In the series regime these are the power series' first ``count`` terms;
    otherwise they come from integration by parts (``count`` unused), for
    real or complex ``lam != 0``, whose coefficients ``1/lam^(j+1)`` cancel
    where ``|lam| t`` is small.
    """
    out = []
    if series:
        a = lam ** 0  # lam^p / p!, complex when lam is
        for p in range(count):
            out.append((a, power + p + 1, power + p + 1, False))
            a *= lam / (p + 1)
        return out
    fr = 1.0  # power!/(power-j)!
    for j in range(power + 1):
        out.append(((-1.0) ** j * fr, power - j, lam ** (j + 1), True))
        fr *= power - j
    a, _, b, _ = out[-1]
    return out + [(-a, 0, b, False)]


def _duhamel_symbolic(g: SlowFunction, decay: float) -> SlowFunction:
    """``t -> integral_0^t e^{-decay (t-s)} g(s) ds``; series regime at SERIES_HORIZON."""
    rest = 0.0 - decay  # +0.0, not -0.0, when decay is 0
    out = []
    for c, m, rate in g.terms:
        lam = rate + decay
        series = _series_regime(abs(lam), SERIES_HORIZON)
        out += [(c * a / b, k, rate if grows else rest) for a, k, b, grows
                in _moment_terms(m, lam, series, SYMBOLIC_TERMS)]
    return SlowFunction(out)


# A batch of moments is taken a block of rows at a time, each block under
# MOMENT_CHUNK complex elements (16 B each).  That keeps a block's arrays
# below 256 KiB, the size from which numpy elides temporaries: it would then
# multiply complex arrays in place, which can round differently from the
# one-row call.  It also keeps a whole problem's moments from being live at
# once.  A row longer than that is a block of its own.
MOMENT_CHUNK = 2**14 - 1


class _Work:
    """Named work arrays, reused from block to block of a moment batch.

    A block's arrays are up to 256 KiB each.  Allocated afresh for every
    block, glibc's malloc hands memory of that size back to the system when
    it is freed and faults it in again for the next block, a few
    microseconds a page: about 2000 page faults in one ``spectral`` forward
    solve.  An array asked for again by name and dtype reuses the same
    memory, so a complex table between two real ones takes nothing from
    them.  The tables use their thread's ``_Work`` (``_work``), which keeps
    its memory from call to call, about 1 MB plus the largest decay rows and
    part rows of each dtype so far, so that a ``ladder`` operation's many
    short calls do not fault it in again each time.
    """

    def __init__(self):
        self._arrays = {}  # (name, dtype) -> its memory, flat
        self._views = {}  # (name, dtype, rows, nodes) -> a view of that memory

    def __call__(self, name: str, rows: int, nodes: int, dtype=complex) -> np.ndarray:
        """A ``(rows, nodes)`` array whose values the next call for ``(name, dtype)`` overwrites."""
        key = (name, dtype, rows, nodes)
        view = self._views.get(key)
        if view is None:
            flat = self._arrays.get((name, dtype))
            if flat is None or flat.size < rows * nodes:
                flat = self._arrays[name, dtype] = np.empty(rows * nodes, dtype=dtype)
                self._views = {k: v for k, v in self._views.items() if k[:2] != (name, dtype)}
            view = self._views[key] = flat[:rows * nodes].reshape(rows, nodes)
        return view


_THREAD = threading.local()


def _work() -> _Work:
    """The calling thread's ``_Work``.  A table must be done with its arrays
    before the next table of the thread starts."""
    if not hasattr(_THREAD, "work"):
        _THREAD.work = _Work()
    return _THREAD.work


def _phase_exponential(frequency: float, t) -> np.ndarray:
    """``e^{i frequency t}``, the fast phase every moment of one harmonic shares."""
    return np.exp(complex(0.0, frequency) * np.asarray(t, dtype=float))


class _Grid:
    """What every moment block on one 1-D time grid ``t`` shares, the arena ``work`` too.

    ``span`` is ``|t|``, ``zeros`` the indices of ``t == 0``, ``top`` the
    largest ``|t|`` (0 on an empty grid) and ``low`` the least ``|t| > 0``.
    Row ``m`` of ``e_decays``, an array of ``work``, is ``e^{-d t}`` for the
    decay ``d = decays[m]``, by the rule of ``_rate_exponentials``.
    """

    def __init__(self, t: np.ndarray, decays, work: _Work):
        self.t, self.decays, self.work = t, decays, work
        self.span = np.abs(t)
        self.zeros = np.flatnonzero(t == 0.0)
        self.top = float(np.max(self.span)) if t.size else 0.0
        self.low = float(self.span[self.span > 0.0].min(initial=math.inf))
        self._phase = (None, None)  # the latest frequency asked for, and its phase
        dtype = complex if any(complex(decay).imag for decay in decays) else float
        self.e_decays = work("decays", len(decays), t.size, dtype)
        for row, decay in zip(self.e_decays, decays):
            row[...] = _rate_exponentials(self, [-complex(decay)])[0]

    def phase(self, frequency: float) -> np.ndarray:
        """``_phase_exponential(frequency, t)``, kept until another frequency is asked for."""
        if self._phase[0] != frequency:
            self._phase = (frequency, _phase_exponential(frequency, self.t))
        return self._phase[1]


def _rate_exponentials(grid: _Grid, rates) -> np.ndarray:
    """Rows ``e^{rate t}`` on ``grid`` for ``rates`` of one imaginary part ``w``.

    Each row is numpy's real ``np.exp(rate.real * t)``, one per row, times
    the phase ``grid.phase(w)`` where ``w != 0``, so only the phase pays
    for a complex exp.  Past ``rate.real t = 709.78`` the real factor is
    inf, and so is the product.  The rows are arrays of ``grid.work``.
    """
    rates = [complex(rate) for rate in rates]
    shape = (len(rates), grid.t.size)
    out = np.multiply.outer([rate.real for rate in rates], grid.t,
                            out=grid.work("real rates", *shape, float))
    np.exp(out, out=out)  # in place: the same bits as into a new array
    w = rates[0].imag if rates else 0.0
    if not w:
        return out
    return np.multiply(out, grid.phase(w), out=grid.work("rates", *shape))


def _series_sums(power: int, lams, ts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """``int_0^t s^power e^{lam s} ds`` at nodes ``ts`` of the series regime.

    Node ``e`` belongs to the row whose ``lam`` is ``lams[owner[e]]``; all
    rows have this ``power``.  The ``NUMERIC_TERMS`` terms are one ``(terms,
    nodes)`` array, added in term order by ``cumsum`` (``sum(axis=0)`` may
    add them in another order).  The ``t^2`` row is ``ts * ts``, which is
    what ``ts ** 2`` computes; ``np.power`` with an array exponent rounds it
    differently.
    """
    rows = [_moment_terms(power, lam, True, NUMERIC_TERMS) for lam in lams]
    _, k, b, _ = zip(*rows[0])
    powers = ts ** np.array(k, dtype=float)[:, None]
    if power <= 1:
        powers[1 - power] = ts * ts
    a = np.array([[term[0] for term in row] for row in rows]).T
    scaled = a[:, owner] * powers
    # division and cumsum in place have the bits of new arrays
    np.divide(scaled, np.array(b, dtype=complex)[:, None], out=scaled)
    return np.cumsum(scaled, axis=0, out=scaled)[-1]


def _moment_block(grid: _Grid, powers, rates, ms) -> np.ndarray:
    """``integral_0^t e^{-decay (t-s)} s^power e^{rate s} ds`` for a block of rows.

    Row ``i`` is ``(powers[i], rates[i], grid.decays[ms[i]])`` on the grid;
    the result has shape ``(rows, t.size)`` and is an array of
    ``grid.work``.  The rates must share one imaginary part, and each row
    takes its own real exp (``_rate_exponentials``).

    Each row keeps one rule per node: the by-parts form on the whole axis,
    then the series nodes and ``t = 0`` (exactly ``+0j``) written over it.
    A row with no node outside the series regime, as at resonance, forms no
    ``1/lam^(j+1)`` and no ``e^{rate t}`` at all.  Every element is computed
    by the same numpy loops whichever rows share the block, so each row has
    the bits of its one-row block.
    """
    lams = [complex(rate) + complex(grid.decays[m]) for rate, m in zip(rates, ms)]
    sizes = [abs(lam) for lam in lams]
    # the series regime, |lam| |t| <= 1 (_series_regime), is every node of a
    # row where |lam| max|t| <= 1, its t = 0 nodes where |lam| is finite,
    # and some node t != 0 where |lam| times the least |t| > 0 is at most 1
    parts = [i for i, size in enumerate(sizes) if not size * grid.top <= 1.0]
    if len(parts) == len(lams):
        out = _by_parts(grid, powers, lams, rates, ms, parts)
    else:
        out = np.zeros((len(lams), grid.t.size), dtype=complex)
        if parts:
            out[parts] = _by_parts(grid, powers, lams, rates, ms, parts)
    finite = [i for i, size in enumerate(sizes) if math.isfinite(size)]
    out[np.ix_(finite, grid.zeros) if len(finite) < len(lams) else (slice(None), grid.zeros)] = 0j
    rows = [i for i, size in enumerate(sizes) if size * grid.low <= 1.0]
    step = max(1, MOMENT_CHUNK // (2 * NUMERIC_TERMS))  # series nodes at a time
    for power in sorted({powers[i] for i in rows}):
        mine = [i for i in rows if powers[i] == power]
        # a node in the series regime of any row is in that of the least
        # |lam|, so only those nodes are compared, in the same (owner, node)
        # order
        least = min(sizes[i] for i in mine)
        candidates = np.flatnonzero((least * grid.span <= 1.0) & (grid.span > 0.0))
        owners, nodes = np.nonzero(_series_regime([sizes[i] for i in mine], grid.t[candidates]))
        nodes = candidates[nodes]
        for start in range(0, owners.size, step):
            owner, node = owners[start:start + step], nodes[start:start + step]
            sums = _series_sums(power, [lams[i] for i in mine], grid.t[node], owner)
            owner = np.array(mine)[owner]
            # named, so numpy never multiplies into a temporary in place
            weights = grid.e_decays[np.array(ms)[owner], node]
            out[owner, node] = weights * sums
    return out


def _by_parts(grid: _Grid, powers, lams, rates, ms, rows):
    """The by-parts form of ``_moment_block`` for ``rows``, on the whole axis.

    Each row's divisors ``lam^(j+1)``, ``c / d`` and ``a0 / b0`` come from
    its ``_moment_terms`` as Python scalars.  Term ``j`` is added in one step
    for the rows of each power that have one, in ``_moment_terms`` order, to
    a sum that starts at ``+0`` as the one-row sum does, and the ``t^0`` term
    is one constant; the rows of one power share their numerator ``a t^k``
    (``t ** 1`` is ``t``, so ``np.power`` runs for ``t^2`` and up only).
    Rows ordered by power make each step a slice.  Complex products always go
    to an array that is not an input.
    """
    t, work = grid.t, grid.work
    terms = [_moment_terms(powers[i], lams[i], False, NUMERIC_TERMS) for i in rows]
    degrees = [powers[i] for i in rows]
    shape = (len(rows), t.size)
    c, d = zip(*[(row[-2][0], row[-2][2]) for row in terms])
    constant = (np.array(c) / np.array(d, dtype=complex))[:, None]
    if max(degrees) == 0:
        poly = 0 + constant
    else:
        poly = work("poly", *shape)
        poly.fill(0.0)
        for j in range(max(degrees)):
            for degree in sorted({degree for degree in degrees if degree > j}, reverse=True):
                group = [i for i, other in enumerate(degrees) if other == degree]
                a, k, _, _ = terms[group[0]][j]
                quotient = np.divide(a * (t if k == 1 else t ** k),
                                     np.array([terms[i][j][2] for i in group])[:, None],
                                     out=work("rates", len(group), t.size))
                poly[_index(group)] += quotient
        poly += constant
    rate_part = _rate_exponentials(grid, [rates[i] for i in rows])
    # never in place: numpy multiplies a complex array into one of its
    # operands with other bits than into a new array
    moments = np.multiply(poly, rate_part, out=work("moments", *shape))
    # poly is spent, so its array takes the decay part
    decay_part = np.multiply(np.array([a0 / b0 for *_, (a0, _, b0, _) in terms])[:, None],
                             grid.e_decays[_index([ms[i] for i in rows])],
                             out=work("poly", *shape))
    return np.add(moments, decay_part, out=moments)


def exp_kernel_moment(power: int, rate: complex, decay: complex, t) -> np.ndarray:
    """``integral_0^t e^{-decay (t-s)} s^power e^{rate s} ds``.

    Complex-safe and vectorized in t: the one-row case of the moment batch
    (``_moment_block``).  Large ``decay`` never enters a bare exponential
    (only ``e^{rate t}`` and ``e^{-decay t}`` appear), and a power series
    takes over where ``0 < |rate + decay| * t <= 1`` so the near-resonant
    regime loses no digits to cancellation.  At ``t = 0`` the integral is
    exactly ``0j`` and no terms are summed.
    """
    arr = np.asarray(t, dtype=float)
    flat = arr.reshape(-1)
    # its own arena: the result is one of its arrays
    out = _moment_block(_Grid(flat, [decay], _Work()), [int(power)], [complex(rate)], [0])[0]
    return out[0] if arr.ndim == 0 else out.reshape(arr.shape)


def _index(rows: list):
    """``rows`` as a slice where they are evenly spaced upwards, so indexing takes a view."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if rows and step > 0 and rows == list(range(rows[0], rows[-1] + 1, step)):
        return slice(rows[0], rows[-1] + 1, step)
    return rows


def _duhamel_table(sums, t, decays, real=False) -> np.ndarray:
    """Rows that are sums of ``integral_0^t e^{-d (t-s)} g(s) e^{i f s} ds``, a new array.

    ``sums[r]`` lists the parts ``(m, g, f, imag)`` whose sum is row ``r``:
    the decay ``d = decays[m]``, a SlowFunction ``g`` and a frequency ``f``.
    A part is complex, or where ``real`` its real part, or its imaginary
    part where ``imag`` is set; one with no terms is zero.  Each part starts
    at ``+0`` and adds ``c * moment`` in term order, and each row starts at
    ``+0`` and adds its finished parts in increasing order of ``f``, then in
    list order.  A part is never ``-0.0``, so a one-part row is that part.

    The table has one ``_Grid`` on the thread's ``_Work``, which forms
    ``e^{-d t}`` once per decay, and takes one frequency at a time, whose
    phase ``e^{i f t}`` the grid forms once if ``f != 0``.  Every distinct
    ``(m, power, rate)`` of a frequency is one moment row of a block of
    ``_moment_block``, so parts share the moments of their common terms.
    Rows are ordered by ``(m, power, rate)``, the order of each ``g``'s
    terms, and blocks hold whole decays where they fit; each moment row
    takes the real exp of its ``e^{(rate + i f) t}``.
    """
    grid = _Grid(t, decays, _work())
    out = np.zeros((len(sums), t.size), float if real else complex)
    frequencies = {}  # f -> its parts, each with its row, in row order
    for r, row in enumerate(sums):
        for part in row:
            frequencies.setdefault(part[2], []).append((r, part))
    for f in sorted(frequencies):
        _add_parts(grid, out, frequencies[f], f)
    return out


def _add_parts(grid: _Grid, table, pairs, frequency) -> None:
    """Add the parts of one ``frequency`` of ``_duhamel_table``, ``pairs`` of
    ``(row, part)`` in order of row, into ``table``, on the table's grid."""
    t, work = grid.t, grid.work
    rows, parts = zip(*pairs)
    keys = sorted({(m, power, rate) for m, g, _, _ in parts for _, power, rate in g.terms})
    if not keys:
        return
    real = table.dtype == float
    out = work("parts", len(parts), t.size, table.dtype)
    out.fill(0.0)
    full = {rate: rate + 1j * frequency for _, _, rate in keys}
    step = max(1, MOMENT_CHUNK // max(1, t.size))
    first = {}  # m -> its first row
    for i, (m, _, _) in enumerate(keys):
        first.setdefault(m, i)
    bounds = [0]
    while bounds[-1] < len(keys):
        start = bounds[-1]
        stop = min(start + step, len(keys))
        if stop < len(keys) and first[keys[stop][0]] > start:
            stop = first[keys[stop][0]]
        bounds.append(stop)
    block_of = [block for block in range(len(bounds) - 1)
                for _ in range(bounds[block], bounds[block + 1])]
    row = {key: i for i, key in enumerate(keys)}
    # round r of a block adds the r-th term in that block of each part, so
    # every part adds its terms in order and no round names a part twice
    adds = [[] for _ in bounds[1:]]  # per block: (round, part, row, coefficient)
    used = {}  # row -> its first (round, part)
    for j, (m, g, _, imag) in enumerate(parts):
        rounds = {}
        for c, power, rate in g.terms:
            i = row[m, power, rate]
            block = block_of[i]
            q = rounds[block] = rounds.get(block, -1) + 1
            adds[block].append((q, j, i, -1j * c if imag else c))
            used[i] = min(used.get(i, (q, j)), (q, j))

    for block, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        # by power, so _by_parts takes each term on a slice, and within a
        # power in the order the terms take them, so the terms are a slice too
        order = sorted(range(start, stop), key=lambda i: (keys[i][1], used[i]))
        mine = [keys[i] for i in order]
        position = {i: n for n, i in enumerate(order)}
        values = _moment_block(grid, [power for _, power, _ in mine],
                               [full[rate] for *_, rate in mine], [m for m, _, _ in mine])
        here = sorted(adds[block])
        # the rate exponentials and the decay part are spent: their arrays
        # take the terms
        local = _index([position[add[2]] for add in here])
        if isinstance(local, slice):
            terms = values[local]
        else:
            terms = np.take(values, local, axis=0, out=work("rates", len(here), t.size))
        terms = np.multiply(np.array([add[3] for add in here], dtype=complex)[:, None], terms,
                            out=work("poly", len(here), t.size))
        if real:
            terms = terms.real
        lo = 0
        while lo < len(here):
            hi = lo + 1
            while hi < len(here) and here[hi][0] == here[lo][0]:
                hi += 1
            out[_index([add[1] for add in here[lo:hi]])] += terms[lo:hi]
            lo = hi
    # a row's parts are adjacent: round q adds the q-th part of each row
    plan, q = [], 0
    for j, r in enumerate(rows):
        q = q + 1 if j and r == rows[j - 1] else 0
        if q == len(plan):
            plan.append([])
        plan[q].append(j)
    for add in plan:
        table[_index([rows[j] for j in add])] += out[_index(add)]


def _duhamel_weights(ns, gs, t: np.ndarray) -> np.ndarray:
    """Rows ``duhamel_weight(n, g, t)`` for ``ns`` and ``gs``: a real ``_duhamel_table``."""
    return _duhamel_table([[(m, g, 0.0, False)] for m, g in enumerate(gs)], t,
                          [float(n) * float(n) for n in ns], True)


def duhamel_weight(n: int, g: SlowFunction, t):
    """``integral_0^t e^{-n^2 (t-s)} g(s) ds`` in closed form."""
    out = duhamel_oscillatory(n, g, 0.0, t).real
    return float(out) if out.ndim == 0 else out


def duhamel_oscillatory(n: int, g: SlowFunction, frequency: float, t):
    """``integral_0^t e^{-n^2 (t-s)} g(s) e^{i * frequency * s} ds`` (complex).

    Real part gives the cos-modulated integral, imaginary part the
    sin-modulated one.  This is the table (``_duhamel_table``) of one part:
    all moments share one real ``e^{-n^2 t}`` and one phase ``e^{i frequency
    t}``, and each moment of a term of rate ``r`` takes its ``e^{(r + i
    frequency) t}`` as the real ``e^{r t}`` times that phase.
    """
    arr = np.asarray(t, dtype=float)
    table = _duhamel_table([[(0, g, frequency, False)]], arr.reshape(-1),
                           [float(n) * float(n)])
    return table[0].reshape(arr.shape)


def duhamel_slow(n: int, g: SlowFunction) -> SlowFunction:
    """``t -> integral_0^t e^{-n^2 (t-s)} g(s) ds`` as a SlowFunction.

    A term with ``|rate + n^2| <= 1/SERIES_HORIZON``, on or near the
    resonance, becomes a Taylor polynomial times ``e^{-n^2 t}``.
    """
    return _duhamel_symbolic(g, float(n) * float(n))
