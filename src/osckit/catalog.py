"""Closed-form function catalog shared by all solvers.

Slow time factors are finite sums ``sum_i c_i t^{m_i} e^{g_i t}``; fast
profiles are zero-mean trigonometric polynomials in the fast phase ``tau``
with slow amplitudes; spatial envelopes are finite sine series on
``[0, pi]``.  The catalog is closed under termwise calculus, products, and
Duhamel convolution against ``e^{-n^2 (t-s)}``, so every time integral the
solvers need is evaluated in closed form instead of by time stepping.
Arbitrary callables are admitted only through sampling plus quadrature.

Each such integral is ``int_0^t e^{-d (t-s)} s^m e^{r s} ds``, taken by parts
or, where ``|r + d| t <= 1``, as a power series; symbolic results (no t)
apply that one rule at ``t = SERIES_HORIZON``.
"""

from __future__ import annotations

import functools
import math
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
    "sine_coefficients_in_time",
    "duhamel_weight",
    "duhamel_oscillatory",
    "duhamel_slow",
    "exp_kernel_moment",
    "sine_synthesis",
]

SERIES_HORIZON = 4.0  # symbolic series regime: |rate + decay| <= 1/4


class CatalogError(ValueError):
    """Requested transform leaves the closed-form catalog."""


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

    def scale(self, factor: float) -> "FastProfile":
        return FastProfile([(k, a * float(factor), b * float(factor)) for k, a, b in self.harmonics])

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

    Coefficients are SlowFunctions (constants are wrapped); a plain callable
    ``t -> value`` is also accepted for sampled data, as returned by
    ``sine_coefficients_in_time``, in which case the exact transforms
    (``at_x``, kernels, Duhamel) are unavailable.
    """

    __slots__ = ("modes",)

    def __init__(self, modes=None):
        cleaned: dict[int, object] = {}
        for n, value in (modes or {}).items():
            n = int(n)
            if n < 1:
                raise CatalogError("sine series modes start at n = 1")
            if isinstance(value, (int, float, SlowFunction)):
                value = _as_slow(value)
                if value.is_zero:
                    continue
            elif not callable(value):
                raise CatalogError(f"mode {n} coefficient {value!r} unusable")
            cleaned[n] = value
        self.modes = dict(sorted(cleaned.items()))

    @classmethod
    def from_coefficients(cls, coeffs) -> "SineSeries":
        """Build from an iterable of numbers, coefficient of sin((i+1) x)."""
        return cls({i + 1: c for i, c in enumerate(coeffs)})

    @property
    def max_mode(self) -> int:
        return max(self.modes) if self.modes else 0

    @property
    def is_catalog(self) -> bool:
        return all(isinstance(v, SlowFunction) for v in self.modes.values())

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def coefficient(self, n: int) -> SlowFunction:
        value = self.modes.get(int(n), SlowFunction.zero())
        if not isinstance(value, SlowFunction):
            raise CatalogError(f"mode {n} coefficient is sampled, not catalog")
        return value

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

    def evaluate_grid(self, x, t) -> np.ndarray:
        """Values on the tensor grid, shape ``(len(x), len(t))``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rows = [np.broadcast_to(np.asarray(c(t), float), t.shape)
                for c in self.modes.values()]
        return sine_synthesis(x, list(self.modes), np.reshape(rows, (-1, t.size)))

    def at_x(self, x0: float) -> SlowFunction:
        """The slow trace ``t -> u(x0, t)`` (catalog coefficients only)."""
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

def sine_synthesis(x, modes, amplitudes) -> np.ndarray:
    """``sum_i sin(modes[i] x) a_i(t)`` as one product ``sin(outer(x, modes)) @ a``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.sin(np.outer(x, modes)) @ amplitudes


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

    def interp(self, point: float) -> float:
        """Linear interpolation, 1-D grids only."""
        if len(self.axes) != 1:
            raise ValueError("interp is defined for 1-D grid functions")
        return float(np.interp(point, self.axes[0], self.values))


# ---------------------------------------------------------------------------
# sine coefficients by composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@functools.cache
def _legendre(points: int):
    return np.polynomial.legendre.leggauss(points)


def _gauss_nodes(lo: float, hi: float, panels: int, points: int):
    """Composite ``points``-point Gauss-Legendre on ``panels`` equal panels of [lo, hi]."""
    ref_x, ref_w = _legendre(points)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _coefficients_once(sample, n_max: int, panels: int) -> np.ndarray:
    nodes, weights = _gauss_nodes(0.0, math.pi, panels, 16)
    vals = np.asarray(sample(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("sampled integrand has wrong shape")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite sample value in sine_coefficients input")
    ns = np.arange(1, n_max + 1)
    sines = np.sin(np.outer(ns, nodes))
    return (2.0 / math.pi) * sines @ (weights * vals)


def _converged_coefficients(sample, n_max: int, quadrature_points: int | None,
                            tol: float) -> np.ndarray:
    """Coefficients of ``sample``, panels doubled until two passes agree."""
    panels = quadrature_points or max(8, n_max)
    prev = _coefficients_once(sample, n_max, panels)
    for _ in range(8):
        panels *= 2
        cur = _coefficients_once(sample, n_max, panels)
        gap = float(np.max(np.abs(cur - prev)))
        if gap < tol:
            return cur
        prev = cur
    raise ValueError(
        f"sine coefficients did not converge: successive passes agree to "
        f"{gap:.3e} at {panels} panels, tol {tol:.1e}"
    )


def sine_coefficients(func, n_max: int, quadrature_points: int | None = None,
                      tol: float = 1e-12) -> SineSeries:
    """Sine coefficients ``(2/pi) * integral_0^pi f(x) sin(n x) dx``.

    Composite Gauss-Legendre, with the panel count doubled until two
    successive passes agree to ``tol``.  ``func`` is a profile of ``x``
    alone and is called as ``func(x)``; the coefficients are catalog
    constants.  For a time-dependent ``f(x, t)`` use
    ``sine_coefficients_in_time``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    coeffs = _converged_coefficients(func, n_max, quadrature_points, tol)
    return SineSeries({n: c for n, c in zip(range(1, n_max + 1), coeffs) if abs(c) > 1e-300})


def sine_coefficients_in_time(func, n_max: int, quadrature_points: int | None = None,
                              tol: float = 1e-12) -> SineSeries:
    """Sine coefficients ``(2/pi) * integral_0^pi f(x, t) sin(n x) dx`` of ``f(x, t)``.

    ``func`` is called as ``func(x, t)``.  Mode ``n`` of the result is a
    plain callable of ``t`` (scalar or array) that runs the quadrature of
    ``sine_coefficients`` at each requested time, so the series is sampled
    data outside the exact catalog: ``SineSeries.is_catalog`` is false and
    the exact transforms raise ``CatalogError``.  One quadrature pass per
    distinct time serves every mode: the modes share the coefficient table
    of the most recently requested times.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    memo = [None]  # (key, table) of the most recent request

    def table(tv: np.ndarray) -> np.ndarray:
        key = (tv.shape, tv.tobytes())
        hit = memo[0]
        if hit is None or hit[0] != key:
            times, where = np.unique(tv, return_inverse=True)
            rows = np.array([_converged_coefficients(lambda x: func(x, ti), n_max,
                                                     quadrature_points, tol)
                             for ti in times.tolist()]).reshape(-1, n_max)
            hit = memo[0] = (key, rows[where.reshape(tv.shape)])
        return hit[1]

    def make_coeff(n):
        def coeff(t):
            out = table(np.asarray(t, dtype=float))[..., n - 1]
            return float(out) if out.ndim == 0 else out
        return coeff

    return SineSeries({n: make_coeff(n) for n in range(1, n_max + 1)})


# ---------------------------------------------------------------------------
# Duhamel convolutions against e^{-n^2 (t - s)}
# ---------------------------------------------------------------------------

def _series_regime(lam, t):
    """Where ``int_0^t s^m e^{lam s} ds`` is summed as a power series, not by parts."""
    return np.abs(lam) * np.abs(t) <= 1.0


def _moment_terms(power: int, lam, series: bool):
    """Terms ``(a, k, b, grows)`` of ``int_0^t s^power e^{lam s} ds``.

    The integral is ``sum a t^k / b``, times ``e^{lam t}`` where ``grows``.
    In the series regime these are the power series' first 40 terms (good
    to about 1e-13 of the integral's size while ``|lam| t <= 4``); otherwise
    they come from integration by parts, for real or complex ``lam != 0``,
    whose coefficients ``1/lam^(j+1)`` cancel where ``|lam| t`` is small.
    """
    out = []
    if series:
        a = lam ** 0  # lam^p / p!, complex when lam is
        for p in range(40):
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
        out += [(c * a / b, k, rate if grows else rest) for a, k, b, grows
                in _moment_terms(m, lam, _series_regime(lam, SERIES_HORIZON))]
    return SlowFunction(out)


def exp_kernel_moment(power: int, rate: complex, decay: complex, t) -> np.ndarray:
    """``integral_0^t e^{-decay (t-s)} s^power e^{rate s} ds``.

    Complex-safe and vectorized in t.  Large ``decay`` never enters a bare
    exponential (only ``e^{rate t}`` and ``e^{-decay t}`` appear), and a
    power series takes over where ``0 < |rate + decay| * t <= 1`` so the
    near-resonant regime loses no digits to cancellation.  At ``t = 0`` the
    integral is exactly ``0j`` and no terms are summed.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lam = complex(rate) + complex(decay)
    out = np.zeros(arr.shape, dtype=complex)

    # t = 0 stays +0j; it must not fall to the by-parts branch below, whose
    # terms cancel there only to rounding.
    series = _series_regime(lam, arr)
    small = series & (arr != 0.0)
    if small.any():
        ts = arr[small]
        acc = sum(a * ts ** k / b for a, k, b, _ in _moment_terms(power, lam, True))
        out[small] = np.exp(-complex(decay) * ts) * acc

    big = ~series
    if big.any():
        tb = arr[big]
        e_rate = np.exp(complex(rate) * tb)
        e_decay = np.exp(-complex(decay) * tb)
        *parts, (a0, _, b0, _) = _moment_terms(power, lam, False)
        poly = sum(a * tb ** k / b for a, k, b, _ in parts)
        out[big] = poly * e_rate + a0 / b0 * e_decay

    return out[0] if scalar else out


def duhamel_weight(n: int, g: SlowFunction, t):
    """``integral_0^t e^{-n^2 (t-s)} g(s) ds`` in closed form."""
    out = duhamel_oscillatory(n, g, 0.0, t).real
    return float(out) if out.ndim == 0 else out


def duhamel_oscillatory(n: int, g: SlowFunction, frequency: float, t) -> np.ndarray:
    """``integral_0^t e^{-n^2 (t-s)} g(s) e^{i * frequency * s} ds`` (complex).

    Real part gives the cos-modulated integral, imaginary part the
    sin-modulated one.
    """
    n2 = float(n) * float(n)
    arr = np.asarray(t, dtype=float)
    out = np.zeros(arr.shape, dtype=complex)
    for c, m, rate in g.terms:
        out = out + c * exp_kernel_moment(m, rate + 1j * frequency, n2, arr)
    return out


def duhamel_slow(n: int, g: SlowFunction) -> SlowFunction:
    """``t -> integral_0^t e^{-n^2 (t-s)} g(s) ds`` as a SlowFunction.

    A term with ``|rate + n^2| <= 1/SERIES_HORIZON``, on or near the
    resonance, becomes a Taylor polynomial times ``e^{-n^2 t}``.
    """
    return _duhamel_symbolic(g, float(n) * float(n))
