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

def _series_regime(lam, t):
    """Where ``int_0^t s^m e^{lam s} ds`` is summed as a power series, not by parts."""
    return abs(lam) * np.abs(t) <= 1.0


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
        series = _series_regime(lam, SERIES_HORIZON)
        out += [(c * a / b, k, rate if grows else rest) for a, k, b, grows
                in _moment_terms(m, lam, series, SYMBOLIC_TERMS)]
    return SlowFunction(out)


def _decay_exponential(decay, t) -> np.ndarray:
    """``e^{-decay t}`` by the rule of ``_rate_exponential``: real for a real ``decay``."""
    return _rate_exponential(-complex(decay), t)


def _phase_exponential(frequency: float, t) -> np.ndarray:
    """``e^{i frequency t}``, the fast phase every moment of one harmonic shares."""
    return np.exp(complex(0.0, frequency) * np.asarray(t, dtype=float))


def _rate_exponential(rate, t, phase=None) -> np.ndarray:
    """``e^{rate t}`` as the moments use it: numpy's real ``np.exp(rate.real * t)``.

    Where ``rate.imag != 0`` that is multiplied by the phase ``e^{i rate.imag
    t}``, which is ``phase`` if given (it must be ``_phase_exponential(
    rate.imag, t)``); only the phase pays for a complex exp.  Past ``rate.real
    t = 709.78`` the real factor is inf, and so is the product.
    """
    rate = complex(rate)
    arr = np.asarray(t, dtype=float)
    out = np.exp(rate.real * arr)
    if not rate.imag:
        return out
    return out * (_phase_exponential(rate.imag, arr) if phase is None else phase)


def _series_sum(power: int, lam: complex, ts: np.ndarray) -> np.ndarray:
    """``int_0^t s^power e^{lam s} ds`` at nodes ``ts`` of the series regime.

    The ``NUMERIC_TERMS`` terms are one ``(terms, nodes)`` array, added in
    term order by ``cumsum`` (``sum(axis=0)`` may add them in another
    order).  The ``t^2`` row is ``ts * ts``, which is what ``ts ** 2``
    computes; ``np.power`` with an array exponent rounds it differently.
    """
    a, k, b, _ = zip(*_moment_terms(power, lam, True, NUMERIC_TERMS))
    rows = ts ** np.array(k, dtype=float)[:, None]
    if power <= 1:
        rows[1 - power] = ts * ts
    terms = np.array(a)[:, None] * rows / np.array(b, dtype=complex)[:, None]
    return np.cumsum(terms, axis=0)[-1]


def exp_kernel_moment(power: int, rate: complex, decay: complex, t, *,
                      e_decay=None, e_rate=None) -> np.ndarray:
    """``integral_0^t e^{-decay (t-s)} s^power e^{rate s} ds``.

    Complex-safe and vectorized in t.  Large ``decay`` never enters a bare
    exponential (only ``e^{rate t}`` and ``e^{-decay t}`` appear), and a
    power series takes over where ``0 < |rate + decay| * t <= 1`` so the
    near-resonant regime loses no digits to cancellation.  At ``t = 0`` the
    integral is exactly ``0j`` and no terms are summed.  ``e_decay`` and
    ``e_rate``, if given, must be ``_decay_exponential(decay, t)`` and
    ``_rate_exponential(rate, t)``: real exps of the real parts, times a
    phase where there is an imaginary part.  Callers taking several moments
    of one decay or one rate pass them to form each once.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lam = complex(rate) + complex(decay)
    e_decay = np.atleast_1d(_decay_exponential(decay, arr) if e_decay is None else e_decay)

    # By parts on the whole axis, then the series nodes and t = 0 (exactly
    # +0j) overwrite it there; by parts is skipped when no node needs it,
    # as at resonance, where its 1/lam^(j+1) would divide by zero.
    series = _series_regime(lam, arr)
    if np.count_nonzero(series) == arr.size:
        out = np.zeros(arr.shape, dtype=complex)
    else:
        *parts, (c, _, d, _), (a0, _, b0, _) = _moment_terms(power, lam, False, NUMERIC_TERMS)
        # the t^0 term is one constant and x ** 1 is x, so np.power runs
        # for t^2 and up only; order and numpy loops are those of summing
        # a * t ** k / b over every term, so the bits are the same
        poly = sum(a * (arr if k == 1 else arr ** k) / b for a, k, b, _ in parts)
        poly = poly + c / np.complex128(d)
        # e_rate is named: numpy would multiply into a temporary exponential
        # in place, whose complex loop rounds differently on long arrays
        e_rate = _rate_exponential(rate, arr) if e_rate is None else np.atleast_1d(e_rate)
        out = poly * e_rate + a0 / b0 * e_decay
        out[series] = 0j
    small = series & (arr != 0.0)
    if np.count_nonzero(small):
        out[small] = e_decay[small] * _series_sum(power, lam, arr[small])
    return out[0] if scalar else out


def duhamel_weight(n: int, g: SlowFunction, t):
    """``integral_0^t e^{-n^2 (t-s)} g(s) ds`` in closed form."""
    out = duhamel_oscillatory(n, g, 0.0, t).real
    return float(out) if out.ndim == 0 else out


def duhamel_oscillatory(n: int, g, frequency: float, t, *, e_decay=None, phase=None):
    """``integral_0^t e^{-n^2 (t-s)} g(s) e^{i * frequency * s} ds`` (complex).

    Real part gives the cos-modulated integral, imaginary part the
    sin-modulated one.  ``g`` may also be a tuple of SlowFunctions under the
    same modulation; the result is then the tuple of their integrals, and a
    (power, rate) term they share has its moment computed once.  All
    moments of one call share one real ``e^{-n^2 t}``; ``e_decay``, if
    given, must be ``_decay_exponential(n^2, t)``.  ``phase``, if given, must
    be ``_phase_exponential(frequency, t)``; each distinct term rate ``r``
    then takes its ``e^{(r + i frequency) t}`` once, as the real ``e^{r t}``
    times that phase (``_rate_exponential``).
    """
    n2 = float(n) * float(n)
    arr = np.asarray(t, dtype=float)
    single = isinstance(g, SlowFunction)
    if e_decay is None:
        e_decay = _decay_exponential(n2, arr)
    e_rates = {}
    moments = {}
    outs = []
    for part in (g,) if single else g:
        out = np.zeros(arr.shape, dtype=complex)
        for c, m, rate in part.terms:
            if (m, rate) not in moments:
                full = rate + 1j * frequency
                if phase is not None and rate not in e_rates:
                    e_rates[rate] = _rate_exponential(full, arr, phase)
                moments[m, rate] = exp_kernel_moment(m, full, n2, arr, e_decay=e_decay,
                                                     e_rate=e_rates.get(rate))
            out = out + c * moments[m, rate]
        outs.append(out)
    return outs[0] if single else tuple(outs)


def duhamel_slow(n: int, g: SlowFunction) -> SlowFunction:
    """``t -> integral_0^t e^{-n^2 (t-s)} g(s) ds`` as a SlowFunction.

    A term with ``|rate + n^2| <= 1/SERIES_HORIZON``, on or near the
    resonance, becomes a Taylor polynomial times ``e^{-n^2 t}``.
    """
    return _duhamel_symbolic(g, float(n) * float(n))
