"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the closed-form paths under test:
Duhamel integrals are done by direct composite Gauss-Legendre quadrature
resolving the fast phase, derivatives by central differences, fast means by
trapezoid over one period.  Sine sums are accumulated one ``np.outer`` term
per mode, and the two-term remainder is the full forward field minus the
expansion's grid values, independent of the library's single synthesis
product and its mode-by-mode remainder.

The separable Volterra march is kept in its per-step form, one node at a
time, as the reference for the chunked solver, and the two-term remainder
norm in its one-shot form, the whole resolving grid in one synthesis, as the
reference for the blocked ``residual_norm``; the exponential moment keeps its
40-term series and its gather/scatter branches, one bool mask per regime, as
the reference for ``catalog.exp_kernel_moment``; it forms its own exponentials,
a real ``np.exp`` of the real exponent times a phase where there is an
imaginary part.

The next helpers are conveniences over library paths that only the tests
need: one mode's amplitude, a rate shift, a resolvent built from a Volterra
problem, a snapshot sampled from a callable, and the time and space
derivatives of the leading term on a grid.

Last, the report writer keeps its join of ``float.__repr__`` per list of
floats, the reference for the vectorized float text of ``osckit._floattext``.
"""

import math
from json.encoder import encode_basestring_ascii

import numpy as np
from scipy.integrate import quad

from osckit.asymptotics import TwoTermExpansion, resolving_time_count
from osckit.catalog import GridFunction, SlowFunction, sine_coefficients, sine_synthesis
from osckit.forward import mode_amplitudes, oscillatory_amplitudes, solve_heat
from osckit.inverse import SnapshotObservation
from osckit.volterra import (
    DENOMINATOR_FLOOR,
    Kernel,
    SeparableResolvent,
    SingularEquationError,
    _sample,
)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


def gauss_panels(a: float, b: float, panels: int):
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def duhamel_quadrature(forcing, n: int, t: float, omega: float = 1.0,
                       per_period: int = 32, min_panels: int = 64) -> float:
    """integral_0^t e^{-n^2 (t-s)} forcing(s) ds by oscillation-resolving GL."""
    if t == 0.0:
        return 0.0
    periods = omega * t / (2.0 * math.pi)
    panels = max(min_panels, int(math.ceil(per_period * periods)))
    nodes, weights = gauss_panels(0.0, t, panels)
    vals = np.asarray(forcing(nodes), dtype=float) * np.exp(-float(n * n) * (t - nodes))
    return float(weights @ vals)


def mode_oracle(envelope, factor, omega: float, n: int, t_nodes,
                per_period: int = 32) -> np.ndarray:
    """Heat-mode amplitudes u_n(t_j) by direct resolving quadrature."""
    fn = envelope.coefficient(n)

    def forcing(s):
        return np.asarray(fn(s), dtype=float) * factor(s, omega * s)

    return np.array([duhamel_quadrature(forcing, n, float(t), omega, per_period)
                     for t in np.atleast_1d(t_nodes)])


def field_oracle(envelope, factor, omega: float, x_nodes, t_nodes,
                 n_max: int = 32, per_period: int = 32) -> np.ndarray:
    out = np.zeros((len(x_nodes), len(t_nodes)))
    for n in envelope.modes:
        if n > n_max:
            continue
        amps = mode_oracle(envelope, factor, omega, n, t_nodes, per_period)
        out += np.outer(np.sin(n * np.asarray(x_nodes)), amps)
    return out


def adaptive_integral(func, a: float, b: float) -> float:
    val, _ = quad(func, a, b, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def fast_mean(profile, t: float, samples: int = 4096) -> float:
    """(2 pi)^-1 integral_0^{2 pi} profile(t, tau) dtau by trapezoid."""
    tau = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    vals = profile(t, tau)
    return float(np.trapezoid(vals, tau) / (2.0 * math.pi))


def central_derivative(func, point: float, h: float = 1e-5) -> float:
    return (func(point + h) - func(point - h)) / (2.0 * h)


def outer_sum(x, t, modes, amplitude) -> np.ndarray:
    """sum_n sin(n x) a_n(t), one np.outer accumulation per mode."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((x.size, t.size))
    for n in modes:
        out += np.outer(np.sin(n * x), np.broadcast_to(amplitude(n), t.shape))
    return out


def grid_remainder(problem, expansion, order: int, x_count: int = 65,
                   t_count: int | None = None) -> float:
    """Sup of |u - expansion| from the full forward field on a resolving grid."""
    if t_count is None:
        t_count = resolving_time_count(problem.omega, problem.horizon)
    u = solve_heat(problem, x_count, t_count)
    x, t = u.axes
    approx = expansion.evaluate_grid(x, t, problem.omega, order=order)
    return float(np.max(np.abs(u.values - approx)))


def residual_norm_one_shot(problem, x_count: int = 65) -> tuple[float, float]:
    """``residual_norm`` with the whole resolving grid in one synthesis."""
    expansion = TwoTermExpansion.for_problem(problem)
    omega, own = problem.omega, problem.active_modes
    t = np.linspace(0.0, problem.horizon, resolving_time_count(omega, problem.horizon))
    first = dict(zip(own, oscillatory_amplitudes(problem, own, t)))
    second = dict(first)  # rows are replaced, never updated in place
    for n in expansion.layer.modes:
        second[n] = second[n] - expansion.layer.mode_amplitude(n, t) / omega
    profile = expansion.fast.profile(t, omega * t)
    for n, coeff in expansion.fast.envelope.modes.items():  # all modes, even > n_max
        second[n] = second.get(n, 0.0) - coeff(t) * profile / omega
    x = np.linspace(0.0, math.pi, x_count)

    def sup(rows: dict) -> float:
        modes = sorted(rows)
        grid = np.reshape([rows[n] for n in modes], (-1, t.size))
        return float(np.max(np.abs(sine_synthesis(x, modes, grid))))

    return sup(first), sup(second)


def _moment_terms_40(power: int, lam, series: bool):
    """``catalog._moment_terms`` with the series cut at 40 terms."""
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


def split_exponential(z: complex, t) -> np.ndarray:
    """``e^{z t}``: real ``np.exp`` of the real part, times ``e^{i z.imag t}`` if nonzero."""
    out = np.exp(z.real * t)
    return out * np.exp(1j * z.imag * t) if z.imag else out


def exp_kernel_moment_40(power: int, rate: complex, decay: complex, t) -> np.ndarray:
    """``integral_0^t e^{-decay (t-s)} s^power e^{rate s} ds``, 40-term series."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lam = complex(rate) + complex(decay)
    out = np.zeros(arr.shape, dtype=complex)

    series = np.abs(lam) * np.abs(arr) <= 1.0
    small = series & (arr != 0.0)
    if small.any():
        ts = arr[small]
        acc = sum(a * ts ** k / b for a, k, b, _ in _moment_terms_40(power, lam, True))
        out[small] = split_exponential(-complex(decay), ts) * acc

    big = ~series
    if big.any():
        tb = arr[big]
        e_rate = split_exponential(complex(rate), tb)
        e_decay = split_exponential(-complex(decay), tb)
        *parts, (a0, _, b0, _) = _moment_terms_40(power, lam, False)
        poly = sum(a * tb ** k / b for a, k, b, _ in parts)
        out[big] = poly * e_rate + a0 / b0 * e_decay

    return out[0] if scalar else out


def compose(expansion, omega: float, x_count: int, t_count: int, horizon: float):
    """Grid values of ``u0 + (u1 + v1)/omega`` on [0, pi] x [0, horizon]."""
    x = np.linspace(0.0, math.pi, x_count)
    t = np.linspace(0.0, horizon, t_count)
    return GridFunction((x, t), expansion.evaluate_grid(x, t, omega, order=2),
                        {"omega": omega})


def discrete_residual(problem, solution) -> np.ndarray:
    """Defect of a Volterra grid solution under the same trapezoid quadrature."""
    t = problem.grid()
    h = problem.horizon / problem.intervals
    g = np.broadcast_to(problem.diagonal(t), t.shape)
    mu = np.broadcast_to(problem.rhs(t), t.shape)
    l = solution.values
    res = np.empty(t.size)
    res[0] = g[0] * l[0] - mu[0]
    for i in range(1, t.size):
        row = np.asarray(problem.kernel(t[i], t[: i + 1]), dtype=float)
        weights = np.full(i + 1, h)
        weights[0] = weights[i] = h / 2.0
        res[i] = g[i] * l[i] + weights @ (row * l[: i + 1]) - mu[i]
    return res


def march_separable(problem) -> np.ndarray:
    """Per-step product-trapezoid march of a separable-kernel Volterra problem.

    ``running_n`` holds ``sum_{j<i} e^{-n^2 h (i-j)} w_j c_n(t_j) l_j`` and is
    advanced one node at a time; raises ``SingularEquationError`` at the
    first step whose denominator vanishes.
    """
    t = problem.grid()
    h = problem.horizon / problem.intervals
    g = _sample(problem.diagonal, t, "diagonal")
    mu = _sample(problem.rhs, t, "rhs")
    l = np.empty(t.size)
    l[0] = mu[0] / g[0]
    ns = np.array([n for n, _ in problem.kernel.modes], dtype=float)
    cs = np.vstack([_sample(c, t, "kernel coefficient")
                    for _, c in problem.kernel.modes])
    decay = np.exp(-(ns * ns) * h)
    running = np.zeros(ns.size)
    diag_k = cs.sum(axis=0)  # K(t_i, t_i)
    for i in range(1, t.size):
        w_prev = 0.5 if i == 1 else 1.0
        running = decay * (running + w_prev * cs[:, i - 1] * l[i - 1])
        den = g[i] + 0.5 * h * diag_k[i]
        if abs(den) < DENOMINATOR_FLOOR:
            raise SingularEquationError(f"singular step at t = {t[i]:g}")
        l[i] = (mu[i] - h * running.sum()) / den
    return l


def solve_mode(problem, n: int, t):
    """Mode amplitude ``u_n(t) = integral_0^t e^{-n^2(t-s)} f_n(s) r(s, omega s) ds``."""
    if not 1 <= n <= problem.n_max:
        raise ValueError(f"mode {n} outside 1..{problem.n_max}")
    arr = np.asarray(t, dtype=float)
    mean, osc = mode_amplitudes(problem, [n], arr.ravel())
    out = (mean[0] + osc[0]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def times_exp(g, rate: float):
    """``g(t) e^{rate t}`` as a SlowFunction."""
    return SlowFunction(tuple((c, m, r + float(rate)) for c, m, r in g.terms))


def is_constant(kernel) -> bool:
    """True when every coefficient of a Kernel is a constant (convolution kernel)."""
    return all(
        len(c.terms) == 0 or (len(c.terms) == 1 and c.terms[0][1:] == (0, 0.0))
        for _, c in kernel.modes
    )


def resolvent_from_problem(problem):
    """SeparableResolvent of a constant-coefficient Volterra problem."""
    kernel = problem.kernel
    if not isinstance(kernel, Kernel) or not is_constant(kernel):
        raise ValueError("resolvent requires a constant separable kernel")
    if isinstance(problem.diagonal, SlowFunction):
        terms = problem.diagonal.terms
        if len(terms) != 1 or terms[0][1:] != (0, 0.0):
            raise ValueError("resolvent requires a constant diagonal")
        g0 = terms[0][0]
    else:
        g0 = float(problem.diagonal)
    if not isinstance(problem.rhs, SlowFunction):
        raise ValueError("resolvent requires a catalog rhs")
    ns = [n for n, _ in kernel.modes]
    cs = [c.terms[0][0] if c.terms else 0.0 for _, c in kernel.modes]
    return SeparableResolvent(g0, ns, cs, problem.rhs)


def snapshot_from_callable(t0: float, func, n_max: int):
    """SnapshotObservation of the profile ``func(x)``, modes 1..n_max."""
    return SnapshotObservation(t0, sine_coefficients(func, n_max))


def _leading_grid(u0, x, t, amplitude):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    rows = [amplitude(n, t) for n in u0.modes]
    return sine_synthesis(x, u0.modes, np.reshape(rows, (-1, t.size)))


def time_derivative_grid(u0, x, t):
    """du0/dt of a LeadingTerm from the termwise-differentiated closed forms."""
    return _leading_grid(u0, x, t, lambda n, t: u0.mode_amplitude_slow(n).derivative()(t))


def xx_derivative_grid(u0, x, t):
    """d^2 u0/dx^2 of a LeadingTerm on the grid."""
    return _leading_grid(u0, x, t, lambda n, t: -(n * n) * u0.mode_amplitude(n, t))


# ---------------------------------------------------------------------------
# report text
# ---------------------------------------------------------------------------

_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def report_json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` of a report payload by
    a join of ``float.__repr__`` per list of floats, an array taken as its
    ``tolist()``: the reference for ``scenarios._json_text``, which writes
    long float lists with ``osckit._floattext``."""
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + report_json_text(v, inner)
                 for k, v in sorted(obj.items()))
        return "{" + inner + sep.join(items) + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            text = sep.join(map(float.__repr__, obj))
            if "n" not in text:
                return "[" + inner + text + indent + "]"
        return "[" + inner + sep.join(report_json_text(v, inner) for v in obj) + indent + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_TOKENS.get(text, text)
    raise TypeError(f"cannot write {obj!r}")
