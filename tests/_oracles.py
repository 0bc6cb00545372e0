"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the closed-form paths under test:
Duhamel integrals are done by direct composite Gauss-Legendre quadrature
resolving the fast phase, derivatives by central differences, fast means by
trapezoid over one period.  Sine sums are accumulated one ``np.outer`` term
per mode, and the two-term remainder is the full forward field minus the
expansion's grid values, independent of the library's single synthesis
product and its mode-by-mode remainder.

The last helpers are conveniences over library paths that only the tests
need: one mode's amplitude, a rate shift, a resolvent built from a Volterra
problem and a snapshot sampled from a callable.
"""

import math

import numpy as np
from scipy.integrate import quad

from osckit.asymptotics import resolving_time_count
from osckit.catalog import GridFunction, SlowFunction, sine_coefficients
from osckit.forward import mode_amplitudes, solve_heat
from osckit.inverse import SnapshotObservation
from osckit.volterra import Kernel, SeparableResolvent

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


def solve_mode(problem, n: int, t, method: str = "auto",
               quadrature_step: float | None = None):
    """Mode amplitude ``u_n(t) = integral_0^t e^{-n^2(t-s)} f_n(s) r(s, omega s) ds``."""
    if not 1 <= n <= problem.n_max:
        raise ValueError(f"mode {n} outside 1..{problem.n_max}")
    arr = np.asarray(t, dtype=float)
    mean, osc = mode_amplitudes(problem, [n], arr.ravel(), method, quadrature_step)
    out = (mean[0] + osc[0]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def times_exp(g, rate: float):
    """``g(t) e^{rate t}`` as a SlowFunction."""
    return SlowFunction(tuple((c, m, r + float(rate)) for c, m, r in g.terms))


def resolvent_from_problem(problem):
    """SeparableResolvent of a constant-coefficient Volterra problem."""
    kernel = problem.kernel
    if not isinstance(kernel, Kernel) or not kernel.is_constant:
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
    """SnapshotObservation of ``func(x)``; warns when coefficients decay slower than n^-4."""
    series = sine_coefficients(func, n_max)
    warning = None
    scaled = np.array([abs(series.coefficient(n)(0.0)) * n**4
                       for n in range(1, n_max + 1)])
    if n_max >= 8:
        head = scaled[: n_max // 2].max()
        tail = scaled[n_max // 2:].max()
        if tail > 4.0 * (head + 1e-14):
            warning = (
                "snapshot coefficients decay slower than n^-4; "
                "profile may lack the required smoothness"
            )
    return SnapshotObservation(t0, series, warning)
