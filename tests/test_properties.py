"""Property tests for the closed-form catalog, the scenario format and the
Volterra march."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osckit import catalog
from osckit.asymptotics import _column_bounds, residual_norm
from osckit.catalog import (
    SERIES_HORIZON,
    FastProfile,
    SineSeries,
    SlowFunction,
    SourceFactor,
    _duhamel_table,
    _Grid,
    _moment_block,
    _rate_exponentials,
    _Work,
    duhamel_oscillatory,
    duhamel_slow,
    exp_kernel_moment,
)
from osckit.forward import HeatProblem, mode_amplitudes
from osckit.scenarios import (
    FLOAT_TEXT_CROSSOVER,
    Scenario,
    _json_text,
    parse_scenario_dict,
    serialize_scenario,
)
from osckit.volterra import Kernel, VolterraProblem, solve

from _oracles import (
    exp_kernel_moment_40,
    march_separable,
    residual_norm_one_shot,
    times_exp,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
T = np.linspace(0.0, 2.0, 65)
EPS = float(np.finfo(float).eps)

# rates near 0 and near -n^2 exercise the series branch of the symbolic routine
small = st.builds(lambda mag, sign: sign * 10.0**mag,
                  st.floats(-12.0, 0.0), st.sampled_from([1.0, -1.0]))
rates = st.one_of(st.floats(-3.0, 3.0), small, st.just(0.0))
terms = st.tuples(st.floats(-2.0, 2.0), st.integers(0, 3), rates)
slow_functions = st.lists(terms, min_size=1, max_size=4).map(SlowFunction)
modes = st.sampled_from([1, 2, 3, 5])


def sup(values) -> float:
    return float(np.max(np.abs(values)))


@PROPERTY
@given(slow_functions)
def test_derivative_of_integral_is_identity(g):
    back = g.integral().derivative()
    assert sup(back(T) - g(T)) <= 1e-11 * (1.0 + sup(g(T)))


@PROPERTY
@given(modes, slow_functions, st.floats(-0.3, 0.3))
def test_duhamel_solves_mode_ode(n, g, shift):
    # move g's rates next to the resonance -n^2 as well as far from it
    g = times_exp(g, shift - n * n) + g
    d = duhamel_slow(n, g)
    residual = d.derivative()(T) + n * n * d(T) - g(T)
    scale = 1.0 + sup(g(T)) + n * n * sup(d(T))
    assert abs(d(0.0)) <= 1e-12 * scale
    assert sup(residual) <= 1e-11 * scale


@PROPERTY
@given(st.sampled_from([0, 1, 2, 5]), st.integers(0, 3), st.sampled_from([1.0, -1.0]),
       st.floats(1e-15, 1e-13))
def test_symbolic_branches_meet_at_the_switch(n, m, sign, gap):
    switch = 1.0 / SERIES_HORIZON

    def convolve(lam):
        g = SlowFunction.monomial(1.0, m, lam - n * n)
        return g.integral() if n == 0 else duhamel_slow(n, g)

    inner = convolve(sign * switch * (1.0 - gap))(T)
    outer = convolve(sign * switch * (1.0 + gap))(T)
    assert sup(inner - outer) <= 1e-12 * (1.0 + sup(inner))


@PROPERTY
@given(st.integers(0, 3), st.floats(0.5, 50.0), st.floats(0.0, 2.0 * math.pi),
       st.sampled_from([0.0, 1.0, 4.0, 25.0]))
def test_moment_branches_meet_at_the_switch(power, size, angle, decay):
    lam = size * complex(math.cos(angle), math.sin(angle))
    edge = 1.0 / abs(lam)
    t = np.array([edge * (1.0 - 1e-14), edge * (1.0 + 1e-14)])
    assert np.abs(lam) * t[0] <= 1.0 < np.abs(lam) * t[1]
    series, closed = exp_kernel_moment(power, lam - decay, decay, t)
    assert abs(series - closed) <= 1e-12 * abs(series)


# lam = rate + decay: real or complex with |lam| in [1e-6, 30], exactly 0, or
# an oscillatory rate whose imaginary part is 1e3..1e8
signs = st.sampled_from([1.0, -1.0])
lam_sizes = st.floats(-6.0, math.log10(30.0)).map(lambda e: 10.0 ** e)
lams = st.one_of(
    st.builds(lambda size, sign: complex(sign * size), lam_sizes, signs),
    st.builds(lambda size, angle: size * complex(math.cos(angle), math.sin(angle)),
              lam_sizes, st.floats(0.0, 2.0 * math.pi)),
    st.builds(lambda re, e, sign: complex(re, sign * 10.0 ** e),
              st.floats(-30.0, 30.0), st.floats(3.0, 8.0), signs),
    st.just(0j))


@st.composite
def moment_nodes(draw, lam):
    """Scalar t, or unsorted nodes with a duplicate and an interior 0, on a
    scale of 1/|lam| (both regimes) or of 1."""
    scale = draw(st.sampled_from([1.0 / abs(lam) if lam else 1.0, 1.0]))
    values = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40))
    if draw(st.booleans()):
        return scale * values[0]
    where = draw(st.integers(0, len(values)))
    values = values[:where] + [0.0] + values[where:] + values[:draw(st.integers(1, 3))]
    return scale * np.array(values)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, 3), lams, st.sampled_from([0.0, 1.0, 4.0, 25.0, 2304.0]))
def test_moment_matches_40_term_oracle_bit_for_bit(data, power, lam, decay):
    t = data.draw(moment_nodes(lam))
    rate = lam - decay
    want = exp_kernel_moment_40(power, rate, decay, t)
    got = exp_kernel_moment(power, rate, decay, t)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()  # signed zeros too


@st.composite
def moment_rows(draw):
    """``(powers, rates, decays, t)``: rows of one imaginary part, on one grid.

    Rates are real or complex, decays 0 or n^2; a row may sit exactly on the
    resonance ``lam = 0`` or have every node in the series regime, and two
    rows may share a rate and a decay.  Nodes are unsorted with an interior
    0, on a scale of 1 or of ``1 / |lam|``, or a 25466-node grid; the rates'
    real parts reach past the overflow of ``e^{g t}``."""
    frequency = draw(st.sampled_from([0.0, 1.0, -3.0, 1e3, 1e7]))
    count = draw(st.integers(1, 6))
    powers, rates, decays = [], [], []
    for _ in range(count):
        decay = draw(st.sampled_from([0.0, 1.0, 4.0, 25.0, 2304.0]))
        real = draw(st.one_of(st.floats(-5.0, 5.0), st.just(-decay),
                              st.builds(lambda e: 10.0 ** e - decay, st.floats(-12.0, 0.0)),
                              st.floats(350.0, 400.0)))
        powers.append(draw(st.integers(0, 3)))
        rates.append(complex(real, frequency))
        decays.append(decay)
    if draw(st.booleans()):  # a second moment of one rate and decay
        powers.append((powers[0] + 1) % 4)
        rates.append(rates[0])
        decays.append(decays[0])
    if draw(st.integers(0, 9)) == 0:
        return powers, rates, decays, np.linspace(0.0, 1.0, 25466)
    size = max(abs(rates[0] + decays[0]), 1e-12)
    scale = draw(st.sampled_from([1.0 / size, 1.0]))
    values = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=40))
    where = draw(st.integers(0, len(values)))
    return powers, rates, decays, scale * np.array(values[:where] + [0.0] + values[where:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(moment_rows())
def test_moment_block_rows_match_one_row_calls(rows):
    # a row of the batch has the bytes of its own exp_kernel_moment call,
    # whichever rows share its block; overflowing rows stay non-finite
    powers, rates, decays, t = rows
    with np.errstate(over="ignore", invalid="ignore"):
        got = _moment_block(_Grid(t, decays, _Work()), powers, rates, list(range(len(decays))))
        for row, power, rate, decay in zip(got, powers, rates, decays):
            want = exp_kernel_moment(power, rate, decay, t)
            assert row.tobytes() == want.tobytes()
            if rate.real * t.max() > 709.79:
                assert not np.all(np.isfinite(row))


slow_parts = st.lists(st.tuples(st.floats(-2.0, 2.0), st.integers(0, 3),
                                st.sampled_from([0.0, -1.0, 0.5, 2.0])),
                      min_size=1, max_size=5).map(SlowFunction)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(slow_parts, min_size=1, max_size=3), st.sampled_from([0.0, 7.0, 1e4]),
       st.integers(1, 6), st.integers(1, 4))
def test_duhamel_bytes_do_not_depend_on_block_size(parts, frequency, n, rows_per_block):
    # blocks of a few rows split the terms of one decay across blocks, as a
    # row longer than the block budget does; the sums keep their bytes
    t = np.linspace(0.0, 1.5, 97)
    decays = [float(n * n)]

    def table():
        return _duhamel_table([[(0, part, frequency, False)] for part in parts], t, decays)

    want = table()
    budget = catalog.MOMENT_CHUNK
    try:
        catalog.MOMENT_CHUNK = rows_per_block * t.size
        got = table()
    finally:
        catalog.MOMENT_CHUNK = budget
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2), st.one_of(st.just(SlowFunction()), slow_parts),
                          st.booleans()), min_size=1, max_size=6),
       st.sampled_from([0.0, 7.0, 1e4]), st.sampled_from([97, 3001, 9001]), st.booleans())
def test_table_rows_match_one_row_calls(parts, frequency, nodes, real):
    # a part with no terms is a row of zeros; on 3001 or 9001 nodes a block
    # holds MOMENT_CHUNK // nodes = 5 or 1 rows, so the rows of a decay span
    # blocks and each part's row goes on from block to block
    modes = [1, 2, 3]
    decays = [float(n * n) for n in modes]
    t = np.linspace(0.0, 1.5, nodes)
    parts = [(m, g, imag and real) for m, g, imag in parts]
    table = _duhamel_table([[(m, g, frequency, imag)] for m, g, imag in parts], t, decays, real)
    assert table.shape == (len(parts), t.size)
    for row, (m, g, imag) in zip(table, parts):
        want = duhamel_oscillatory(modes[m], g, frequency, t)
        if real:
            want = want.imag if imag else want.real
        assert row.tobytes() == want.tobytes()


tagged_parts = st.tuples(st.integers(0, 2), st.one_of(st.just(SlowFunction()), slow_parts),
                         st.sampled_from([0.0, -7.0, 1e4]), st.booleans())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(tagged_parts, min_size=1, max_size=4), min_size=1, max_size=3),
       st.sampled_from([97, 3001, 9001]), st.booleans())
def test_row_of_parts_is_the_sum_of_one_part_rows(sums, nodes, real):
    # a row starts at +0 and adds its parts by increasing frequency, then in
    # list order; parts of each frequency share their table, parts of
    # different frequencies do not
    decays = [1.0, 4.0, 9.0]
    t = np.linspace(0.0, 1.5, nodes)
    table = _duhamel_table(sums, t, decays, real)
    assert table.shape == (len(sums), t.size)
    for row, parts in zip(table, sums):
        want = np.zeros(t.size, dtype=float if real else complex)
        for part in sorted(parts, key=lambda part: part[2]):
            want = want + _duhamel_table([[part]], t, decays, real)[0]
        assert row.tobytes() == want.tobytes()


def test_mode_amplitudes_bytes_do_not_depend_on_block_size():
    envelope = SineSeries({n: SlowFunction([(0.9 / n, 0, 1.2 - 0.1 * n), (-0.6 / n, 1, -0.05 * n)])
                           for n in range(1, 9)})
    oscillation = FastProfile([(k, SlowFunction([(0.4, 0, 0.5 * k), (-0.3, 1, -1.1)]),
                                SlowFunction.monomial(0.7, 0, -0.2 * k)) for k in (1, 2)])
    mean = SlowFunction([(1.0, 0, 0.0), (0.5, 1, -0.3)])
    problem = HeatProblem(envelope, SourceFactor(mean, oscillation), 1e5, 1.0)
    t = np.linspace(0.0, 1.0, 129)
    want = mode_amplitudes(problem, problem.active_modes, t)
    budget = catalog.MOMENT_CHUNK
    for rows_per_block in (1, 5, 7):
        try:
            catalog.MOMENT_CHUNK = rows_per_block * t.size
            got = mode_amplitudes(problem, problem.active_modes, t)
        finally:
            catalog.MOMENT_CHUNK = budget
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


# |w| in [1, 1e8] of either sign; |g| <= 5, exactly 0 included
frequencies = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(0.0, 8.0), signs)
slow_rates = st.one_of(st.floats(-5.0, 5.0), st.just(0.0))


@st.composite
def split_grids(draw):
    """``(g, w, t)``: unsorted t > 0 with ``|g| max(t)`` up to 760, past the
    overflow of ``e^{g t}`` at 709.78; 40000 nodes pass numpy's 256 KiB
    temporary-elision size."""
    g, w = draw(slow_rates), draw(frequencies)
    horizon = draw(st.floats(1e-3, 760.0)) / max(abs(g), 0.1)
    size, seed = draw(st.integers(1, 40000)), draw(st.integers(0, 2**32 - 1))
    t = np.random.default_rng(seed).uniform(0.0, horizon, size)
    t[t == 0.0] = horizon
    return g, w, t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(split_grids())
# numpy elides the temporary of an unnamed np.exp(g * t) * np.exp(1j * w * t)
# from 16384 nodes on and multiplies in place, which gives underflowed
# elements other signed zeros; the reference multiplies named arrays
@example((-2304.0, 9.79e6, np.linspace(0.30, 0.34, 20000)))
def test_rate_exponential_is_real_exponential_times_phase(case):
    g, w, t = case
    with np.errstate(over="ignore"):
        real, phase = np.exp(g * t), np.exp(1j * w * t)
        want = np.multiply(real, phase)
        # a repeated rate takes one real exp, and each of its rows is the same
        rates = [complex(g, w), complex(0.0, w), complex(g, w)]
        rows = _rate_exponentials(_Grid(t, [], _Work()), rates)
        for got in rows[::2]:
            assert got.tobytes() == want.tobytes()  # signed zeros too


@settings(max_examples=150, deadline=None, derandomize=True)
@given(split_grids())
def test_rate_exponential_within_two_ulp_of_complex_exponential(case):
    g, w, t = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = _rate_exponentials(_Grid(t, [], _Work()), [complex(g, w)])[0]
        want = np.exp(complex(g, w) * t)
        ulp = np.spacing(np.exp(g * t))
    finite = np.isfinite(got) & np.isfinite(want)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got[finite]) - part(want[finite])) <= 2.0 * ulp[finite])


@PROPERTY
@given(st.integers(0, 3), st.floats(-5.0, 5.0),
       st.one_of(st.just(0.0), st.builds(lambda e, sign: sign * 10.0 ** e,
                                         st.floats(0.0, 6.0), signs)),
       st.integers(1, 63), st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4))
def test_moment_matches_mpmath(power, rate, frequency, n, nodes):
    # Kummer's form of the integral, as in bench/workloads._mp_moment:
    # e^{-d t} t^(p+1)/(p+1) 1F1(p+1; p+2; (rate + d) t).  Rounding w t to a
    # double moves the phase by up to eps |w| t / 2, so that is allowed for.
    decay, t = float(n * n), np.array(nodes)
    got = exp_kernel_moment(power, complex(rate, frequency), decay, t)
    with mp.workdps(40):
        for tj, value in zip(nodes, got):
            s = mp.mpf(tj)
            want = (mp.exp(-decay * s) * s ** (power + 1) / (power + 1)
                    * mp.hyp1f1(power + 1, power + 2, (mp.mpc(rate, frequency) + decay) * s))
            error = float(abs(mp.mpc(value) - want) / abs(want))
            assert error <= 1e-14 + 2.0 * EPS * abs(frequency) * tj


coefficients = st.floats(-5.0, 5.0)
catalog_slow = st.lists(st.tuples(coefficients, st.integers(0, 3),
                                  st.floats(-5.0, 5.0)), max_size=3).map(SlowFunction)
profiles = st.lists(st.tuples(st.integers(1, 4), catalog_slow, catalog_slow),
                    max_size=3).map(FastProfile)
series = st.dictionaries(st.integers(1, 8), catalog_slow, max_size=4).map(SineSeries)
forward_params = st.fixed_dictionaries({
    "omega": st.floats(1.0, 1e6),
    "T": st.floats(0.1, 5.0),
    "x_count": st.integers(2, 129),
    "t_count": st.integers(2, 1025),
    "n_max": st.integers(1, 64),
    "x0": st.floats(0.01, 3.1),
})


@PROPERTY
@given(forward_params, series, catalog_slow, profiles)
def test_serialize_then_parse_round_trip(params, envelope, mean, oscillation):
    original = Scenario("forward", params, {"f": envelope, "r0": mean, "r1": oscillation})
    text = json.dumps(serialize_scenario(original))
    assert parse_scenario_dict(json.loads(text)) == original


# JSON values of the types ``scenarios._jsonable`` returns.  Floats include the
# non-finite values, signed zero, the smallest subnormal and a repr in exponent
# form; strings include control and non-ASCII characters.
edge_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
json_floats = st.one_of(st.floats(), edge_floats)
json_text = st.text(st.sampled_from("az\x00\x1f\"\\\n\t\x7f\xe9\u03c9\u2028\U0001f600"),
                    max_size=6)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), json_floats, json_text)
# Grids of 40-200 floats take the join of float.__repr__; repeats of them
# reach 1-3 times FLOAT_TEXT_CROSSOVER and take osckit._floattext.
finite_grids = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=40, max_size=200)
long_grids = st.builds(lambda items, size: (items * (size // len(items) + 1))[:size],
                       finite_grids, st.integers(FLOAT_TEXT_CROSSOVER, 3 * FLOAT_TEXT_CROSSOVER))


def with_non_finite(grid_lists, top: int):
    return st.builds(lambda items, where, bad: items[:where] + [bad] + items[where:],
                     grid_lists, st.integers(0, top),
                     st.sampled_from([math.nan, math.inf, -math.inf]))


grids = st.one_of(finite_grids, long_grids, with_non_finite(finite_grids, 200),
                  with_non_finite(long_grids, 3 * FLOAT_TEXT_CROSSOVER))
json_values = st.recursive(
    st.one_of(scalars, grids, st.lists(scalars, max_size=6), st.just([]), st.just({})),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(json_text, children, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(json_values)
def test_report_writer_matches_indented_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


# |c_n(t)| <= 0.28 keeps every step's denominator above 0.15 on [0, 1]
kernel_modes = st.lists(st.tuples(st.integers(0, 40), st.floats(-0.2, 0.2),
                                  st.floats(-0.2, 0.2)),
                        min_size=1, max_size=6, unique_by=lambda mode: mode[0])


@PROPERTY
@given(st.integers(1, 3000), kernel_modes, st.booleans())
def test_chunked_march_matches_per_step_march(intervals, modes, varying):
    def coefficient(a, b):
        return SlowFunction([(a, 0, 0.0), (b, 1, -1.0)] if varying else [(a, 0, 0.0)])

    kernel = Kernel(tuple((n, coefficient(a, b)) for n, a, b in modes))
    problem = VolterraProblem(SlowFunction.constant(1.0), kernel,
                              SlowFunction([(1.0, 0, 0.0), (0.5, 1, -0.7)]), 1.0, intervals)
    want = march_separable(problem)
    assert sup(solve(problem).values - want) <= 1e-12 * sup(want)


@PROPERTY
@given(st.integers(1, 6).flatmap(
    lambda count: st.lists(st.lists(st.floats(-1e3, 1e3) | st.floats(-1e-300, 1e-300),
                                    min_size=count, max_size=count), min_size=1, max_size=8)))
@example([[1.0]])  # sin(pi / 2) is 1: the bound is tight
def test_column_bounds_hold_every_synthesized_value(columns):
    grid = np.array(columns).T
    x = np.append(np.linspace(0.0, math.pi, 65), math.pi / 2)
    values = np.abs(catalog.sine_synthesis(x, range(1, len(grid) + 1), grid))
    assert (values <= _column_bounds(grid)).all()


# ladder-shaped problems: growing envelopes (rates up to 2) put the sup in a
# late block, where the slice bounds of the earlier blocks are already beaten
ladder_terms = st.builds(lambda c, rate: SlowFunction([(c, 0, rate)]),
                         st.floats(-1.0, 1.0), st.floats(-0.5, 2.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(ladder_terms, min_size=1, max_size=4), ladder_terms,
       st.lists(st.tuples(ladder_terms, ladder_terms), min_size=1, max_size=2),
       st.floats(500.0, 4500.0), st.sampled_from([17, 65]))
def test_skipped_slices_leave_residual_norm_unchanged(envelope, mean, harmonics,
                                                      omega, x_count):
    problem = HeatProblem(
        SineSeries({n: g for n, g in enumerate(envelope, start=1)}),
        SourceFactor(SlowFunction.constant(1.0) + mean,
                     FastProfile([(k, a, b) for k, (a, b) in enumerate(harmonics, start=1)])),
        omega, 1.0)
    assert residual_norm(problem, x_count) == residual_norm_one_shot(problem, x_count)


FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n != n
"""


def test_failing_property_fails_without_aborting_the_session(tmp_path):
    # on failure hypothesis imports modules that warn on import; under the
    # project's warning filters that must not turn into an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "-c", str(config), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})  # hypothesis's plugin only
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
