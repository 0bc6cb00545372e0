"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from osckit.asymptotics import corrector, initial_layer, leading_term, residual_norm
from osckit.catalog import SineSeries, SlowFunction, SourceFactor
from osckit.forward import HeatProblem
from osckit.inverse import (
    SnapshotObservation,
    mode_weight_spectrum,
    recover_both_factors,
    recover_space_factor,
)
from osckit.volterra import Kernel, VolterraProblem, convergence_order

from test_inverse import (
    ENVELOPE,
    LINEAR_MEAN,
    SINE_OSC,
    ZERO_WEIGHT_MEAN,
    golden_observation,
    profiles_match,
    trace_round_trip,
)

from _oracles import fast_mean, time_derivative_grid, xx_derivative_grid

OMEGA_LADDER = (64.0, 128.0, 256.0, 512.0)


@contextmanager
def criterion(number: int, label: str):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        print(f"ACCEPTANCE {number} {outcome}: {label}")


@pytest.fixture(scope="module")
def residual_ladder():
    """Order-1 and order-2 residuals over the omega ladder, timed once."""
    started = time.perf_counter()
    rows = []
    for omega in OMEGA_LADDER:
        problem = HeatProblem(ENVELOPE, SourceFactor(LINEAR_MEAN, SINE_OSC),
                              omega, 1.0)
        r1, r2 = residual_norm(problem, x_count=33)
        rows.append((omega, r1, r2))
    return rows, time.perf_counter() - started


def test_criterion_1_golden_reconstruction():
    with criterion(1, "golden two-mode reconstruction at stated tolerances"):
        started = time.perf_counter()
        rec = recover_both_factors(golden_observation(), intervals=2048)
        elapsed = time.perf_counter() - started

        assert abs(rec.snapshot_coeffs[0] - math.exp(-1.0)) < 1e-10
        assert abs(rec.snapshot_coeffs[1] - (3.0 + math.exp(-4.0)) / 16.0) < 1e-10
        assert abs(rec.envelope.coefficient(1)(0.0) - 1.0) < 1e-10
        assert abs(rec.envelope.coefficient(2)(0.0) - 1.0) < 1e-10

        t = rec.mean_grid.axes[0]
        assert np.max(np.abs(rec.mean_grid.values - t)) < 1e-6

        assert len(rec.oscillation.harmonics) == 1
        k, cos_amp, sin_amp = rec.oscillation.harmonics[0]
        assert k == 1 and cos_amp.is_zero
        assert sin_amp.terms[0][1:] == (0, 0.0)
        assert abs(sin_amp.terms[0][0] - 1.0) < 1e-12

        assert rec.consistency.residual_sup < 1e-8
        assert rec.solvable
        assert elapsed < 5.0


def test_criterion_2_volterra_convergence_order():
    with criterion(2, "trace equation second-order convergence on grid halving"):
        problem = VolterraProblem(
            SlowFunction.constant(1.0),
            Kernel(((1, SlowFunction.constant(-1.0)),)),
            SlowFunction([(1.0, 0, 0.0), (-1.0, 0, -1.0)]),
            horizon=2.0,
        )
        report = convergence_order(problem, (256, 512, 1024, 2048), lambda t: t)
        assert report.monotone and not report.degenerate
        assert 1.8 <= report.order <= 2.2


def test_criterion_3_first_order_residual_decreases(residual_ladder):
    with criterion(3, "order-1 residual strictly decreasing over the omega ladder"):
        rows, elapsed = residual_ladder
        r1 = [row[1] for row in rows]
        assert all(a > b for a, b in zip(r1, r1[1:]))
        assert elapsed < 30.0


def test_criterion_4_remainder_beats_inverse_omega(residual_ladder):
    with criterion(4, "omega-weighted order-2 residual strictly decreasing"):
        rows, _ = residual_ladder
        weighted = [row[0] * row[2] for row in rows]
        assert all(a > b for a, b in zip(weighted, weighted[1:]))
        for _, r1, r2 in rows:
            assert r2 < r1


def test_criterion_5_time_factor_round_trips():
    with criterion(5, "20 randomized trace round trips recover the time factor"):
        for seed in range(20):
            rng = np.random.default_rng(42_000 + seed)
            mean_err, got_osc, want_osc = trace_round_trip(rng, intervals=2048)
            assert mean_err < 5e-6
            assert profiles_match(got_osc, want_osc, tol=1e-10)


def test_criterion_6_snapshot_round_trip_and_dichotomy():
    with criterion(6, "snapshot recovery and zero-weight solvability dichotomy"):
        psi = SineSeries({1: math.exp(-1.0),
                          2: (3.0 + math.exp(-4.0)) / 16.0})
        rec = recover_space_factor(SnapshotObservation(1.0, psi), LINEAR_MEAN,
                                   n_max=8)
        assert rec.report.status == "unique"
        assert abs(rec.envelope.coefficient(1)(0.0) - 1.0) < 1e-9
        assert abs(rec.envelope.coefficient(2)(0.0) - 1.0) < 1e-9

        # constructed first-weight zero: unsolvable when psi_1 != 0
        blocked = recover_space_factor(
            SnapshotObservation(1.0, SineSeries({1: 0.2, 2: 0.1})),
            ZERO_WEIGHT_MEAN, n_max=4)
        assert blocked.report.status == "unsolvable"
        assert blocked.report.offending_modes == (1,)

        # and non-unique with the zero representative when psi_1 = 0
        free = recover_space_factor(
            SnapshotObservation(1.0, SineSeries({2: 0.1})),
            ZERO_WEIGHT_MEAN, n_max=4)
        assert free.report.status == "non_unique"
        assert free.envelope.coefficient(1)(0.0) == 0.0


def test_criterion_7_weight_floor_for_one_signed_means():
    with criterion(7, "scaled mode weights stay positive for one-signed means"):
        rng = np.random.default_rng(2718)
        for _ in range(10):
            mean = SlowFunction([
                (rng.uniform(0.2, 1.5), 0, 0.0),
                (rng.uniform(0.0, 1.0), 1, 0.0),
                (rng.uniform(0.0, 0.8), 2, rng.uniform(-1.0, 0.5)),
            ])
            spec = mode_weight_spectrum(mean, rng.uniform(0.5, 1.5), 32)
            assert min(n * n * spec.weight(n) for n in range(1, 33)) > 0.0


def test_criterion_8_structural_invariants():
    with criterion(8, "zero mean, matching, boundary, and field-equation checks"):
        v1 = corrector(ENVELOPE, SINE_OSC)
        u1 = initial_layer(ENVELOPE, SINE_OSC)
        u0 = leading_term(ENVELOPE, LINEAR_MEAN)

        # zero fast mean of the corrector
        for t in (0.0, 0.5, 1.0):
            assert abs(fast_mean(v1.profile, t)) < 1e-12

        # matching: u1(x, 0) + v1(x, 0, 0) = 0 pointwise
        x = np.linspace(0.0, math.pi, 65)
        defect = u1.evaluate_grid(x, [0.0])[:, 0] \
            + ENVELOPE.evaluate_grid(x, [0.0])[:, 0] * v1.profile(0.0, 0.0)
        assert np.max(np.abs(defect)) < 1e-12

        # boundary vanishing of every component
        t = np.linspace(0.0, 1.0, 17)
        for x_wall in (0.0, math.pi):
            assert np.max(np.abs(u0.evaluate_grid([x_wall], t))) < 1e-12
            assert np.max(np.abs(u1.evaluate_grid([x_wall], t))) < 1e-12
            assert np.max(np.abs(v1.evaluate_grid([x_wall], t, 64.0))) < 1e-12

        # leading term satisfies the field equation at random interior points
        rng = np.random.default_rng(161803)
        xi = rng.uniform(0.2, math.pi - 0.2, 16)
        ti = rng.uniform(0.05, 1.95, 16)
        residual = time_derivative_grid(u0, xi, ti) \
            - xx_derivative_grid(u0, xi, ti) \
            - ENVELOPE.evaluate_grid(xi, ti) * LINEAR_MEAN(ti)[None, :]
        assert np.max(np.abs(residual)) < 1e-8
