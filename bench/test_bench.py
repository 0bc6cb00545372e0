"""Tests of the benchmark itself: inputs, span arithmetic, tiny smoke runs.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_time  # noqa: E402

TINY = {
    "ladder": lambda seed: workloads.Ladder(seed, omegas=(64.0, 128.0, 256.0),
                                            modes=2, x_count=17),
    "spectral": lambda seed: workloads.Spectral(seed, modes=4, n_max=8,
                                                x_count=17, t_count=33),
    "reconstruct": lambda seed: workloads.Reconstruct(seed, grid=2**12),
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_same_scenarios(name):
    cls = workloads.WORKLOADS[name]
    first = [json.dumps(cls(5).documents(i)) for i in range(3)]
    assert first == [json.dumps(cls(5).documents(i)) for i in range(3)]
    assert first != [json.dumps(cls(6).documents(i)) for i in range(3)]
    assert len(set(first)) == 3


def test_spectral_deep_sample_covers_every_omega_decade():
    w = workloads.Spectral(2)
    omegas = [w.documents(i)[1]["doc"]["params"]["omega"] for i in range(23)]
    assert [math.floor(math.log10(o)) for o in omegas[:5]] == [3, 4, 5, 6, 7]
    records = [SimpleNamespace(verdict=workloads.Verdict(0.0, [], {"omega": o}))
               for o in omegas]
    picked = [r.verdict.samples["omega"] for r in w.deep_sample(records)]
    assert sorted({math.floor(math.log10(o)) for o in picked}) == [3, 4, 5, 6, 7]
    assert max(omegas) in picked and len(picked) <= 6


def test_self_time_subtracts_union_of_children():
    parent = Span(0, 0, None, "p", 0.0, 10.0)
    kids = [Span(0, 1, 0, "a", 1.0, 3.0), Span(0, 2, 0, "b", 2.0, 5.0),
            Span(0, 3, 0, "c", 8.0, 12.0)]
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_layer_metrics_on_hand_built_tree():
    tree = [
        Span(7, 0, None, "scenarios.run", 0.0, 10.0),
        Span(7, 1, 0, "forward.solve_heat", 1.0, 6.0, {"nodes": 40, "omega": 1e3}),
        Span(7, 2, 1, "catalog.exp_kernel_moment", 2.0, 3.0, {"points": 5}),
        Span(7, 3, 1, "catalog.exp_kernel_moment", 4.0, 5.0, {"points": 5}),
        Span(7, 4, 0, "volterra.resolvent", 6.0, 9.0),
        Span(7, 5, 4, "volterra.resolvent", 7.0, 8.0),
        Span(None, 6, None, "scenarios.run", 20.0, 30.0),  # outside any traced op
    ]
    m = layer_metrics(tree, {7: 1.0})
    assert m["scenarios.run.s"] == pytest.approx(10.0)
    assert m["forward.solve_heat.s"] == pytest.approx(5.0)
    assert m["forward.solve_heat.self_s"] == pytest.approx(3.0)
    assert m["forward.solve_heat.nodes"] == 40
    assert m["catalog.exp_kernel_moment.calls"] == 2
    assert m["catalog.exp_kernel_moment.points"] == 10
    # a layer that re-enters itself is timed once, its self time split
    assert m["volterra.resolvent.s"] == pytest.approx(3.0)
    assert set(m) == set(spans.LAYER_METRICS) - {"check.err_over_tol_max",
                                                 "trace.overhead_frac"}


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == pytest.approx(75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(name):
    workload = TINY[name](3)
    tracer = Tracer()
    tracer.install()
    try:
        records = run.timed_phase(workload, 0.01, 0, {}, run.SpeedProbe(workload.probe), tracer)
    finally:
        tracer.uninstall()
    run.after_checks(workload, records)
    assert records and not any(r.failed for r in records)
    assert tracer.absent == []
    m = layer_metrics(tracer.spans, {r.index: r.scale for r in records})
    assert m["scenarios.run.s"] > 0 and m["scenarios.emit.bytes"] > 0


def test_tracer_reports_missing_names_as_absent():
    tracer = Tracer()
    tracer.install([("x.gone", "osckit.catalog", "no_such_function", None),
                    ("x.gone", "osckit.no_such_module", "f", None)])
    tracer.uninstall()
    assert tracer.absent_layers([("x.gone", "osckit.catalog", "no_such_function",
                                  None)]) == ["x.gone"]
    assert len(tracer.absent) == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == spans.LAYER_METRICS


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
