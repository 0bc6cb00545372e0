"""Scenario parsing, CLI subcommands, report emission, determinism, exports."""

import hashlib
import json
import math

import numpy as np
import pytest

import osckit
from osckit import asymptotics as asy
from osckit import catalog
from osckit.catalog import FastProfile, SlowFunction, SourceFactor, duhamel_weight
from osckit.cli import main
from osckit.forward import HeatProblem
from osckit.scenarios import (
    FLOAT_TEXT_CROSSOVER,
    KINDS,
    READS,
    Scenario,
    ScenarioError,
    _csv_text,
    _jsonable,
    builtin_names,
    builtin_scenario,
    emit,
    parse_scenario,
    parse_scenario_dict,
    run,
    serialize_scenario,
)

from _oracles import exp_kernel_moment_40, report_json_text


# sha256 of the JSON and CSV reports of each built-in, recorded on numpy
# 2.4.6.  The trailing digits of the floats depend on the numpy build, so
# other versions skip the comparison.
PINNED_NUMPY = "2.4.6"
BUILTIN_REPORT_SHA256 = {
    "golden": "b211adb5c19fc49290eb3a6c1524e61fc9cfcc4da53099a0f4eee7c25563ed0f",
    "golden-convergence": "ad137b14125605963c6da28e9a6815ee755f52fc6270fd1d87e3bbbfab9b8078",
    "golden-forward": "8b01bbb06383f7f447af57bb8ffbde6bde82a4c30776ce327159700af9c56761",
}
BUILTIN_CSV_SHA256 = {
    "golden": "8e931ad13cc8cf9141350a8cf4c11aa7c5291ec03c0a7aa71e570555a785d0ac",
    "golden-convergence": "a7462c67f3f227bcb0ba5ae0c09b7cb824e9d94d7ae53f10759ac55202464efe",
    "golden-forward": "90a9346b288d1bdb2c3d637a445a6cb20506d9a619389ef3a9c00c4d3caddbf8",
}
# Two scenarios whose modes add cos and sin parts over several harmonics,
# which no built-in does, so their digests pin the order of those sums.
HARMONIC_SCENARIOS = {
    "harmonics-forward": {
        "kind": "forward",
        "params": {"omega": 300.0, "T": 1.0, "x_count": 17, "t_count": 129,
                   "x0": math.pi / 2.0},  # the node x[8]
        "functions": {
            "f": {"series": {str(n): [[0.9 / n, 0, 1.2 - 0.1 * n], [-0.6 / n, 1, -0.05 * n]]
                             for n in range(1, 9)}},
            "r0": {"slow": [[1.0, 0, 0.0], [0.5, 1, -0.3]]},
            "r1": {"fast": [{"k": k, "cos": [[0.4, 0, 0.5 * k], [-0.3, 1, -1.1]],
                             "sin": [[0.7, 0, -0.2 * k]]} for k in (1, 2, 3)]},
        },
    },
    "harmonics-convergence": {
        "kind": "convergence",
        "params": {"omega_ladder": [64.0, 128.0], "T": 1.0, "x_count": 33},
        "functions": {
            "f": {"series": {"1": [[1.0, 0, 0.0], [0.5, 1, -1.0]], "2": [[0.7, 0, 0.0]]}},
            "r0": {"slow": [[1.0, 1, 0.0]]},
            "r1": {"fast": [{"k": 1, "cos": [[0.3, 0, 0.0]], "sin": [[1.0, 0, 0.0]]},
                            {"k": 2, "cos": [[-0.5, 1, 0.0]], "sin": [[0.2, 0, -1.0]]}]},
        },
    },
}
REPORT_SHA256 = dict(BUILTIN_REPORT_SHA256, **{
    "harmonics-forward": "6aae430a7f3a10172f07c85ff227d7730f1ce309206e8886edb9546a12b48a8a",
    "harmonics-convergence": "b08292b6186632a275beac35b96ea05c6cc48708ab43cb580ae4c8546d69ff0c",
})
CSV_SHA256 = dict(BUILTIN_CSV_SHA256, **{
    "harmonics-forward": "bec350c39cf6562aa209bd258b9e39a6f921424b474402b0aca833c87c0d5655",
    "harmonics-convergence": "3322db567c7aaf22613bf20bb7c713588330eacc642453c281fe021040e38e44",
})


def pinned_scenario(name):
    """A built-in, or one of ``HARMONIC_SCENARIOS``."""
    if name in HARMONIC_SCENARIOS:
        return parse_scenario_dict(HARMONIC_SCENARIOS[name])
    return builtin_scenario(name)


def write_scenario(tmp_path, payload, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def inverse2_payload(psi, **params):
    return {
        "kind": "inverse2",
        "params": dict({"t0": 1.0, "n_max": 4}, **params),
        "functions": {
            "r0": {"slow": [[1.0, 1, 0.0]]},
            "psi": {"series": {str(n): [[v, 0, 0.0]] for n, v in psi.items()}},
        },
    }


def reconstruct_inverse1_payload(grid=2**15):
    """Procedure 1 as the benchmark's reconstruct workload poses it: a
    three-mode constant envelope, a mean r0 = s (e^{g t} + b t) with
    r0(1) = 1, a two-harmonic oscillation, and the exact traces at x0."""
    amps = {1: 0.9, 2: -0.2, 3: 0.07}
    g, b, x0 = -0.3, 0.6, 1.3
    scale = 1.0 / (math.exp(g) + b)

    def weight(n):  # int_0^t e^{-n^2 (t-s)} r0(s) ds
        n2 = float(n * n)
        c0, c1 = scale / (g + n2), scale * b
        return [[c0, 0, g], [-c0, 0, -n2], [c1 / n2, 1, 0.0],
                [-c1 / n2**2, 0, 0.0], [c1 / n2**2, 0, -n2]]

    env_x0 = sum(a * math.sin(n * x0) for n, a in amps.items())
    phi2 = [{"k": k, "cos": [[-bk / k * env_x0, 0, 0.0]], "sin": [[ak / k * env_x0, 0, 0.0]]}
            for k, ak, bk in ((1, 0.4, -0.7), (2, -0.5, 0.25))]
    return {
        "kind": "inverse1",
        "params": {"x0": x0, "T": 2.0, "grid": grid},
        "functions": {
            "f": {"series": {str(n): [[a, 0, 0.0]] for n, a in amps.items()}},
            "phi0": {"slow": [[a * math.sin(n * x0) * c, m, r]
                              for n, a in amps.items() for c, m, r in weight(n)]},
            "phi2": {"fast": phi2},
        },
    }


def snapshot_payload(**params):
    return inverse2_payload({1: 1.0, 2: 0.5}, **params)


def golden_payload(**params):
    payload = serialize_scenario(builtin_scenario("golden"))
    payload["params"].update(params)
    return payload


def forward_payload(**params):
    base = {
        "kind": "forward",
        "params": {"omega": 50.0, "T": 1.0, "x_count": 17, "t_count": 33,
                   "x0": 1.5},
        "functions": {
            "f": {"series": {"1": [[1.0, 0, 0.0]]}},
            "r0": {"slow": [[1.0, 1, 0.0]]},
            "r1": {"fast": [{"k": 1, "cos": [], "sin": [[1.0, 0, 0.0]]}]},
        },
    }
    base["params"].update(params)
    return base


def asymptotics_payload(**params):
    """``forward_payload`` as an asymptotics scenario, without the forward-only
    ``x0`` and ``t_count``."""
    payload = forward_payload(**params)
    payload["kind"] = "asymptotics"
    for name in ("x0", "t_count"):
        del payload["params"][name]
    return payload


# the tag each scenario function must carry, and a payload of another tag
FUNCTION_TAG = {"f": "series", "r0": "slow", "r1": "fast", "phi0": "slow",
                "phi2": "fast", "psi": "series", "alpha": "slow"}
WRONG_PAYLOAD = {"slow": {"fast": [{"k": 1, "sin": [[1.0, 0, 0.0]]}]},
                 "fast": {"slow": [[1.0, 0, 0.0]]},
                 "series": {"slow": [[1.0, 0, 0.0]]}}


def kind_payload(kind):
    """A valid scenario of ``kind`` that gives each function it reads."""
    golden = golden_payload()
    trace = {name: golden["functions"][name] for name in ("phi0", "phi2")}
    snapshot = snapshot_payload()
    return {
        "forward": forward_payload(),
        "asymptotics": asymptotics_payload(),
        "convergence": serialize_scenario(builtin_scenario("golden-convergence")),
        "inverse1": {"kind": "inverse1", "params": {"x0": 1.5, "T": 2.0},
                     "functions": dict(trace, f=forward_payload()["functions"]["f"])},
        "inverse2": snapshot,
        "inverse3": {"kind": "inverse3", "params": {"x0": 1.5, "t0": 1.0, "T": 2.0},
                     "functions": dict(trace, **snapshot["functions"])},
        "inverse4": golden,
    }[kind]


class TestParsing:
    def test_builtin_golden_loads_reference_points(self):
        s = builtin_scenario("golden")
        assert s.kind == "inverse4"
        assert s.params["t0"] == 1.0
        assert s.params["x_points"] == [math.pi / 2.0, math.pi / 6.0]

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="unknown built-in"):
            builtin_scenario("nope")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ScenarioError, match="empty"):
            parse_scenario(str(path))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown kind"):
            parse_scenario_dict({"kind": "banana"})

    def test_missing_parameter_named(self):
        payload = forward_payload()
        del payload["params"]["omega"]
        with pytest.raises(ScenarioError, match="'omega'"):
            parse_scenario_dict(payload)

    def test_missing_function_named(self):
        payload = forward_payload()
        del payload["functions"]["r0"]
        with pytest.raises(ScenarioError, match="'r0'"):
            parse_scenario_dict(payload)

    @pytest.mark.parametrize("section, name", [
        ("params", "omega"), ("params", "T"), ("functions", "f"), ("functions", "r0")])
    def test_null_required_entry_is_missing(self, section, name):
        payload = forward_payload()
        payload[section][name] = None
        what = "parameter" if section == "params" else "function"
        with pytest.raises(ScenarioError, match=f"missing {what} '{name}'"):
            parse_scenario_dict(payload)

    def test_out_of_range_point_named(self):
        payload = forward_payload(x0=4.0)
        with pytest.raises(ScenarioError, match="x0"):
            parse_scenario_dict(payload)

    def test_parse_serialize_round_trip(self, tmp_path):
        for name in builtin_names():
            original = builtin_scenario(name)
            path = write_scenario(tmp_path, serialize_scenario(original),
                                  f"{name}.json")
            assert parse_scenario(path) == original

    @pytest.mark.parametrize("name, value", [
        ("grid", 2.5), ("grid", 0), ("n_max", True), ("x_count", 1),
        ("t_count", "33"), ("omega", math.inf), ("T", math.nan),
        ("x0", "1.5x"), ("tol_consistency", math.inf),
        ("tol_lambda", -1e-12), ("tol_coeff", -1.0), ("tol_consistency", -1e-3),
    ])
    def test_invalid_parameter_named(self, name, value):
        # each case on a kind that reads the parameter
        reader = {"grid": golden_payload, "tol_consistency": golden_payload,
                  "tol_lambda": snapshot_payload, "tol_coeff": snapshot_payload}
        payload = reader.get(name, forward_payload)(**{name: value})
        with pytest.raises(ScenarioError, match=f"parameter '{name}' must be"):
            parse_scenario_dict(payload)

    @pytest.mark.parametrize("builtin, name, value", [
        ("golden-forward", "grid", 4096),
        ("golden-forward", "tol_consistency", 1e-3),
        ("golden-convergence", "t_count", 1025),
        ("golden", "n_max", 8),
        ("golden", "x0", 1.0),
    ])
    def test_unread_parameter_names_parameter_and_kind(self, builtin, name, value):
        payload = serialize_scenario(builtin_scenario(builtin))
        payload["params"][name] = value
        with pytest.raises(ScenarioError, match=f"parameter '{name}' is not read by "
                                                f"kind '{payload['kind']}'"):
            parse_scenario_dict(payload)

    def test_unread_function_names_function_and_kind(self):
        payload = snapshot_payload()
        payload["functions"]["r1"] = {"fast": [{"k": 1, "sin": [[1.0, 0, 0.0]]}]}
        with pytest.raises(ScenarioError, match="function 'r1' is not read by kind "
                                                "'inverse2'"):
            parse_scenario_dict(payload)

    def test_unknown_kind_in_python_is_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown kind 'banana'; expected one "
                                                "of \\('forward'"):
            Scenario("banana", {}, {})

    def test_expansion_kinds_need_one_fast_period(self):
        payload = forward_payload(omega=3.0, T=2.0)  # omega * T = 6 < 2 pi
        assert parse_scenario_dict(payload).kind == "forward"
        payload = asymptotics_payload(omega=3.0, T=2.0)
        with pytest.raises(ScenarioError, match="omega"):
            parse_scenario_dict(payload)
        payload["params"]["T"] = 2.1  # omega * T = 6.3 > 2 pi
        assert parse_scenario_dict(payload).kind == "asymptotics"

    def test_non_numeric_list_entry_rejected(self):
        golden = serialize_scenario(builtin_scenario("golden"))
        golden["params"]["x_points"] = [1.5, "left"]
        with pytest.raises(ScenarioError, match="x_points"):
            parse_scenario_dict(golden)

    def test_bad_term_list_rejected(self):
        payload = forward_payload()
        payload["functions"]["r0"] = {"slow": [[1.0, "x"]]}
        with pytest.raises(ScenarioError, match="r0"):
            parse_scenario_dict(payload)

    @pytest.mark.parametrize("section, name, value, where", [
        ("params", None, [1, 2], "'params'"),
        ("functions", None, [1], "'functions'"),
        ("functions", "f", {"series": {"a": [[1.0, 0, 0.0]]}}, "mode 'a' at f"),
        ("functions", "f", {"series": {"0": [[1.0, 0, 0.0]]}}, "at f"),
        ("functions", "r1", {"fast": [{"k": 0, "sin": [[1.0, 0, 0.0]]}]}, "at r1"),
        ("functions", "r0", {"slow": [[1.0, 1.5, 0.0]]}, "power of term 0 at r0"),
        ("functions", "r0", {"slow": [["2.5", True, "0"]]},
         "coefficient of term 0 at r0"),
        ("functions", "r1", {"fast": [{"k": 1.9, "sin": [[1.0, 0, 0.0]]}]},
         "'k' at r1\\[0\\]"),
        ("functions", "f", {"series": {"1": [[1.0, 0, 0.0]], "01": [[2.0, 0, 0.0]]}},
         "mode '01' at f"),
        ("functions", "r1", {"fast": [{"k": 1, "cosine": [[1.0, 0, 0.0]]}]},
         "record at r1\\[0\\]"),
    ], ids=["params-list", "functions-list", "series-mode-text", "series-mode-zero",
            "fast-k-zero", "fractional-power", "string-and-bool-term", "fractional-k",
            "non-canonical-mode", "unknown-harmonic-key"])
    def test_malformed_shape_is_scenario_error(self, tmp_path, capsys, section, name,
                                               value, where):
        payload = forward_payload()
        if name is None:
            payload[section] = value
        else:
            payload[section][name] = value
        with pytest.raises(ScenarioError, match=where):
            parse_scenario_dict(payload)
        path = write_scenario(tmp_path, payload)
        assert main(["forward", "--scenario", path, "--out", "-"]) == 1
        assert "osckit: scenario error:" in capsys.readouterr().err


    @pytest.mark.parametrize("builtin, section, name, value, where", [
        ("golden-forward", "params", "t_cout", 9, "unknown parameter 't_cout'"),
        ("golden-forward", "functions", "r2", {"fast": []}, "unknown function 'r2'"),
        ("golden-forward", "params", "emit_field", "no", "parameter 'emit_field'"),
        ("golden-forward", "params", "emit_field", 0, "parameter 'emit_field'"),
        ("golden-forward", "params", "omega", 10**400, "parameter 'omega'"),
        ("golden", "params", "x_points", [1.0, 10**400],
         "entry 1 of parameter 'x_points'"),
        ("golden-convergence", "params", "omega_ladder", [10**400],
         "entry 0 of parameter 'omega_ladder'"),
        ("golden-forward", "functions", "r0", {"slow": [[10**400, 1, 0.0]]},
         "coefficient of term 0 at r0"),
    ], ids=["misspelt-parameter", "unknown-function", "emit-field-text",
            "emit-field-zero", "huge-omega", "huge-x-point", "huge-ladder-rung",
            "huge-coefficient"])
    def test_unread_or_unconvertible_input_named(self, tmp_path, builtin, section,
                                                 name, value, where):
        payload = serialize_scenario(builtin_scenario(builtin))
        payload[section][name] = value
        with pytest.raises(ScenarioError, match=where):
            parse_scenario(write_scenario(tmp_path, payload))

    @pytest.mark.parametrize("kind, name", [(kind, name) for kind in KINDS
                                            for name in READS[kind][1]])
    def test_function_of_wrong_kind_named(self, kind, name):
        payload = kind_payload(kind)
        assert set(payload["functions"]) == set(READS[kind][1])
        parse_scenario_dict(payload)
        tag = FUNCTION_TAG[name]
        wrong = [WRONG_PAYLOAD[tag]]
        if name == "alpha":  # one slow function alone, or a list of them
            wrong.append([payload["functions"]["alpha"][0], WRONG_PAYLOAD[tag]])
        for value in wrong:
            payload["functions"][name] = value
            with pytest.raises(ScenarioError, match=f"function '{name}' must be a "
                                                    f"'{tag}' function"):
                parse_scenario_dict(payload)

    def test_null_optional_function_reads_default(self):
        payload = forward_payload()
        payload["functions"]["r1"] = None
        scenario = parse_scenario_dict(payload)
        assert scenario.function("r1") == FastProfile.zero()
        assert serialize_scenario(scenario)["functions"]["r1"] is None

    def test_required_function_checked_at_construction(self):
        with pytest.raises(ScenarioError, match="missing function 'f' for kind 'forward'"):
            Scenario("forward", {"omega": 1.0, "T": 1.0}, {})


class TestRun:
    def test_forward_zero_envelope_is_zero_field(self):
        payload = forward_payload()
        payload["functions"]["f"] = {"series": {}}
        report = run(parse_scenario_dict(payload))
        assert report.results["sup_norm"] == 0.0

    def test_forward_trace_matches_reference(self):
        payload = forward_payload(omega=100.0, x0=math.pi / 2.0,
                                  t_count=129, x_count=33)
        payload["functions"]["f"] = {"series": {"1": [[1.0, 0, 0.0]],
                                                "2": [[1.0, 0, 0.0]]}}
        payload["functions"]["r1"] = {"fast": []}
        report = run(parse_scenario_dict(payload))
        tr = report.results["trace"]
        t = np.asarray(tr["t"])
        want = np.exp(-t) + t - 1.0
        assert np.max(np.abs(np.asarray(tr["values"]) - want)) < 1e-12

    def test_golden_inverse4_report(self):
        report = run(builtin_scenario("golden"))
        assert not report.inconsistent
        env = report.results["envelope"]
        assert abs(env.coefficient(1).terms[0][0] - 1.0) < 1e-10
        assert abs(env.coefficient(2).terms[0][0] - 1.0) < 1e-10
        mean = np.asarray(report.results["mean"]["values"])
        t = np.asarray(report.results["mean"]["t"])
        assert np.max(np.abs(mean - t)) < 1e-6
        assert report.results["consistency_residual"] < 1e-8
        assert report.scenario == builtin_scenario("golden")

    def test_convergence_ladder_monotone(self):
        report = run(builtin_scenario("golden-convergence"))
        rows = report.results["ladder"]
        weighted = [row["omega_times_residual2"] for row in rows]
        assert all(a > b for a, b in zip(weighted, weighted[1:]))

    def test_convergence_takes_one_amplitude_pass_per_rung(self, monkeypatch):
        calls = []
        amplitudes = asy.oscillatory_amplitudes

        def counted(*args):
            calls.append(args[0].omega)
            return amplitudes(*args)

        monkeypatch.setattr(asy, "oscillatory_amplitudes", counted)
        payload = serialize_scenario(builtin_scenario("golden-convergence"))
        payload["params"].update(omega_ladder=[64.0, 128.0, 256.0], x_count=9)
        report = run(parse_scenario_dict(payload))
        assert calls == [64.0, 128.0, 256.0]
        assert len(report.results["ladder"]) == 3

    def test_asymptotics_kind_reports_residuals(self):
        payload = asymptotics_payload(omega=128.0, x_count=33)
        report = run(parse_scenario_dict(payload))
        cols = {"omega", "residual_order1", "residual_order2",
                "omega_times_residual2", "matching_defect"}
        assert cols <= set(report.results)
        assert report.results["residual_order2"] < report.results["residual_order1"]

    def test_inverse1_kind_recovers_reference_mean(self):
        scenario = parse_scenario_dict({
            "kind": "inverse1",
            "params": {"x0": math.pi / 2.0, "T": 2.0, "grid": 512},
            "functions": {
                "f": {"series": {"1": [[1.0, 0, 0.0]], "2": [[1.0, 0, 0.0]]}},
                "phi0": {"slow": [[1.0, 0, -1.0], [1.0, 1, 0.0],
                                  [-1.0, 0, 0.0]]},
                "phi2": {"fast": [{"k": 1, "cos": [[-1.0, 0, 0.0]], "sin": []}]},
            },
        })
        report = run(scenario)
        mean = np.asarray(report.results["mean"]["values"])
        t = np.asarray(report.results["mean"]["t"])
        assert np.max(np.abs(mean - t)) < 2e-5  # O(h^2) at 512 intervals

    def test_inverse3_kind_checks_congruence(self):
        scenario = parse_scenario_dict({
            "kind": "inverse3",
            "params": {"x0": math.pi / 2.0, "t0": 1.0, "T": 2.0},
            "functions": {
                "r0": {"slow": [[1.0, 1, 0.0]]},
                "psi": {"series": {
                    "1": [[math.exp(-1.0), 0, 0.0]],
                    "2": [[(3.0 + math.exp(-4.0)) / 16.0, 0, 0.0]]}},
                "phi0": {"slow": [[1.0, 0, -1.0], [1.0, 1, 0.0],
                                  [-1.0, 0, 0.0]]},
                "phi2": {"fast": [{"k": 1, "cos": [[-1.0, 0, 0.0]], "sin": []}]},
            },
        })
        report = run(scenario)
        assert not report.inconsistent
        assert report.results["congruence_residual"] < 1e-8

    def test_inverse2_unsolvable_flagged(self):
        scenario = parse_scenario_dict({
            "kind": "inverse2",
            "params": {"t0": 1.0, "n_max": 4},
            "functions": {
                "r0": {"slow": [[1.0, 1, 0.0],
                                [-1.0 / (math.e - 1.0), 0, 0.0]]},
                "psi": {"series": {"1": [[0.3, 0, 0.0]]}},
            },
        })
        report = run(scenario)
        assert report.inconsistent
        assert report.results["status"] == "unsolvable"
        assert report.results["offending_modes"] == (1,)

    @pytest.mark.parametrize("name", ["tol_lambda", "tol_coeff"])
    def test_inverse2_null_tolerance_is_default(self, name):
        psi = {1: 0.3, 2: 0.1}
        report = run(parse_scenario_dict(inverse2_payload(psi, **{name: None})))
        default = run(parse_scenario_dict(inverse2_payload(psi)))
        assert report.results["status"] == "unique"
        assert report.results["envelope"] == default.results["envelope"]

    @pytest.mark.parametrize("kind", ["asymptotics", "convergence"])
    def test_residual_grid_follows_x_count(self, kind):
        scenario = builtin_scenario("golden-convergence")
        params = {"T": 1.0, "x_count": 4}
        params.update({"omega": 128.0} if kind == "asymptotics"
                      else {"omega_ladder": [128.0]})
        report = run(parse_scenario_dict(dict(
            serialize_scenario(scenario), kind=kind, params=params)))
        row = report.results if kind == "asymptotics" else report.results["ladder"][0]
        f = scenario.functions
        problem = HeatProblem(f["f"], SourceFactor(f["r0"], f["r1"]), 128.0, 1.0, 32)
        want = asy.residual_norm(problem, x_count=4)
        for order in (1, 2):
            assert row[f"residual_order{order}"] == want[order - 1]
        assert row["residual_order1"] != asy.residual_norm(problem)[0]

    def test_null_optional_point_gives_no_trace(self):
        report = run(parse_scenario_dict(forward_payload(x0=None)))
        assert "trace" not in report.results
        assert report.results["sup_norm"] > 0.0

    def test_null_grid_reads_default(self):
        golden = serialize_scenario(builtin_scenario("golden"))
        assert golden["params"]["grid"] == 2048
        golden["params"]["grid"] = None
        report = run(parse_scenario_dict(golden))
        want = run(builtin_scenario("golden"))
        assert np.array_equal(report.results["mean"]["values"],
                              want.results["mean"]["values"])
        assert report.results["envelope"] == want.results["envelope"]

    def test_inverse2_slow_snapshot_decay_warned(self):
        # psi_n = 1/n^2: n^4 psi_n grows fourfold from modes 1..8 to 9..16
        scenario = parse_scenario_dict({
            "kind": "inverse2",
            "params": {"t0": 1.0, "n_max": 16},
            "functions": {
                "r0": {"slow": [[1.0, 1, 0.0]]},
                "psi": {"series": {str(n): [[1.0 / n**2, 0, 0.0]] for n in range(1, 17)}},
            },
        })
        report = run(scenario)
        assert report.results["status"] == "unique"
        assert any("slower than n^-4" in w for w in report.flags["warnings"])

    def test_inverse3_slow_snapshot_decay_warned(self):
        # the snapshot check of inverse2 runs inside inverse3 too
        scenario = parse_scenario_dict({
            "kind": "inverse3",
            "params": {"x0": math.pi / 2.0, "t0": 1.0, "T": 2.0, "n_max": 16},
            "functions": {
                "r0": {"slow": [[1.0, 1, 0.0]]},
                "psi": {"series": {str(n): [[1.0 / n**2, 0, 0.0]] for n in range(1, 17)}},
                "phi0": {"slow": [[1.0, 0, -1.0], [1.0, 1, 0.0],
                                  [-1.0, 0, 0.0]]},
                "phi2": {"fast": [{"k": 1, "cos": [[-1.0, 0, 0.0]], "sin": []}]},
            },
        })
        report = run(scenario)
        assert any("slower than n^-4" in w for w in report.flags["warnings"])


class TestEmit:
    def test_json_deterministic_bytes(self, tmp_path):
        report1 = run(builtin_scenario("golden"))
        report2 = run(builtin_scenario("golden"))
        a = emit(report1, "json", str(tmp_path / "a.json"))
        b = emit(report2, "json", str(tmp_path / "b.json"))
        assert a == b
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(BUILTIN_REPORT_SHA256) + sorted(HARMONIC_SCENARIOS))
    def test_builtin_report_bytes_pinned(self, name, tmp_path):
        if np.__version__ != PINNED_NUMPY:
            pytest.skip(f"report digests were recorded on numpy {PINNED_NUMPY}, "
                        f"this is numpy {np.__version__}")
        report = run(pinned_scenario(name))
        for fmt, digests in (("json", REPORT_SHA256), ("csv", CSV_SHA256)):
            text = emit(report, fmt, str(tmp_path / f"r.{fmt}"))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digests[name]

    @pytest.mark.parametrize("name", sorted(BUILTIN_REPORT_SHA256) + sorted(HARMONIC_SCENARIOS))
    def test_builtin_report_bytes_match_40_term_moments(self, name, tmp_path, monkeypatch):
        # the pins above skip off numpy 2.4.6; this comparison runs on any numpy
        def reports():
            report = run(pinned_scenario(name))
            return [emit(report, fmt, str(tmp_path / f"r.{fmt}")) for fmt in ("json", "csv")]

        texts = reports()

        # every moment, of the forward batches and of the resolvent's
        # one-row calls, is a row of catalog._moment_block; the oracle takes
        # each row alone and forms its own exponentials, so the shared ones
        # are checked end to end
        rows = []

        def oracle(grid, powers, rates, ms):
            rows.extend(powers)
            return np.reshape([exp_kernel_moment_40(power, rate, grid.decays[m], grid.t)
                               for power, rate, m in zip(powers, rates, ms)],
                              (len(powers), grid.t.size))

        monkeypatch.setattr(catalog, "_moment_block", oracle)
        assert reports() == texts
        assert rows  # the oracle was called, so the comparison checked something

    def test_csv_inverse2_envelope_text(self, tmp_path):
        # psi_n = a_n L_n with powers of two a_n, so psi_n / L_n is exactly a_n
        # on any numpy; mode 3 has no snapshot and no row
        amps = {1: 1.0, 2: -0.5, 4: 0.25}
        mean = SlowFunction.monomial(1.0, 1)
        psi = {n: a * duhamel_weight(n, mean, 1.0) for n, a in amps.items()}
        report = run(parse_scenario_dict(inverse2_payload(psi)))
        text = emit(report, "csv", str(tmp_path / "envelope.csv"))
        assert text == "n,coefficient\n1,1.0\n2,-0.5\n4,0.25\n"

    def test_json_payload_structure(self, tmp_path):
        report = run(builtin_scenario("golden"))
        text = emit(report, "json", str(tmp_path / "r.json"))
        payload = json.loads(text)
        assert set(payload) == {"kind", "scenario", "results", "flags"}

    def test_csv_convergence_columns(self, tmp_path):
        report = run(builtin_scenario("golden-convergence"))
        text = emit(report, "csv", str(tmp_path / "ladder.csv"))
        lines = text.strip().splitlines()
        assert lines[0] == "omega,residual_order1,residual_order2,omega_times_residual2"
        assert len(lines) == 5
        weighted = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a > b for a, b in zip(weighted, weighted[1:]))

    def test_csv_inverse4_mean_column(self, tmp_path):
        report = run(builtin_scenario("golden"))
        text = emit(report, "csv", str(tmp_path / "mean.csv"))
        lines = text.strip().splitlines()
        assert lines[0] == "t,mean"
        assert len(lines) == 2050

    def test_csv_long_float_columns_match_repr(self):
        t = np.linspace(0.0, 2.0, 2 * FLOAT_TEXT_CROSSOVER + 3)
        mean = np.sin(7.0 * t) * 10.0 ** np.arange(-20, t.size - 20)[::-1].clip(-30, 30)
        mean[[0, 5, 6, 7, -1]] = [-0.0, math.nan, math.inf, -math.inf, 0.0]
        text = _csv_text(["t", "mean"], [t, mean])
        assert text == "t,mean\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), mean.tolist()))

    def test_reconstruct_report_matches_repr_join_writer(self, tmp_path):
        # 2^15 + 1 grid points of t and of the mean, written by
        # osckit._floattext, against the join of float.__repr__
        scenario = parse_scenario_dict(reconstruct_inverse1_payload())
        report = run(scenario)
        text = emit(report, "json", str(tmp_path / "r.json"))
        payload = _jsonable({"kind": "inverse1", "results": report.results,
                             "flags": report.flags})
        payload["scenario"] = serialize_scenario(scenario)
        assert len(payload["results"]["mean"]["t"]) == 2**15 + 1
        assert text == report_json_text(payload) + "\n"


class TestCommandLine:
    def test_golden_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "golden.json"
        code = main(["inverse4", "--scenario", "golden",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["results"]["gauge"] - 1.0) < 1e-12

    def test_kind_mismatch_is_error(self, tmp_path):
        assert main(["forward", "--scenario", "golden", "--out", "-"]) == 1

    def test_missing_file_is_error(self):
        assert main(["forward", "--scenario", "does-not-exist.json"]) == 1

    def test_inconsistent_data_exit_two(self, tmp_path):
        bump = [[4e-3, 2, 0.0], [-8e-3, 1, 0.0], [4e-3, 0, 0.0]]
        golden = serialize_scenario(builtin_scenario("golden"))
        alpha = golden["functions"]["alpha"][0]["slow"]
        golden["functions"]["alpha"][0]["slow"] = alpha + bump
        path = write_scenario(tmp_path, golden, "bumped.json")
        code = main(["inverse4", "--scenario", path,
                     "--out", str(tmp_path / "bumped.json.out")])
        assert code == 2

    def test_grid_override_flag(self, tmp_path):
        out = tmp_path / "coarse.json"
        code = main(["inverse4", "--scenario", "golden", "--grid", "256",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["results"]["mean"]["t"]) == 257

    def test_omega_ladder_override(self, tmp_path):
        out = tmp_path / "ladder.csv"
        code = main(["convergence", "--scenario", "golden-convergence",
                     "--omega-ladder", "32,64", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_three_decade_ladder(self, tmp_path):
        out = tmp_path / "decades.json"
        code = main(["convergence", "--scenario", "golden-convergence",
                     "--omega-ladder", "1e3,1e4,1e5", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["results"]["ladder"]
        assert [row["omega"] for row in rows] == [1e3, 1e4, 1e5]
        for row in rows:
            assert row["residual_order2"] < row["residual_order1"]
        scaled = [row["omega_times_residual2"] for row in rows]
        assert scaled[0] > scaled[1] > scaled[2]

    @pytest.mark.parametrize("kind, scenario, flag, name", [
        ("forward", "golden-forward", "--grid", "grid"),
        ("inverse4", "golden", "--modes", "n_max"),
        ("inverse4", "golden", "--omega-ladder", "omega_ladder"),
    ])
    def test_unread_override_is_scenario_error(self, kind, scenario, flag, name,
                                               capsys):
        assert main([kind, "--scenario", scenario, flag, "64", "--out", "-"]) == 1
        assert f"osckit: scenario error: parameter '{name}' is not read by kind " \
            f"'{kind}'" in capsys.readouterr().err

    def test_fractional_grid_in_file_is_scenario_error(self, tmp_path, capsys):
        golden = serialize_scenario(builtin_scenario("golden"))
        golden["params"]["grid"] = 2.5
        path = write_scenario(tmp_path, golden, "fractional.json")
        assert main(["inverse4", "--scenario", path, "--out", "-"]) == 1
        assert "osckit: scenario error: parameter 'grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, scenario, flag, value", [
        ("inverse4", "golden", "--grid", "0"),
        ("inverse4", "golden", "--modes", "0"),
        ("convergence", "golden-convergence", "--omega-ladder", "nan"),
        ("convergence", "golden-convergence", "--omega-ladder", "64,inf"),
        ("inverse4", "golden", "--grid", "1"),
        ("convergence", "golden-convergence", "--omega-ladder", "1e-3,2e-3"),
    ])
    def test_invalid_override_is_scenario_error(self, kind, scenario, flag, value,
                                                capsys):
        assert main([kind, "--scenario", scenario, flag, value, "--out", "-"]) == 1
        assert "osckit: scenario error:" in capsys.readouterr().err

    def test_non_numeric_omega_ladder_is_scenario_error(self, capsys):
        assert main(["convergence", "--scenario", "golden-convergence",
                     "--omega-ladder", "abc", "--out", "-"]) == 1
        assert "osckit: scenario error: --omega-ladder: could not convert string " \
            "to float: 'abc'" in capsys.readouterr().err

    def test_negative_tolerance_is_scenario_error(self, tmp_path, capsys):
        golden = serialize_scenario(builtin_scenario("golden"))
        golden["params"]["tol_consistency"] = -1.0
        path = write_scenario(tmp_path, golden, "negative.json")
        assert main(["inverse4", "--scenario", path, "--out", "-"]) == 1
        assert "osckit: scenario error: parameter 'tol_consistency'" \
            in capsys.readouterr().err

    def test_null_required_parameter_is_scenario_error(self, tmp_path, capsys):
        forward = serialize_scenario(builtin_scenario("golden-forward"))
        forward["params"]["omega"] = None
        path = write_scenario(tmp_path, forward, "null.json")
        with pytest.raises(ScenarioError, match="missing parameter 'omega'"):
            parse_scenario(path)
        assert main(["forward", "--scenario", path, "--out", "-"]) == 1
        assert "osckit: scenario error: missing parameter 'omega'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("kind", KINDS)
    def test_function_of_wrong_kind_is_scenario_error(self, kind, tmp_path, capsys):
        payload = kind_payload(kind)
        name = sorted(READS[kind][1])[0]
        payload["functions"][name] = WRONG_PAYLOAD[FUNCTION_TAG[name]]
        path = write_scenario(tmp_path, payload)
        assert main([kind, "--scenario", path, "--out", "-"]) == 1
        assert f"osckit: scenario error: function '{name}' must be a " \
            f"'{FUNCTION_TAG[name]}' function" in capsys.readouterr().err

    def test_fast_mean_in_convergence_is_scenario_error(self, tmp_path, capsys):
        payload = serialize_scenario(builtin_scenario("golden-convergence"))
        payload["functions"]["r0"] = serialize_scenario(
            builtin_scenario("golden-forward"))["functions"]["r1"]
        path = write_scenario(tmp_path, payload)
        assert main(["convergence", "--scenario", path, "--out", "-"]) == 1
        assert "osckit: scenario error: function 'r0' must be a 'slow' function" \
            in capsys.readouterr().err

    def test_misspelt_parameter_is_scenario_error(self, tmp_path, capsys):
        forward = serialize_scenario(builtin_scenario("golden-forward"))
        forward["params"]["t_cout"] = 9
        path = write_scenario(tmp_path, forward, "misspelt.json")
        assert main(["forward", "--scenario", path, "--out", "-"]) == 1
        assert "osckit: scenario error: unknown parameter 't_cout'" \
            in capsys.readouterr().err


@pytest.mark.parametrize("module", [osckit, osckit.catalog, osckit.forward,
                                    osckit.asymptotics, osckit.volterra,
                                    osckit.inverse, osckit.scenarios],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
