"""Scenario parsing, CLI subcommands, report emission, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from osckit.cli import main
from osckit.scenarios import (
    ScenarioError,
    builtin_names,
    builtin_scenario,
    emit,
    parse_scenario,
    parse_scenario_dict,
    run,
    serialize_scenario,
)


def write_scenario(tmp_path, payload, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    ])
    def test_invalid_parameter_named(self, name, value):
        payload = forward_payload(**{name: value})
        with pytest.raises(ScenarioError, match=name):
            parse_scenario_dict(payload)

    def test_expansion_kinds_need_one_fast_period(self):
        payload = forward_payload(omega=3.0, T=2.0)  # omega * T = 6 < 2 pi
        assert parse_scenario_dict(payload).kind == "forward"
        payload["kind"] = "asymptotics"
        del payload["params"]["x0"]
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
        assert abs(env["1"][0][0] - 1.0) < 1e-10
        assert abs(env["2"][0][0] - 1.0) < 1e-10
        mean = np.asarray(report.results["mean"]["values"])
        t = np.asarray(report.results["mean"]["t"])
        assert np.max(np.abs(mean - t)) < 1e-6
        assert report.results["consistency_residual"] < 1e-8
        assert report.scenario == serialize_scenario(builtin_scenario("golden"))

    def test_convergence_ladder_monotone(self):
        report = run(builtin_scenario("golden-convergence"))
        rows = report.results["ladder"]
        weighted = [row["omega_times_residual2"] for row in rows]
        assert all(a > b for a, b in zip(weighted, weighted[1:]))

    def test_asymptotics_kind_reports_residuals(self):
        payload = forward_payload(omega=128.0, x_count=33)
        payload["kind"] = "asymptotics"
        del payload["params"]["x0"]
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
        assert report.results["offending_modes"] == [1]


class TestEmit:
    def test_json_deterministic_bytes(self, tmp_path):
        report1 = run(builtin_scenario("golden"))
        report2 = run(builtin_scenario("golden"))
        a = emit(report1, "json", str(tmp_path / "a.json"))
        b = emit(report2, "json", str(tmp_path / "b.json"))
        assert a == b
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

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

    def test_thread_cap_subprocess(self, tmp_path):
        script = (
            "import os; os.environ['OSK_THREADS'] = '1'\n"
            "from osckit.cli import main\n"
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
            "assert os.environ['OMP_NUM_THREADS'] == '1'\n"
            "raise SystemExit(main(['forward', '--scenario', 'golden-forward',"
            " '--out', '-', '--format', 'csv']))\n"
        )
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("t,value")
