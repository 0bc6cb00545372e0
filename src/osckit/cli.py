"""Command-line front end: one subcommand per scenario kind.

    osckit inverse4 --scenario golden --format json --out report.json

``--scenario`` takes a JSON file path or a built-in name.  Exit codes:
0 on success, 2 when the run reports a data inconsistency (unsolvable
reconstruction), 1 on any error.  OSK_THREADS caps numerical parallelism.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import scenarios  # the package __init__ has applied OSK_THREADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osckit",
        description="Oscillating-source heat solver and source reconstruction",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in scenarios.KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario")
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path or built-in name "
                            f"({', '.join(scenarios.builtin_names())})")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--grid", type=int, default=None,
                       help="override grid intervals M")
        p.add_argument("--modes", type=int, default=None,
                       help="override mode truncation N_max")
        p.add_argument("--omega-ladder", default=None,
                       help="override omega ladder, comma separated")
    return parser


def _load_scenario(name: str) -> "scenarios.Scenario":
    if os.path.exists(name):
        return scenarios.parse_scenario(name)
    if name in scenarios.builtin_names():
        return scenarios.builtin_scenario(name)
    raise scenarios.ScenarioError(
        f"scenario {name!r} is neither a file nor a built-in name"
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _load_scenario(args.scenario)
        if scenario.kind != args.kind:
            raise scenarios.ScenarioError(
                f"scenario kind {scenario.kind!r} does not match "
                f"subcommand {args.kind!r}"
            )
        params = dict(scenario.params)
        if args.grid is not None:
            params["grid"] = args.grid
        if args.modes is not None:
            params["n_max"] = args.modes
        if args.omega_ladder is not None:
            params["omega_ladder"] = [float(w) for w in
                                      args.omega_ladder.split(",") if w]
        scenario = scenarios.Scenario(scenario.kind, params, scenario.functions)
        report = scenarios.run(scenario)
        scenarios.emit(report, args.format, args.out)
        print(f"osckit {args.kind}: {report.timing_seconds:.3f}s", file=sys.stderr)
        return 2 if report.inconsistent else 0
    except scenarios.ScenarioError as exc:
        print(f"osckit: scenario error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surfaced with scenario context
        print(f"osckit: {args.kind} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
