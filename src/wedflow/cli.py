"""Command line front end.

    wedflow run <scenario.json>     solve and write artifacts
    wedflow verify <suite>          run a named property suite
    wedflow list-scenarios          print the bundled scenario names

The output root defaults to ./wedflow_out and can be moved with the
WEDFLOW_OUT environment variable. Bundled scenario names (from
`list-scenarios`) are accepted by `run` in place of a file path.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .runner import SUITES, Scenario, ScenarioError, run, verify


def bundled_scenarios() -> dict:
    """Name -> text of every scenario JSON shipped with the package."""
    out = {}
    root = resources.files(__package__) / "scenarios"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry.read_text()
    return out


def _resolve(arg: str) -> str | Scenario:
    """A scenario file path as given, or the parsed bundled scenario."""
    if Path(arg).exists():
        return arg
    bundled = bundled_scenarios()
    if arg in bundled:
        return Scenario.from_text(bundled[arg])
    raise ScenarioError(f"no such file or bundled scenario: {arg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wedflow",
        description="variational trajectory solvers and property checks")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="solve a scenario file")
    p_run.add_argument("scenario",
                       help="path to a scenario JSON, or a bundled name")

    p_ver = sub.add_parser("verify", help="run a named property suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=0)

    sub.add_parser("list-scenarios", help="print bundled scenario names")

    args = parser.parse_args(argv)

    if args.verb == "run":
        try:
            scenario = _resolve(args.scenario)
        except ScenarioError as exc:
            print(f"configuration error: {exc}")
            return 2
        return run(scenario)

    if args.verb == "verify":
        report = verify(args.suite, seed=args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["passed"] else 1

    for name in bundled_scenarios():
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
