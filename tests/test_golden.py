"""Refactor oracle: the bundled scenarios and the `gradients` and
`submodularity` verify suites against the golden records that the
benchmark checks (perfbench/golden), through the comparison of
perfbench/checks.py: every number within 1e-12 of its record, relative
above magnitude one and absolute below."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from wedflow.cli import bundled_scenarios, main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def golden(workload: str, variant: int, op: str) -> dict:
    table = json.loads((BENCH / "golden" / f"{workload}.json").read_text())
    return table["variants"][str(variant)][op]


def cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def assert_matches(record: dict, gold: dict) -> None:
    assert record["exit"] == gold["exit"]
    assert checks.compare(record, gold) == []


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_bundled_scenario_matches_golden_record(tmp_path, monkeypatch, name):
    monkeypatch.setenv("WEDFLOW_OUT", str(tmp_path))
    rc, _ = cli(["run", name])
    assert_matches(checks.run_record(rc, tmp_path / name),
                   golden("scenarios", 0, name))


@pytest.mark.parametrize("suite, seed", [("gradients", seed)
                                         for seed in range(8)]
                         + [("submodularity", 0)])
def test_verify_suite_matches_golden_record(suite, seed):
    rc, out = cli(["verify", suite, "--seed", str(seed)])
    assert_matches(checks.verify_record(rc, out),
                   golden("verify", seed, suite))
