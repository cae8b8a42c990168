"""Refactor oracle: the bundled scenarios, the two 2D heat problems of the
size ladder, and the `gradients`, `submodularity`, `rearrangement`,
`invariance` and `wide` verify suites against the golden records that the
benchmark checks (perfbench/golden), through the comparison of
perfbench/checks.py: every number within 1e-12 of its
record, relative above magnitude one and absolute below. Also checks that
the benchmark's tracer (perfbench/tracer.py) finds every name it rebinds
in the package and restores each binding."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import wedflow
from wedflow import RIProblem, RITrajectory
from wedflow.cli import bundled_scenarios, main

from conftest import point_grid

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


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


@pytest.mark.parametrize("name", ["heat2d_32x32_m2_N16",
                                  "heat2d_16x16_m3_N64"])
def test_2d_ladder_problem_matches_golden_record(tmp_path, monkeypatch,
                                                 name):
    monkeypatch.setenv("WEDFLOW_OUT", str(tmp_path))
    op, = [op for op in workloads.ladder_ops(0, tmp_path) if op.name == name]
    rc, _ = cli(list(op.argv))
    assert_matches(checks.run_record(rc, tmp_path / name),
                   golden("large_grid", 0, name))


@pytest.mark.parametrize("suite, seed", [("gradients", seed)
                                         for seed in range(8)]
                         + [("submodularity", 0), ("rearrangement", 0),
                            ("invariance", 0), ("wide", 0)])
def test_verify_suite_matches_golden_record(suite, seed):
    rc, out = cli(["verify", suite, "--seed", str(seed)])
    assert_matches(checks.verify_record(rc, out),
                   golden("verify", seed, suite))


def test_tracer_rebinds_every_name_and_restores_it(capsys):
    tracer = _load("tracer")
    owners = [module for name, module in sorted(sys.modules.items())
              if name.startswith("wedflow")] + [RITrajectory]
    before = [dict(vars(owner)) for owner in owners]
    expected = len(tracer.NEWTON_CALLERS) + 1 \
        + sum(len(where) for *_, where in tracer.SPANS)
    t = tracer.Tracer()
    with t.installed():
        rebound = sum(vars(owner)[k] is not v
                      for owner, names in zip(owners, before)
                      for k, v in names.items())
        problem = RIProblem(grid=point_grid(), phi_coeffs=(0.0, 0.0, 0.5),
                            a=0.0, forcing=np.linspace(0.0, 1.5, 9)[:, None],
                            T=1.0, epsilon=0.2, initial=np.zeros(1))
        wedflow.runner.ordered_ri_minimizers(problem, np.zeros(1),
                                             0.5 * np.ones(1))
    assert "not found" not in capsys.readouterr().err
    assert rebound == expected
    calls = {name: n for name, (n, _, _) in t.totals().items()}
    assert calls["rateind.ordered"] == 1
    assert calls["newton.rateind"] > 0 and calls["rateind.value"] > 0
    for owner, names in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in names.items())
        assert set(vars(owner)) == set(names)
