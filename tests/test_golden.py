"""Refactor oracle: the bundled scenarios, the heat problems of the size
ladder, and all six verify suites (`gradients`, `submodularity`,
`rearrangement`, `invariance`, `energetic` and `wide`) against the golden
records that the benchmark checks (perfbench/golden), through the
comparison of perfbench/checks.py: every number within 1e-12 of its
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
from wedflow import (LagrangianProblem, RIProblem, RITrajectory,
                     constant_trajectory)
from wedflow.cli import bundled_scenarios, main

from conftest import point_grid, scalar_decay_problem

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


def ladder_run(tmp_path, monkeypatch, name: str, variant: int) -> tuple:
    """(exit code, record) of the benchmark's ladder operation."""
    monkeypatch.setenv("WEDFLOW_OUT", str(tmp_path))
    op, = [op for op in workloads.ladder_ops(variant, tmp_path)
           if op.name == name]
    rc, _ = cli(list(op.argv))
    return rc, checks.run_record(rc, tmp_path / name)


# heat1d_512_m2_N64 is recorded as a failure (exit 3: float64 Newton stalls
# at a scaled residual of 1.12e-10 against tol 1e-10). The extended-precision
# polish makes it converge, and a recorded failure that now passes its
# gates has no golden outputs; it is judged as the benchmark judges it
# (checks.judge), which counts it as passed
@pytest.mark.parametrize("name, variant", [("heat2d_32x32_m2_N16", 0),
                                           ("heat2d_16x16_m3_N64", 0),
                                           ("heat1d_512_m2_N64", 0),
                                           ("heat1d_512_m2_N64", 3)])
def test_ladder_problem_matches_golden_record(tmp_path, monkeypatch, name,
                                              variant):
    _, record = ladder_run(tmp_path, monkeypatch, name, variant)
    gold = golden("large_grid", variant, name)
    if gold["exit"] == 0:
        assert_matches(record, gold)
    else:
        failed, incorrect, notes = checks.judge(record, gold)
        assert not failed and not incorrect, notes


@pytest.mark.parametrize("variant", [0, 3])
def test_ladder_heat1d_converges_at_every_level(tmp_path, monkeypatch,
                                                variant):
    levels = []
    real = wedflow.runner.eps_continuation

    def watched(*args, **kwargs):
        levels.append(real(*args, **kwargs))
        return levels[-1]

    monkeypatch.setattr(wedflow.runner, "eps_continuation", watched)
    rc, record = ladder_run(tmp_path, monkeypatch, "heat1d_512_m2_N64",
                            variant)
    assert rc == 0 and checks.gate_problems(record) == []
    cont, = levels
    assert not cont.aborted and len(cont.reports) == 3
    for level in cont.reports:
        report, = level.inner_reports
        assert report.converged and report.gradient_norm <= 1e-10


@pytest.mark.parametrize("suite, seed", [(suite, seed)
                                         for suite in ("gradients",
                                                       "submodularity")
                                         for seed in range(8)]
                         + [("rearrangement", 0), ("invariance", 0),
                            ("energetic", 0), ("wide", 0)])
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
        # every lane must reach Newton through its own module binding
        heat = scalar_decay_problem()
        wedflow.wed.minimize_wed(heat, np.zeros(1), constant_trajectory(
            heat.grid, heat.initial, heat.T, 8))
        wedflow.wide.minimize_wide(LagrangianProblem(
            d=1, M=np.eye(1), nu=0.0, u_kind="quadratic", T=1.0,
            epsilon=0.1, initial=np.ones(1), velocity=np.zeros(1)), 8)
    assert "not found" not in capsys.readouterr().err
    assert rebound == expected
    calls = {name: n for name, (n, _, _) in t.totals().items()}
    assert calls["rateind.ordered"] == 1
    assert calls["newton.rateind"] > 0 and calls["rateind.value"] > 0
    assert calls["newton.wed"] > 0 and calls["newton.wide"] > 0
    for owner, names in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in names.items())
        assert set(vars(owner)) == set(names)
