"""Scenario parsing, artifact emission, exit codes, the named suites, and
the command line."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from functools import cache
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import wedflow
from wedflow import (ConcaveSpec, DissipationSpec, EnergySpec, ReactionSpec,
                     Scenario, ScenarioError, Trajectory, WedProblem,
                     build_grid, rearrange, run, runner,
                     submodularity_check, verify)
from wedflow.cli import bundled_scenarios, main
from wedflow.runner import _json_ready, output_dir_for, trajectory_to_csv
from wedflow.wed import default_eps_schedule

from conftest import count_newton, line_grid

# the grid spec of the bundled heat_relaxation scenario
HEAT_GRID = json.loads(bundled_scenarios()["heat_relaxation"])["grid"]

# a complete scenario with the fewest fields: one node, default energy
MINIMAL = {"name": "x", "family": "doubly_nonlinear", "T": 1.0,
           "grid": {"shape": 1, "domain_kind": "point"}, "initial": 1.0}


def line_scenario(n, family="doubly_nonlinear", **fields) -> Scenario:
    """The scenario on line_grid(n) with the given fields, parsed."""
    raw = {"name": "x", "family": family, "T": 1.0, "steps": 4,
           "grid": {"shape": n, "spacing": 1.0 / (n - 1)}, "initial": 0.0}
    return Scenario.from_dict({**raw, **fields})


def heat_scenario(out_dir, **over):
    sc = {
        "name": "tiny_heat",
        "family": "doubly_nonlinear",
        "T": 1.0,
        "steps": 12,
        "schedule": [0.2, 0.1],
        "grid": {"shape": 5, "spacing": 0.25},
        "energy": {"kind": "m_laplace", "m": 2.0, "B": 1.0, "C": 0.0},
        "initial": {"kind": "cosine", "base": 1.0, "amplitude": 0.3},
        "output_dir": str(out_dir),
    }
    sc.update(over)
    return sc


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_from_dict_requires_core_fields():
    for missing in ("name", "family", "T"):
        raw = {"name": "x", "family": "doubly_nonlinear", "T": 1.0}
        del raw[missing]
        with pytest.raises(ScenarioError, match=missing):
            Scenario.from_dict(raw)


def test_from_dict_names_offending_field():
    with pytest.raises(ScenarioError, match="family.*heat_pump"):
        Scenario.from_dict({"name": "x", "family": "heat_pump", "T": 1.0})
    with pytest.raises(ScenarioError, match="seed"):
        Scenario.from_dict({**MINIMAL, "seed": "0"})
    with pytest.raises(ScenarioError, match="steps"):
        Scenario.from_dict({**MINIMAL, "steps": 0})
    with pytest.raises(ScenarioError, match="rmaps"):
        Scenario.from_dict({**MINIMAL, "rmaps": "reflect"})


def test_from_dict_fills_defaults():
    sc = Scenario.from_dict(MINIMAL)
    assert sc.config["seed"] == 0
    assert sc.config["steps"] == 64
    assert sc.config["schedule"] == "auto"
    assert sc.config["rmaps"] == []
    assert sc.config["compare_v0"] is None


def test_from_file_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ScenarioError, match=r"line 3, column 3"):
        Scenario.from_file(bad)


# ---------------------------------------------------------------------------
# value builders
# ---------------------------------------------------------------------------

def test_initial_values_kinds():
    g = line_grid(5)
    x = g.coords()[:, 0]

    def initial(spec, **fields):
        return line_scenario(5, initial=spec, **fields).values["initial"]

    assert np.array_equal(initial(2.0), np.full(5, 2.0))
    assert np.array_equal(initial([1, 2, 3, 4, 5]), np.arange(1.0, 6.0))
    assert np.array_equal(initial({"kind": "constant", "value": 0.5}),
                          np.full(5, 0.5))
    got = initial({"kind": "cosine", "base": 1.0, "amplitude": 0.3})
    assert np.allclose(got, 1.0 + 0.3 * np.cos(np.pi * x / x.max()))
    # ten values: the two-species energy's state
    pair = initial({"kind": "pair", "u": 0.5, "v": 1.5},
                   family="lotka_volterra",
                   reaction={"kind": "lotka_volterra"})
    assert np.array_equal(pair, np.concatenate([np.full(5, 0.5),
                                                np.full(5, 1.5)]))


def test_initial_values_errors():
    with pytest.raises(ScenarioError, match="initial"):
        line_scenario(5, initial=None)
    with pytest.raises(ScenarioError, match="wrong number"):
        line_scenario(5, initial=[1.0, 2.0])
    with pytest.raises(ScenarioError, match="unknown kind"):
        line_scenario(5, initial={"kind": "chirp"})


def test_forcing_values():
    def forcing(spec, steps=4):
        return line_scenario(3, steps=steps, forcing=spec).values["forcing"]

    assert forcing(None) is None
    assert np.array_equal(forcing(0.3), np.full(3, 0.3))
    spec = {"kind": "piecewise_linear_time",
            "points": [[0.0, 0.0], [0.5, 1.5], [0.75, 0.5], [1.0, 0.5]],
            "profile": [1.0, 2.0, 0.0]}
    got = forcing(spec, steps=8)
    t = np.linspace(0.0, 1.0, 9)
    scal = np.interp(t, [0.0, 0.5, 0.75, 1.0], [0.0, 1.5, 0.5, 0.5])
    assert got.shape == (9, 3)
    assert np.allclose(got, scal[:, None] * np.array([1.0, 2.0, 0.0]))
    with pytest.raises(ScenarioError, match="wrong number"):
        forcing({"kind": "nodal", "values": [1.0]})
    with pytest.raises(ScenarioError, match="unknown kind"):
        forcing({"kind": "bump"})


def test_spec_densities_take_the_forcing_shape_rule():
    # one row of n values or one per knot; steps = 4 gives 5 knots
    for g in ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]] * 5):
        problem = line_scenario(3, forcing=g).problem
        assert np.array_equal(problem.forcing, np.array(g))
    two = line_scenario(3, family="lotka_volterra", initial=[0.5] * 6,
                        reaction={"kind": "lotka_volterra"},
                        forcing=[0.1] * 6)
    assert two.problem.forcing.shape == (6,)


def test_schedule_resolution():
    def schedule(**fields):
        return line_scenario(3, steps=50, **fields).values["schedule"]

    assert schedule() == default_eps_schedule(1.0, 50)
    assert schedule(schedule=[0.2, 0.05]) == [0.2, 0.05]
    with pytest.raises(ScenarioError, match="schedule"):
        schedule(schedule=[])
    for bad, match in [([0.05, 0.2], "decrease"), ([0.2, 0.2], "decrease"),
                       ([1.5, 0.1], r"\(0, T\)"), ([0.2, 0.0], r"\(0, T\)"),
                       (["fast"], "expected a number"),
                       (0.2, "'auto' or a list")]:
        with pytest.raises(ScenarioError, match=match) as info:
            schedule(schedule=bad)
        assert str(info.value).startswith("field 'schedule': ")


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def test_trajectory_to_csv_layout():
    g = line_grid(3, spacing=1.0)
    traj = Trajectory(g, 1.0,
                      np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]))
    lines = trajectory_to_csv(traj).splitlines()
    assert lines[0] == "t,node_index,value"
    assert lines[1] == "0.0,0,0.0"
    assert lines[-1] == "1.0,2,5.0"
    alt = trajectory_to_csv(traj, header="component_index")
    assert alt.splitlines()[0] == "t,component_index,value"


def _per_value_csv(traj, header="node_index", column=None) -> str:
    """trajectory_to_csv's text, one f-string and repr per value."""
    tails = [f",{repr(float(c))}" for c in column[1]] if column \
        else [""] * len(traj.values)
    rows = [f"{repr(float(t))},{i},{repr(float(v))}{tails[n]}"
            for n, t in enumerate(traj.times)
            for i, v in enumerate(traj.values[n])]
    head = f"t,{header},value" + (f",{column[0]}" if column else "")
    return "\n".join([head] + rows) + "\n"


def _nan(payload: int, sign: int = 0) -> float:
    """A quiet NaN with the given mantissa payload and sign bit."""
    bits = (sign << 63) | 0x7FF8000000000000 | payload
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _csv_cases() -> dict:
    """name -> (trajectory, header, column) of the writer's edge cases."""
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-300, 300,
                                                              (6, 4))
    wide[2, 1], wide[3, 0] = -0.0, 5e-324
    # a small pool: values repeat inside each knot and across knots
    pool = np.array([0.25, -1.5, 1.0 / 3.0, 2.0 ** -40, 7.0])
    repeated = pool[rng.integers(0, pool.size, (5, 12))]
    repeated[3] = repeated[1]
    # both zeros in one knot, each order: a dedupe keyed by value, not by
    # bits, writes one of them for both
    zeros = [[0.0, -0.0, 1.0, 0.0], [-0.0, 0.0, -0.0, 1.0]]
    special = [[np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.0],
               [_nan(1), _nan(0, 1), _nan(12345, 1), np.inf, 5e-324,
                np.nan]]
    # where repr switches between positional and exponent form
    switch = [1e16, 9999999999999998.0, 1e-4, 9.9e-5]
    switch = [switch + [-v for v in switch],
              [1e15, 1e17, 0.0001, 0.00011, 9.999e-05, 1e22, 1e-5, 1.0]]
    # 2D data invariant along the second axis
    g = build_grid(dim=2, shape=(5, 4), spacing=(0.25, 1.0 / 3.0),
                   boundary="neumann", domain_kind="rectangle")
    x = np.cos(np.pi * g.coords()[:, 0])
    return {
        "wide_magnitudes": (Trajectory(line_grid(4), 0.7, wide), None, None),
        "repeated": (Trajectory(line_grid(12), 2.0, repeated), None, None),
        "signed_zeros": (Trajectory(line_grid(4), 1.0, zeros), None, None),
        "non_finite": (Trajectory(line_grid(6), 1.0, special), None, None),
        "exponent_switch": (Trajectory(line_grid(8), 1.0, switch), None,
                            None),
        # two components per node, N = 1, the other header and a column
        "components_n1": (
            Trajectory(line_grid(3), 0.3, rng.standard_normal((2, 6))),
            "component_index", ("jump_magnitude", [0.0, 0.1 + 0.2])),
        "invariant_2d": (Trajectory(g, 1.0, np.outer([1.0, 0.5, -0.25], x)),
                         None, None),
    }


CSV_CASES = _csv_cases()


@cache
def _scenario_trajectories() -> dict:
    """name -> (trajectory, header, column) of every trajectory that the
    bundled scenarios write: each final trajectory and each ordered
    pair's members."""
    written = {}

    def recording(traj, header="node_index", column=None):
        text = trajectory_to_csv(traj, header, column)
        written[f"{name}:{len(written)}"] = (traj, header, column)
        return text

    with tempfile.TemporaryDirectory() as out, \
            mock.patch.dict(os.environ, {"WEDFLOW_OUT": out}), \
            mock.patch.object(runner, "trajectory_to_csv", recording), \
            mock.patch.object(wedflow.rateind, "trajectory_to_csv",
                              recording), \
            contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(bundled_scenarios()):
            assert main(["run", name]) == 0, name
    return written


@pytest.mark.parametrize("with_column", [False, True])
def test_trajectory_to_csv_reprs_every_float(with_column):
    cases = {**CSV_CASES, **_scenario_trajectories()}
    for case, (traj, header, column) in cases.items():
        if column is None and with_column:
            column = ("c", np.linspace(-1.0, 1.0, traj.steps + 1) / 3.0)
        header = header or "node_index"
        assert trajectory_to_csv(traj, header, column) == \
            _per_value_csv(traj, header, column), case


def test_json_ready_is_deterministic():
    payload = _json_ready({
        "b": 1.5,
        "wall_time": 2.25,
        "a": {"arr": np.array([1.0, 0.5]), "flag": np.bool_(True),
              "n": np.int64(3), "wall_time": 0.1},
    })
    assert "wall_time" not in payload
    assert payload["b"] == "1.5"
    inner = payload["a"]
    assert inner["arr"] == ["1.0", "0.5"]
    assert inner["flag"] is True
    assert inner["n"] == 3
    assert "wall_time" not in inner
    json.dumps(payload)


def test_output_dir_resolution(tmp_path, monkeypatch):
    sc = Scenario.from_dict({**MINIMAL, "name": "demo"})
    monkeypatch.delenv("WEDFLOW_OUT", raising=False)
    assert output_dir_for(sc) == Path("wedflow_out") / "demo"
    monkeypatch.setenv("WEDFLOW_OUT", str(tmp_path / "moved"))
    assert output_dir_for(sc) == tmp_path / "moved" / "demo"
    sc.config["output_dir"] = str(tmp_path / "explicit")
    assert output_dir_for(sc) == tmp_path / "explicit"


# ---------------------------------------------------------------------------
# run: exit codes and artifacts
# ---------------------------------------------------------------------------

def test_run_exit_two_on_missing_or_malformed(tmp_path, capsys):
    assert run(tmp_path / "nope.json") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(bad) == 2
    out = capsys.readouterr().out
    assert "configuration error" in out


def test_run_small_scenario_artifacts(tmp_path):
    out = tmp_path / "out"
    sc = Scenario.from_dict(heat_scenario(out))
    assert run(sc) == 0
    for name in ("effective_config.json", "reports.json", "summary.txt",
                 "trajectory.csv"):
        assert (out / name).exists()
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["name"] == "tiny_heat"
    assert effective["seed"] == 0
    assert effective["rmaps"] == []
    assert "output_dir" not in effective
    reports = json.loads((out / "reports.json").read_text())
    assert reports["converged"] is True
    float(reports["strong_residual"])
    for line in (out / "summary.txt").read_text().splitlines():
        assert line.endswith("pass")


def test_run_writes_comparison_artifacts(tmp_path):
    out = tmp_path / "out"
    sc = Scenario.from_dict(heat_scenario(out, compare_v0=1.5))
    assert run(sc) == 0
    assert (out / "pair_u.csv").exists()
    assert (out / "pair_v.csv").exists()
    reports = json.loads((out / "reports.json").read_text())
    assert float(reports["comparison"]["ordering_margin"]) >= -1e-10


def test_run_is_bitwise_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(Scenario.from_dict(heat_scenario(out_a,
                                                compare_v0=1.5))) == 0
    assert run(Scenario.from_dict(heat_scenario(out_b,
                                                compare_v0=1.5))) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_exit_one_on_incompatible_map(tmp_path):
    out = tmp_path / "out"
    sc = Scenario.from_dict(heat_scenario(
        out,
        initial=1.0,
        forcing={"kind": "nodal", "values": [0.9, 0.0, 0.0, 0.0, 0.0]},
        rmaps=[{"kind": "rigid", "permutation": [4, 3, 2, 1, 0]}]))
    assert run(sc) == 1
    assert (out / "map_report.json").exists()
    report = json.loads((out / "map_report.json").read_text())
    assert report["passed"] is False
    assert any(n.startswith("compat:") for n in report["notes"])
    summary = (out / "summary.txt").read_text()
    assert "FAIL" in summary


def test_run_exit_three_when_solver_aborts(tmp_path, monkeypatch):
    import wedflow.runner as runner_mod
    real = runner_mod.eps_continuation

    def sabotaged(*args, **kwargs):
        cont = real(*args, **kwargs)
        cont.aborted = True
        return cont

    monkeypatch.setattr(runner_mod, "eps_continuation", sabotaged)
    out = tmp_path / "out"
    assert run(Scenario.from_dict(heat_scenario(out))) == 3
    reports = json.loads((out / "reports.json").read_text())
    assert reports["converged"] is False
    assert (out / "summary.txt").read_text().splitlines()[-1].endswith("FAIL")


def test_run_lv_rejects_comparison(tmp_path):
    path = tmp_path / "lv_bad.json"
    path.write_text(json.dumps({
        "name": "lv_bad", "family": "lotka_volterra", "T": 1.0,
        "steps": 8, "schedule": [0.2],
        "grid": {"shape": 3, "spacing": 0.5},
        "energy": {"kind": "lv_quadratic", "D1": 0.1, "D2": 0.1},
        "reaction": {"kind": "lotka_volterra", "A": 1.0, "K": 2.0,
                     "B": 0.5, "C": 0.5, "E": 0.1},
        "initial": {"kind": "pair", "u": 0.5, "v": 0.25},
        "compare_v0": 1.0,
        "output_dir": str(tmp_path / "out"),
    }))
    assert run(path) == 2


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def test_verify_gradients_suite():
    report = verify("gradients")
    assert report["suite"] == "gradients"
    assert report["passed"]
    for check in report["checks"].values():
        assert check["passed"]
        assert isinstance(check["margin"], float)


def _boundary_energy(U, boundary, m):
    if boundary == "dirichlet":
        zero = np.zeros((len(U), 1))
        U = np.hstack([zero, U, zero])
    return np.sum(np.abs(np.diff(U, axis=1)) ** m, axis=1)


def _per_sample_rearrangement(seed):
    """The rearrangement suite's random-sample margins, one sample and one
    row at a time, as the suite computed them before it worked on
    stacks."""
    rng = np.random.default_rng(seed)
    kinds = ("monotone", "symmetric_decreasing")
    worst = {k: np.inf for k in
             ("norm", "hardy_littlewood", "nonexpansive", "polya_szego")}
    grids = {n: build_grid(dim=1, shape=(n,), spacing=(1.0,),
                           boundary="neumann") for n in range(3, 65)}
    for _ in range(1000):
        n = int(rng.integers(3, 65))
        grid = grids[n]
        u = rng.random(n) * 2.0
        v = rng.random(n) * 2.0
        for kind in kinds:
            ru, rv = rearrange(grid, np.stack([u, v]), kind)
            worst["norm"] = min(worst["norm"], -float(np.max(np.abs(
                np.sort(ru) - np.sort(np.maximum(u, 0.0))))))
            worst["hardy_littlewood"] = min(
                worst["hardy_littlewood"], float(ru @ rv - u @ v))
            for J in (np.abs, np.square):
                worst["nonexpansive"] = min(
                    worst["nonexpansive"],
                    float(np.sum(J(u - v)) - np.sum(J(ru - rv))))
            bnd = "dirichlet" if kind == "symmetric_decreasing" \
                else "neumann"
            for m in (2.0, 3.0):
                worst["polya_szego"] = min(
                    worst["polya_szego"],
                    float(_boundary_energy(u[None, :], bnd, m)[0]
                          - _boundary_energy(ru[None, :], bnd, m)[0]))
    return worst


@cache
def _exhaustive_rearrangement():
    """The suite's exhaustive margins as it computed them before it shared
    one Gram block between the two kinds; they depend on no seed."""
    kinds = ("monotone", "symmetric_decreasing")
    hl_worst = ps_worst = np.inf
    for n in range(3, 8):
        grid = build_grid(dim=1, shape=(n,), spacing=(1.0,),
                          boundary="neumann")
        U = np.array(list(product((0.0, 1.0, 2.0), repeat=n)))
        for kind in kinds:
            RU = rearrange(grid, U, kind)
            for lo in range(0, U.shape[0], 256):
                block = slice(lo, lo + 256)
                hl_worst = min(hl_worst, float(np.min(
                    RU[block] @ RU.T - U[block] @ U.T)))
            bnd = "dirichlet" if kind == "symmetric_decreasing" \
                else "neumann"
            for m in (2.0, 3.0):
                ps_worst = min(ps_worst, float(np.min(
                    _boundary_energy(U, bnd, m)
                    - _boundary_energy(RU, bnd, m))))
    return {"hardy_littlewood_exhaustive": hl_worst,
            "polya_szego_exhaustive": ps_worst}


@pytest.mark.parametrize("seed", range(8))
def test_stacked_rearrangement_suite_matches_the_per_sample_loop(seed):
    ref = _per_sample_rearrangement(seed) | _exhaustive_rearrangement()
    report = verify("rearrangement", seed)
    assert list(report["checks"]) == list(ref)
    for key, margin in ref.items():
        got = report["checks"][key]
        assert got["margin"] == margin
        assert got["passed"] == (margin >= -1e-12)
    assert report["passed"] == all(m >= -1e-12 for m in ref.values())


@pytest.mark.parametrize("n", range(3, 8))
def test_fused_exhaustive_product_is_the_three_product_form(n):
    # [RU, U] @ [RU, -U]^T against RU RU^T - U U^T, as the suite blocks
    # them: entries 0, 1 and 2 make every dot an exact small integer
    grid = build_grid(dim=1, shape=(n,), spacing=(1.0,), boundary="neumann")
    U = np.array(list(product((0.0, 1.0, 2.0), repeat=n)))
    for kind in ("monotone", "symmetric_decreasing"):
        RU = rearrange(grid, U, kind)
        left, right = np.hstack([RU, U]), np.hstack([RU, -U]).T
        for lo in range(0, len(U), 256):
            block = slice(lo, lo + 256)
            fused = left[block] @ right
            three = RU[block] @ RU.T - U[block] @ U.T
            assert fused.tobytes() == three.tobytes()


@pytest.mark.parametrize("kind", ["monotone", "symmetric_decreasing"])
@pytest.mark.parametrize("n", range(3, 8))
def test_exhaustive_gram_margin_is_exact_in_float32(n, kind):
    # every partial sum is an integer in [-28, 28], so the float32 product
    # the suite runs gives the float64 margin
    grid = build_grid(dim=1, shape=(n,), spacing=(1.0,), boundary="neumann")
    U = np.array(list(product((0.0, 1.0, 2.0), repeat=n)))
    RU = rearrange(grid, U, kind)
    double = min(float(np.min(RU[lo:lo + 256] @ RU.T - U[lo:lo + 256] @ U.T))
                 for lo in range(0, len(U), 256))
    single = runner._gram_margin(RU, U)
    assert type(single) is float and single == double == 0.0


def _submodularity_loop(seed):
    """`verify submodularity`'s margins with one _random_walk per walk, as
    the suite drew and summed them before it filled one block."""
    rng = np.random.default_rng(seed)
    grid = build_grid(dim=1, shape=(6,), spacing=(0.5,),
                      boundary="dirichlet")
    margins = {}
    for name, e1 in (
            ("quadratic", EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0)),
            ("m_laplace", EnergySpec(kind="m_laplace", m=3.0, B=1.0, C=0.5)),
            ("fractional", EnergySpec(kind="fractional", s=0.5,
                                      gamma=0.0))):
        problem = WedProblem(grid=grid, dissipation=DissipationSpec(p=2.0),
                             energy1=e1, energy2=ConcaveSpec(),
                             reaction=ReactionSpec(), T=1.0, epsilon=0.3,
                             initial=np.zeros(6))
        pairs = []
        for _ in range(500):
            base = rng.random(6)
            other = base + rng.random(6)
            pairs.append((runner._random_walk(rng, base, 5),
                          runner._random_walk(rng, other, 5)))
        U, V = (np.stack(member) for member in zip(*pairs))
        margins[name] = float(np.min(submodularity_check(problem, U, V)))
    return margins


@pytest.mark.parametrize("seed", range(8))
def test_submodularity_suite_is_the_random_walk_loop(seed):
    report = verify("submodularity", seed)
    ref = _submodularity_loop(seed)
    assert list(report["checks"]) == list(ref)
    for name, margin in ref.items():
        assert report["checks"][name]["margin"] == margin


def _scaled_up(grid, rows, kind, *args):
    return rearrange(grid, rows, kind, *args) * (1.0 + 1e-9)


def _largest_at_the_boundary(grid, rows, kind, *args):
    out = rearrange(grid, rows, kind, *args)
    if kind == "symmetric_decreasing":
        r, top = np.arange(len(out)), np.argmax(out, axis=1)
        out[r, 0], out[r, top] = out[r, top], out[r, 0]
    return out


@pytest.mark.parametrize("mutant, caught", [
    (_scaled_up, "norm"),
    (_largest_at_the_boundary, "polya_szego"),
])
def test_rearrangement_suite_catches_a_wrong_rearrangement(monkeypatch,
                                                          mutant, caught):
    monkeypatch.setattr(runner, "rearrange", mutant)
    report = verify("rearrangement")
    assert report["passed"] is False
    assert report["checks"][caught]["passed"] is False


def _one_nan_at_length_40(grid, rows, kind, **options):
    """rearrange, but for one NaN in the first row of length 40."""
    out = rearrange(grid, rows, kind, **options)
    if rows.shape[1] == 40:
        out[0, 0] = np.nan
    return out


def test_rearrangement_suite_fails_a_nan_margin(monkeypatch):
    # a plain min fold drops the NaN: the suite then passed at seed 0
    # with every margin 0.0
    monkeypatch.setattr(runner, "rearrange", _one_nan_at_length_40)
    report = verify("rearrangement", seed=0)
    assert report["passed"] is False
    for key in ("norm", "hardy_littlewood", "nonexpansive", "polya_szego"):
        check = report["checks"][key]
        assert np.isnan(check["margin"]) and check["passed"] is False
    assert report["checks"]["polya_szego_exhaustive"]["passed"] is True


def test_gradients_suite_fails_a_nan_value(monkeypatch):
    # a NaN functional value makes every finite difference NaN, which a
    # plain max fold dropped: the suite passed with margins of 1e-6
    real = runner.energy1_value_grad

    def nan_value(spec, grid, u, *args, **kwargs):
        value, grad = real(spec, grid, u, *args, **kwargs)
        return (np.nan if np.ndim(value) == 0 else value), grad

    monkeypatch.setattr(runner, "energy1_value_grad", nan_value)
    report = verify("gradients", seed=0)
    assert report["passed"] is False
    for kind in ("quadratic", "m_laplace", "fractional"):
        assert np.isnan(report["checks"][f"energy_{kind}"]["margin"])


@pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf])
def test_a_non_finite_suite_margin_fails(margin):
    assert runner._check(margin, 1e-12)["passed"] is False
    assert runner._check(0.0, 1e-12)["passed"] is True


def test_lowest_margin_keeps_a_nan():
    assert np.isnan(runner._lowest(0.5, np.nan))
    assert np.isnan(runner._lowest(np.nan, -1.0))
    assert runner._lowest(0.5, -1.0) == -1.0
    assert runner._lowest(-1.0, 0.5) == -1.0


def _loaded_by_importing_the_cli(module: str) -> bool:
    """Whether a fresh interpreter has `module` loaded after importing
    wedflow.cli."""
    src = str(Path(wedflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, wedflow.cli; "
         f"print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_every_public_name_resolves():
    namespace = {}
    exec("from wedflow import *", namespace)
    assert len(set(wedflow.__all__)) == len(wedflow.__all__)
    for name in wedflow.__all__:
        assert namespace[name] is getattr(wedflow, name)


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # only the tests' oracle, wed.reference_solve, uses scipy.optimize
    assert not _loaded_by_importing_the_cli("scipy.optimize")


def test_importing_the_cli_leaves_scipy_csgraph_unloaded():
    # only the symmetric sparse solve of 2D grids finds components
    assert not _loaded_by_importing_the_cli("scipy.sparse.csgraph")


def test_verify_unknown_suite():
    with pytest.raises(ScenarioError, match="unknown suite"):
        verify("everything")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(out)
    assert "scalar_decay" in out
    assert "wide_oscillator" in out
    assert len(out) == len(bundled_scenarios()) == 7


def test_cli_verify_prints_json(capsys):
    assert main(["verify", "gradients"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "gradients"
    assert payload["passed"] is True


def test_cli_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "rearrangement", "--seed", "-1"]) == 2
    assert capsys.readouterr().out.startswith(
        "configuration error: field 'seed'")


def test_cli_run_unknown_name(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "configuration error" in capsys.readouterr().out


def test_cli_run_bundled_scenario(tmp_path, monkeypatch):
    monkeypatch.setenv("WEDFLOW_OUT", str(tmp_path))
    assert main(["run", "scalar_decay"]) == 0
    assert (tmp_path / "scalar_decay" / "summary.txt").exists()


def test_cli_run_bundled_scenario_leaves_no_temp_file(tmp_path,
                                                      monkeypatch):
    import tempfile
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)
    monkeypatch.setenv("WEDFLOW_OUT", str(tmp_path / "out"))
    assert main(["run", "scalar_decay"]) == 0
    assert list(tmp.iterdir()) == []


def _bundled(name: str, out_dir, **over) -> Path:
    """A file holding the bundled scenario name with the fields over,
    writing its artifacts to out_dir."""
    raw = json.loads(bundled_scenarios()[name])
    raw.update(over, output_dir=str(out_dir))
    path = Path(out_dir).parent / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("name, over", [
    ("wide_oscillator", {"rmaps": [{"kind": "bogus"}]}),
    ("lv_patch", {"compare_v0": 1.0}),
    ("heat_relaxation", {"grid": {"dim": 1, "shape": [2]}}),
    ("heat_relaxation", {"schedule": [0.2, 0.0]}),
    # maps that do not fit the lane, the state or the initial data
    ("wave_pulse", {"rmaps": [{"kind": "rigid", "permutation": [0, 1]}]}),
    ("wave_pulse", {"rmaps": [{"kind": "translation",
                               "permutation": [0] * 12}]}),
    ("wave_pulse", {"rmaps": [{"kind": "translation",
                               "permutation": list(range(1, 12)) + [0]}]}),
    ("wave_pulse", {"rmaps": [{"kind": "truncate_lower"}]}),
    ("wave_pulse", {"rmaps": [{"kind": "averaging"}], "initial": 0.5,
                    "f_coeffs": [0.0, 0.0, -0.05], "lam": -0.1}),
    ("wide_oscillator", {"rmaps": [{"kind": "lagrangian_affine"}]}),
    ("wide_oscillator", {"rmaps": [{"kind": "rigid", "permutation": [3]}]}),
    ("heat_relaxation", {"rmaps": [{"kind": "lagrangian_affine",
                                    "r": [[1.0]]}]}),
    ("heat_relaxation", {"rmaps": [{"kind": "compose", "parts": [
        {"kind": "translation", "permutation": [0]}]}]}),
    ("heat_relaxation", {"rmaps": [{"kind": "averaging", "axis": 2}]}),
    ("heat_relaxation", {"rmaps": [{"kind": "steiner", "axis": -1}]}),
    ("heat_relaxation", {"rmaps": [{"kind": "monotone", "direction": 0}]}),
    ("wide_oscillator", {"rmaps": [{"kind": "lagrangian_affine",
                                    "r": [[1.0, 0.0], [0.0]]}]}),
    # fields the lane or the kind does not use
    ("wave_pulse", {"rmaps": [{"kind": "averaging", "axis": 1}],
                    "initial": 0.5}),
    ("wave_pulse", {"rmaps": [{"kind": "rigid",
                               "permutation": list(range(11, -1, -1)),
                               "enforcement": "posthoc"}], "initial": 0.5}),
    ("wave_pulse", {"rmaps": [{"kind": "rigid",
                               "permutation": list(range(11, -1, -1)),
                               "shift": [0.0] * 12}], "initial": 0.5}),
    ("wide_oscillator", {"rmaps": [{"kind": "rigid", "permutation": [0],
                                    "r": [[1.0]]}]}),
    ("heat_relaxation", {"rmaps": [{"kind": "rigid",
                                    "permutation": list(range(15, -1, -1)),
                                    "r": [[1.0]]}], "initial": 1.0}),
    ("heat_relaxation", {"rmaps": [{"kind": "compose", "parts": [
        {"kind": "positive_part", "shift": [0.0]}]}]}),
    # malformed states
    ("heat_relaxation", {"initial": "abc"}),
    ("heat_relaxation", {"initial": {"kind": "constant"}}),
    ("heat_relaxation", {"initial": {"kind": "values", "values": ["a"]}}),
    ("ri_ramp", {"compare_v0": "abc"}),
    # rate-independent coefficients that are not finite numbers
    ("ri_ramp", {"a": "x"}),
    ("ri_ramp", {"phi_coeffs": ["a"]}),
    ("ri_ramp", {"phi_coeffs": [0.0, 0.0, float("nan")]}),
    # a coefficient whose derivative overflows
    ("ri_ramp", {"phi_coeffs": [0.0, 0.0, 1e308]}),
    # malformed forcing
    ("ri_ramp", {"forcing": "abc"}),
    ("ri_ramp", {"forcing": {"kind": "nodal"}}),
    ("ri_ramp", {"forcing": {"kind": "piecewise_linear_time",
                             "points": "x"}}),
])
def test_rejected_scenario_writes_no_artifact(tmp_path, name, over):
    out = tmp_path / "out"
    assert run(_bundled(name, out, **over)) == 2
    assert not out.exists() or not any(out.iterdir())


def test_wave_with_a_large_growth_exponent_runs(tmp_path):
    # |s|^p overflows in the growth probe, and F = u^2/2 grows slower
    assert run(_bundled("wave_pulse", tmp_path / "out", p_growth=1e3)) == 0


@pytest.mark.parametrize("name, field, value", [
    ("heat_relaxation", "initial", "abc"),
    ("scalar_decay", "initial", {"kind": "constant"}),
    ("lv_patch", "initial", {"kind": "values", "values": ["a"]}),
    ("wave_pulse", "initial", {"kind": "pair", "u": 0.5}),
    ("heat_relaxation", "compare_v0", {"kind": "cosine", "mode": "x"}),
    ("ri_ramp", "compare_v0", "abc"),
    ("ri_ramp", "initial", [None]),
    ("wave_pulse", "velocity", "abc"),
    ("ri_ramp", "forcing", "abc"),
    ("ri_ramp", "forcing", {"kind": "nodal"}),
    ("ri_ramp", "forcing", {"kind": "piecewise_linear_time", "points": "x"}),
    ("ri_ramp", "forcing", [None]),
])
def test_malformed_state_names_its_field(tmp_path, capsys, name, field,
                                         value):
    out = tmp_path / "out"
    assert run(_bundled(name, out, **{field: value})) == 2
    assert capsys.readouterr().out.startswith(
        f"configuration error: field '{field}'")
    assert not out.exists()


@pytest.mark.parametrize("name, field, value", [
    # a JSON bool is not a number, though Python reads true as 1
    ("ri_ramp", "steps", True),
    ("heat_relaxation", "steps", True),
    ("ri_ramp", "seed", True),
    ("ri_ramp", "forcing", True),
    ("ri_ramp", "forcing", [True]),
    ("heat_relaxation", "initial", True),
    ("heat_relaxation", "initial", {"kind": "constant", "value": True}),
    ("ri_ramp", "initial", True),
    ("heat_relaxation", "compare_v0", True),
    ("ri_ramp", "compare_v0", False),
    # an unordered pair, in both lanes
    ("heat_relaxation", "compare_v0", 0.0),
    ("ri_ramp", "compare_v0", -1.0),
    # an unknown reaction kind
    ("lv_patch", "reaction", {"kind": "bogus", "A": 1.0, "K": 1.0}),
    # the inertial families' scalars and states
    ("wide_oscillator", "initial", True),
    ("wide_oscillator", "initial", {"kind": "cosine"}),
    ("wide_oscillator", "velocity", [False]),
    ("wide_oscillator", "d", True),
    ("wide_oscillator", "d", -1),
    ("wide_oscillator", "M", [[True]]),
    ("wide_oscillator", "nu", "abc"),
    ("wide_oscillator", "potential", {"kind": "quadratic", "Q": [[True]]}),
    ("wide_oscillator", "potential", [1.0]),
    ("wave_pulse", "rho", True),
    ("wave_pulse", "lam", False),
    ("wave_pulse", "nu", True),
    ("wave_pulse", "p_growth", True),
    ("wave_pulse", "f_coeffs", [0.0, 0.0, True]),
    # grid shapes and spacings that are not numbers
    *[("heat_relaxation", "grid", dict(HEAT_GRID, **{key: value}))
      for key in ("shape", "spacing") for value in ("abc", None, [3, "x"])],
    ("heat_relaxation", "grid", dict(HEAT_GRID, spacing=True)),
    ("heat_relaxation", "grid", dict(HEAT_GRID, dim=True)),
    ("heat_relaxation", "grid", 16),
    # a node count that is a fraction or a string, a spacing that is a
    # string: int() and float() would read each as a number
    ("heat_relaxation", "grid", dict(HEAT_GRID, shape=16.7)),
    ("heat_relaxation", "grid", dict(HEAT_GRID, shape=[16.9])),
    ("heat_relaxation", "grid", dict(HEAT_GRID, shape=["16"])),
    ("heat_relaxation", "grid", dict(HEAT_GRID, spacing=["0.0625"])),
    # a JSON string is not a number, though float() reads "0.2" as 0.2
    ("heat_relaxation", "schedule", ["0.2", "0.1"]),
    ("ri_ramp", "a", "0"),
    ("ri_ramp", "phi_coeffs", [0.0, 0.0, "0.5"]),
    ("ri_ramp", "phi_coeffs", [0.0, 0.0, True]),
    ("wide_oscillator", "nu", "0.5"),
    ("scalar_decay", "initial", {"kind": "constant", "value": "1.0"}),
    ("heat_relaxation", "initial", {"kind": "cosine", "base": "1.0"}),
    ("ri_ramp", "forcing", {"kind": "piecewise_linear_time",
                            "points": [[0.0, "0"], [1.0, 1.0]]}),
    # values that ran to exit 0 although they are wrong: a bool or NaN
    # coefficient, an energy that is not an object, a key no table has
    ("heat_relaxation", "energy", {"kind": "m_laplace", "m": 2.0, "B": True,
                                   "C": 0.0}),
    ("lv_patch", "reaction", {"kind": "lotka_volterra", "A": True, "K": 2.0}),
    ("lv_patch", "reaction", {"kind": "lotka_volterra", "A": float("nan"),
                              "K": 2.0}),
    ("wave_pulse", "lam", float("nan")),
    ("heat_relaxation", "energy", []),
    ("heat_relaxation", "grid", {"kind": "bogus"}),
    ("heat_relaxation", "bogus", 1.0),
    # values that ended in a traceback
    ("heat_relaxation", "energy", "abc"),
    ("heat_relaxation", "energy2", [None]),
    ("heat_relaxation", "energy", {"kind": "m_laplace", "B": []}),
    ("lv_patch", "seed", -1),
    ("lv_patch", "rmaps", [None]),
    ("lv_patch", "rmaps", ["x"]),
    ("wave_pulse", "f_coeffs", {"kind": "bogus"}),
    ("wave_pulse", "steps", 1),
    # array fields of the specs, which take the top-level forcing's shape
    # rule, and the rules that tie a reaction to its density and energy
    ("heat_relaxation", "reaction", {"kind": "lotka_volterra"}),
    ("heat_relaxation", "reaction", {"kind": "constant_g"}),
    ("heat_relaxation", "reaction", {"kind": "constant_g", "g": [1.0, 2.0]}),
    ("heat_relaxation", "reaction", {"kind": "constant_g", "g": [1.0]}),
    ("heat_relaxation", "reaction", {"kind": "constant_g",
                                     "g": [[1.0] * 16]}),
    ("heat_relaxation", "reaction", {"kind": "constant_g",
                                     "g": [[1.0] * 16] * 2}),
    ("heat_relaxation", "energy2", {"forcing": [1.0]}),
    # the shape rule takes no input form but lists
    ("heat_relaxation", "reaction", {"kind": "constant_g", "g": 1.0}),
    ("heat_relaxation", "energy2", {"forcing": {"kind": "nodal",
                                                "values": [1.0] * 16}}),
    # fields of the other terms, and the source's other spellings: the
    # fixed source is the top-level forcing, phi2 is energy2's two fields
    ("heat_relaxation", "energy", {"kind": "m_laplace",
                                   "forcing": [0.5] * 16}),
    ("heat_relaxation", "energy", {"kind": "m_laplace", "concave_q": 3.0}),
    ("heat_relaxation", "energy", {"kind": "none"}),
    ("heat_relaxation", "energy2", {"gamma": 5.0}),
    ("heat_relaxation", "energy2", {"forcing": [0.5] * 16}),
    ("heat_relaxation", "reaction", {"kind": "constant_g",
                                     "g": [0.5] * 16}),
    # a field that only another kind reads
    *[("heat_relaxation", "energy", {"kind": "m_laplace", key: value})
      for key, value in (("gamma", 5.0), ("s", 0.3), ("D1", 3.0),
                         ("exterior", False))],
    ("heat_relaxation", "reaction", {"kind": "none", "A": 2.0}),
    ("heat_relaxation", "reaction", {"E": 0.5}),
    ("heat_relaxation", "dissipation", {"p": 2.0, "table_s": [0.0, 1.0]}),
    ("heat_relaxation", "dissipation", {"alpha_kind": "power",
                                        "table_alpha": [0.0, 1.0]}),
    # a map's enforcement follows from its kind and level: no key sets it
    ("heat_relaxation", "rmaps", [{"kind": "positive_part",
                                   "enforcement": "posthoc"}]),
    ("lv_patch", "rmaps", [{"kind": "lv_clamp", "K": 1.0,
                            "enforcement": "posthoc"}]),
])
def test_bad_field_is_named_before_any_solve(tmp_path, capsys, monkeypatch,
                                             name, field, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the scenario was checked")

    for module in (wedflow.wed, wedflow.rateind, wedflow.wide):
        monkeypatch.setattr(module, "newton_solve", no_solve)
    out = tmp_path / "out"
    raw = json.loads(bundled_scenarios()[name])
    raw.update({field: value}, output_dir=str(out))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert run(str(path)) == 2
    assert capsys.readouterr().out.startswith(
        f"configuration error: field '{field}'")
    assert not out.exists()


# a valid value other than the base's of every field a WED spec takes
NON_DEFAULT = {
    "energy": {"gamma": 0.7, "m": 3.0, "B": 0.5, "C": 0.3, "s": 0.3,
               "exterior": False, "D1": 0.5, "D2": 0.4, "F1": 0.3,
               "F2": 0.2},
    "dissipation": {"p": 3.0, "table_s": [-2.0, 3.0],
                    "table_alpha": [-1.0, 2.0]},
    "reaction": {"A": 2.0, "K": 1.5, "B": 0.3, "C": 0.2, "E": 0.5},
    "energy2": {"concave_q": 1.5, "concave_D": 0.4},
}


def _wed_spec_fields():
    """(family, key, base object, field) for every field the WED parse
    takes, per kind; the base object selects the kind."""
    two = {"family": "lotka_volterra",
           "reaction": {"kind": "lotka_volterra"}}
    for kind, names in runner._ENERGY_FIELDS.items():
        family = two if kind == "lv_quadratic" else {}
        yield from ((family, "energy", {"kind": kind}, f) for f in names)
    table = {"alpha_kind": "table", "table_s": [-1.0, 1.0],
             "table_alpha": [-1.0, 1.0]}
    for kind, names in runner._DISSIPATION_FIELDS.items():
        base = table if kind == "table" else {"alpha_kind": kind}
        yield from (({}, "dissipation", base, f) for f in names)
    # E divides the interaction term, which B and C scale
    lv = {"kind": "lotka_volterra", "B": 0.5, "C": 0.4}
    for kind, names in runner._REACTION_FIELDS.items():
        base = lv if kind == "lotka_volterra" else {"kind": kind}
        yield from ((two, "reaction", base, f) for f in names)
    yield from (({}, "energy2", {"concave_q": 3.0}, f)
                for f in runner._fields(wedflow.ConcaveSpec))


def test_every_wed_spec_field_is_read(monkeypatch):
    # one field set to a value other than the base's changes the
    # functional, the dual field or (the table kind's p, the exponent of
    # the norms) the strong residual on one fixed trajectory
    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(wedflow.wed, "newton_solve", no_solve)

    def outputs(fields):
        problem = line_scenario(5, initial=0.5, **fields).problem
        vals = 0.5 + np.random.default_rng(5).random((5, problem.n_dof))
        vals[0] = problem.initial
        traj = Trajectory(problem.grid, 1.0, vals)
        w = wedflow.dual_field(problem, traj)
        value, grad = wedflow.wed_value_grad(problem, w, traj)
        return (value, grad, w,
                wedflow.strong_solution_residual(traj, problem))

    cases = list(_wed_spec_fields()) + [({}, "forcing", None, None)]
    for family, key, base, field in cases:
        before = outputs({**family, key: base})
        value = 0.5 if key == "forcing" else NON_DEFAULT[key][field]
        after = outputs({**family, key: value if base is None
                         else {**base, field: value}})
        assert any(not np.array_equal(x, y) for x, y in zip(before, after)), \
            (key, base, field)
    # 11 energy (gamma in two kinds), 4 dissipation (p in two kinds), 5
    # reaction and 2 energy2 fields, and the forcing
    assert len(cases) == 23


JUNK = ("abc", None, [], {}, -1, float("nan"), [None], {"kind": "bogus"},
        True)


def _key_paths(value, prefix=()):
    """The path of every key of every object in a JSON value, and of the
    first element of every list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield prefix + (key,)
            yield from _key_paths(item, prefix + (key,))
    elif isinstance(value, list) and value:
        yield prefix + (0,)
        yield from _key_paths(value[0], prefix + (0,))


def test_every_one_field_mutation_parses_or_names_its_field(monkeypatch):
    # each bundled scenario with one key path set to one junk value; the
    # parse may accept it (a null field is absent, -1 may be in range) or
    # raise a ScenarioError naming the top-level field, nothing else
    def no_solve(*args, **kwargs):
        raise AssertionError("the parse solved")

    for module in (wedflow.wed, wedflow.rateind, wedflow.wide):
        monkeypatch.setattr(module, "newton_solve", no_solve)
    runs = 0
    for name, text in bundled_scenarios().items():
        raw = json.loads(text)
        for path in _key_paths(raw):
            for value in JUNK:
                mutant = copy.deepcopy(raw)
                node = mutant
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = copy.deepcopy(value)
                try:
                    Scenario.from_dict(mutant)
                except ScenarioError as exc:
                    message = str(exc)
                    assert message.startswith("field '") \
                        and f"field '{path[0]}'" in message, \
                        (name, path, value, message)
                runs += 1
    assert runs == 1638


@pytest.mark.parametrize("name", ["heat_relaxation", "ri_ramp"])
def test_bundled_pair_u_is_the_main_trajectory(tmp_path, name):
    out = tmp_path / "out"
    assert run(_bundled(name, out)) == 0
    assert (out / "pair_u.csv").read_bytes() == \
        (out / "trajectory.csv").read_bytes()


def test_heat_relaxation_newton_work(tmp_path, monkeypatch):
    # four levels of the main continuation and four of the pair's v
    # member; the pair's u member reuses the main continuation
    counts = count_newton(monkeypatch, wedflow.wed)
    assert run(_bundled("heat_relaxation", tmp_path / "out")) == 0
    assert counts == dict(solves=8, iterations=8, grads=16, rows=16,
                          repeats=0)


def test_lv_patch_fills_and_factors_once_per_level(tmp_path, monkeypatch):
    # p = 2 and the lv_quadratic energy: each of the two weight levels
    # fills one Hessian and factors it once for all its outer iterations
    filled, factored = [], []
    real_fill = wedflow.wed.energy1_hessian
    real_splu = wedflow._newton.splu

    def fill(*args, **kwargs):
        filled.append(None)
        return real_fill(*args, **kwargs)

    def factor(*args, **kwargs):
        factored.append(None)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(wedflow.wed, "energy1_hessian", fill)
    monkeypatch.setattr(wedflow._newton, "splu", factor)
    assert run(_bundled("lv_patch", tmp_path / "out")) == 0
    assert len(filled) == 2 and len(factored) == 2


@pytest.mark.parametrize("name, factorizations", [
    ("scalar_decay", 4), ("fractional_decay", 2), ("wave_pulse", 2),
    ("wide_oscillator", 3)])
def test_bundled_scenario_splu_count(tmp_path, monkeypatch, name,
                                     factorizations):
    # the other bundled scenarios that factor: lv_patch above, while
    # heat_relaxation and ri_ramp make no splu call
    factored = []
    real_splu = wedflow._newton.splu

    def factor(*args, **kwargs):
        factored.append(None)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(wedflow._newton, "splu", factor)
    assert run(_bundled(name, tmp_path / "out")) == 0
    assert len(factored) == factorizations


def test_bad_compose_part_is_named_once():
    with pytest.raises(ScenarioError) as info:
        line_scenario(5, rmaps=[{"kind": "compose",
                                 "parts": [{"kind": "bogus"}]}])
    assert str(info.value).count("field 'rmaps'") == 1
    assert "bogus" in str(info.value)


@pytest.mark.parametrize("name, module, function, which", [
    ("ri_ramp", "rateind", "minimize_wed_ri", 2),
    ("wide_oscillator", "wide", "minimize_wide", 2),
    # calls 1 and 2 solve the pair's first level; 3 is its second level
    ("heat_relaxation", "comparison", "fixed_point_solve", 3),
])
def test_run_exit_three_when_any_level_fails(tmp_path, monkeypatch, name,
                                             module, function, which):
    import importlib
    from dataclasses import replace
    mod = importlib.import_module(f"wedflow.{module}")
    real = getattr(mod, function)
    calls = []

    def patched(*args, **kwargs):
        state, report = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == which:
            report = replace(report, converged=False)
        return state, report

    monkeypatch.setattr(mod, function, patched)
    out = tmp_path / "out"
    assert run(_bundled(name, out)) == 3
    assert json.loads((out / "reports.json").read_text())["converged"] \
        is False
    assert (out / "summary.txt").read_text().splitlines()[-1].endswith("FAIL")


@pytest.mark.parametrize("over", [
    {"dissipation": {"p": 1.5}},
    {"dissipation": {"p": 3.0},
     "energy": {"kind": "m_laplace", "m": 3.0, "B": 1.0, "C": 0.0}},
], ids=["p1.5", "m3-p3"])
def test_fixed_point_of_an_unsolved_inner_problem_is_not_converged(
        tmp_path, over):
    # heat_relaxation with a concave part: at the first level the inner
    # solve makes no step and does not converge, so the outer update is
    # exactly 0; the level used to report a converged fixed point, the
    # initial state at every knot, with a strong residual of 2.3 (p = 1.5)
    # and 2.1 (m = 3, p = 3) where the bundled scenario has 0.087
    out = tmp_path / "out"
    assert run(_bundled("heat_relaxation", out,
                        energy2={"concave_q": 2, "concave_D": 0.3},
                        **over)) == 3
    assert json.loads((out / "reports.json").read_text())["converged"] \
        is False
    assert (out / "summary.txt").read_text().splitlines()[-1].split() \
        == ["converged", "False", "FAIL"]


@pytest.mark.parametrize("T", ["abc", None, True, 0.0, -1.0, float("inf"),
                               float("nan")])
def test_non_numeric_or_non_positive_T_is_a_configuration_error(
        tmp_path, capsys, T):
    raw = json.loads(bundled_scenarios()["scalar_decay"])
    raw.update(T=T, output_dir=str(tmp_path / "out"))
    with pytest.raises(ScenarioError, match="'T'"):
        Scenario.from_dict(raw)
    path = tmp_path / "scalar_decay.json"
    path.write_text(json.dumps(raw))
    assert run(path) == 2
    assert capsys.readouterr().out.startswith("configuration error:")
    assert not (tmp_path / "out").exists()


def test_rate_independent_rejects_maps(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(_bundled("ri_ramp", out, rmaps=[{"kind": "bogus"}])) == 2
    assert "configuration error: field 'rmaps'" in capsys.readouterr().out
    assert not out.exists()


def test_inertial_map_residual_is_reported(tmp_path):
    out = tmp_path / "out"
    assert run(_bundled("wide_oscillator", out,
                        rmaps=[{"kind": "averaging"}])) == 0
    reports = json.loads((out / "reports.json").read_text())
    assert float(reports["invariance_averaging"]) == 0.0


@pytest.mark.parametrize("energy", [{"B": -1.0}, {"C": -3.0},
                                    {"B": [1.0, 1.0, -0.5, 1.0, 1.0]}])
def test_non_convex_energy_is_a_configuration_error(tmp_path, capsys,
                                                    energy):
    raw = heat_scenario(tmp_path / "out")
    raw["energy"] = dict(raw["energy"], **energy)
    path = tmp_path / "tiny_heat.json"
    path.write_text(json.dumps(raw))
    assert run(path) == 2
    assert capsys.readouterr().out.startswith(
        "configuration error: field 'energy'")
    assert not (tmp_path / "out").exists()
