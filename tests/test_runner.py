"""Scenario parsing, artifact emission, exit codes, the named suites, and
the command line."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from wedflow import Scenario, ScenarioError, Trajectory, run, verify
from wedflow.cli import bundled_scenarios, main
from wedflow.runner import (_forcing_values, _initial_values, _json_ready,
                            _map_from_cfg, _schedule, output_dir_for,
                            trajectory_to_csv)
from wedflow.wed import default_eps_schedule

from conftest import line_grid


def heat_scenario(out_dir, **over):
    sc = {
        "name": "tiny_heat",
        "family": "doubly_nonlinear",
        "T": 1.0,
        "steps": 12,
        "schedule": [0.2, 0.1],
        "grid": {"nodes": 5, "spacing": 0.25},
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
    base = {"name": "x", "family": "doubly_nonlinear", "T": 1.0}
    with pytest.raises(ScenarioError, match="seed"):
        Scenario.from_dict({**base, "seed": "0"})
    with pytest.raises(ScenarioError, match="steps"):
        Scenario.from_dict({**base, "steps": 0})
    with pytest.raises(ScenarioError, match="rmaps"):
        Scenario.from_dict({**base, "rmaps": "reflect"})


def test_from_dict_fills_defaults():
    sc = Scenario.from_dict({"name": "x", "family": "doubly_nonlinear",
                             "T": 1.0})
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
    assert np.array_equal(_initial_values(2.0, g, 5), np.full(5, 2.0))
    assert np.array_equal(_initial_values([1, 2, 3, 4, 5], g, 5),
                          np.arange(1.0, 6.0))
    assert np.array_equal(
        _initial_values({"kind": "constant", "value": 0.5}, g, 5),
        np.full(5, 0.5))
    got = _initial_values({"kind": "cosine", "base": 1.0,
                           "amplitude": 0.3}, g, 5)
    assert np.allclose(got, 1.0 + 0.3 * np.cos(np.pi * x / x.max()))
    pair = _initial_values({"kind": "pair", "u": 0.5, "v": 1.5}, g, 10)
    assert np.array_equal(pair, np.concatenate([np.full(5, 0.5),
                                                np.full(5, 1.5)]))


def test_initial_values_errors():
    g = line_grid(5)
    with pytest.raises(ScenarioError, match="initial"):
        _initial_values(None, g, 5)
    with pytest.raises(ScenarioError, match="wrong number"):
        _initial_values([1.0, 2.0], g, 5)
    with pytest.raises(ScenarioError, match="unknown kind"):
        _initial_values({"kind": "chirp"}, g, 5)


def test_forcing_values():
    g = line_grid(3)
    assert _forcing_values(None, g, 1.0, 4, 3) is None
    assert np.array_equal(_forcing_values(0.3, g, 1.0, 4, 3),
                          np.full(3, 0.3))
    spec = {"kind": "piecewise_linear_time",
            "points": [[0.0, 0.0], [0.5, 1.5], [0.75, 0.5], [1.0, 0.5]],
            "profile": [1.0, 2.0, 0.0]}
    got = _forcing_values(spec, g, 1.0, 8, 3)
    t = np.linspace(0.0, 1.0, 9)
    scal = np.interp(t, [0.0, 0.5, 0.75, 1.0], [0.0, 1.5, 0.5, 0.5])
    assert got.shape == (9, 3)
    assert np.allclose(got, scal[:, None] * np.array([1.0, 2.0, 0.0]))
    with pytest.raises(ScenarioError, match="wrong number"):
        _forcing_values({"kind": "nodal", "values": [1.0]}, g, 1.0, 4, 3)
    with pytest.raises(ScenarioError, match="unknown kind"):
        _forcing_values({"kind": "bump"}, g, 1.0, 4, 3)


def test_schedule_resolution():
    sc = Scenario.from_dict({"name": "x", "family": "doubly_nonlinear",
                             "T": 1.0, "steps": 50})
    assert _schedule(sc) == default_eps_schedule(1.0, 50)
    sc.config["schedule"] = [0.2, 0.05]
    assert _schedule(sc) == [0.2, 0.05]
    sc.config["schedule"] = []
    with pytest.raises(ScenarioError, match="schedule"):
        _schedule(sc)
    sc.config["schedule"] = [0.05, 0.2]
    with pytest.raises(ScenarioError, match="decrease"):
        _schedule(sc)


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def test_trajectory_to_csv_layout():
    g = line_grid(3, spacing=1.0)
    traj = Trajectory(g, 1.0,
                      np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
                      pinned_initial=np.array([0.0, 1.0, 2.0]))
    lines = trajectory_to_csv(traj).splitlines()
    assert lines[0] == "t,node_index,value"
    assert lines[1] == "0.0,0,0.0"
    assert lines[-1] == "1.0,2,5.0"
    alt = trajectory_to_csv(traj, header="component_index")
    assert alt.splitlines()[0] == "t,component_index,value"


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
    sc = Scenario.from_dict({"name": "demo", "family": "doubly_nonlinear",
                             "T": 1.0})
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
    sc = Scenario.from_dict({
        "name": "lv_bad", "family": "lotka_volterra", "T": 1.0,
        "steps": 8, "schedule": [0.2],
        "grid": {"nodes": 3, "spacing": 0.5},
        "energy": {"kind": "lv_quadratic", "D1": 0.1, "D2": 0.1},
        "reaction": {"kind": "lotka_volterra", "A": 1.0, "K": 2.0,
                     "B": 0.5, "C": 0.5, "E": 0.1},
        "initial": {"kind": "pair", "u": 0.5, "v": 0.25},
        "compare_v0": 1.0,
        "output_dir": str(tmp_path / "out"),
    })
    assert run(sc) == 2


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


def _bundled(name: str, out_dir, **over) -> Scenario:
    raw = json.loads(bundled_scenarios()[name])
    raw.update(over, output_dir=str(out_dir))
    return Scenario.from_dict(raw)


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
])
def test_rejected_scenario_writes_no_artifact(tmp_path, name, over):
    out = tmp_path / "out"
    assert run(_bundled(name, out, **over)) == 2
    assert not out.exists() or not any(out.iterdir())


def test_bad_compose_part_is_named_once():
    with pytest.raises(ScenarioError) as info:
        _map_from_cfg({"kind": "compose", "parts": [{"kind": "bogus"}]},
                      inertial=False)
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
