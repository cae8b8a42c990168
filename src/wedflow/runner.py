"""Scenario configuration, orchestration, artifact emission, and the
named property suites behind the command line.

A scenario is one JSON document: a problem family, its parameters, an
optional list of solution-class maps, an optional comparison partner
state, the weight schedule, and seeds. `run` builds the problem, solves
along the schedule, evaluates the enabled property checks, and writes
deterministic artifacts (CSV trajectories, JSON reports, a plain-text
summary). Exit codes: 0 all checks pass, 1 a property check failed,
2 configuration could not be parsed, 3 the solver did not converge.

Artifacts never contain wall-clock times or machine identifiers, and all
floats are emitted through repr, so byte-identical reruns are part of the
contract rather than an accident.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace as dc_replace
from itertools import product as _iproduct
from pathlib import Path
from typing import Optional

import numpy as np

from .grids import (ConfigurationError, Field, Grid, Trajectory, build_grid,
                    rearrange, reflection_permutation, trajectory_to_csv)
from .energies import (DissipationSpec, EnergySpec, ReactionSpec,
                       _rowdot, energy1_value_grad)
from ._newton import with_pins
from .wed import (WedProblem, check_schedule, default_eps_schedule,
                  eps_continuation, euler_lagrange_residual,
                  strong_solution_residual, wed_value_grad)
from .qualitative import INERTIAL_KINDS, WED_KINDS, RMap, invariant_solve
from .comparison import (_check_ordered_initials, ordered_minimizers,
                         submodularity_check)
from .rateind import (RIProblem, energetic_residuals, ordered_ri_minimizers,
                      ri_continuation, sign_condition)
from .wide import (LagrangianProblem, WideWaveProblem,
                   equivariance_residual, hamiltonian_drift,
                   require_invariant_data, wide_continuation,
                   wide_invariance_residual, wide_trajectory,
                   wide_value_grad)

OUTPUT_ROOT_ENV = "WEDFLOW_OUT"

FAMILIES = ("doubly_nonlinear", "fractional_heat", "lotka_volterra",
            "rate_independent", "wide_wave", "lagrangian")

SUITES = ("rearrangement", "submodularity", "gradients", "invariance",
          "energetic", "wide")


class ScenarioError(ValueError):
    """Configuration rejected, with the offending field in the message."""


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "seed": 0,
    "steps": 64,
    "schedule": "auto",
    "rmaps": [],
    "compare_v0": None,
    "output_dir": None,
}


@dataclass
class Scenario:
    name: str
    family: str
    config: dict

    @staticmethod
    def from_dict(raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise ScenarioError("top level must be a JSON object")
        for key in ("name", "family", "T"):
            if key not in raw:
                raise ScenarioError(f"missing required field '{key}'")
        family = raw["family"]
        if family not in FAMILIES:
            raise ScenarioError(
                f"field 'family': unknown value {family!r}; "
                f"expected one of {', '.join(FAMILIES)}")
        T = raw["T"]
        if type(T) not in (int, float) or not (np.isfinite(T) and T > 0):
            raise ScenarioError("field 'T': must be a finite positive number")
        cfg = dict(_DEFAULTS)
        cfg.update(raw)
        if not _is_int(cfg["seed"]):
            raise ScenarioError("field 'seed': must be an integer")
        if not (_is_int(cfg["steps"]) and cfg["steps"] >= 1):
            raise ScenarioError("field 'steps': must be a positive integer")
        if not isinstance(cfg["rmaps"], list):
            raise ScenarioError("field 'rmaps': must be a list of maps")
        return Scenario(name=str(raw["name"]), family=family, config=cfg)

    @staticmethod
    def from_text(text: str) -> "Scenario":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
        return Scenario.from_dict(raw)

    @staticmethod
    def from_file(path) -> "Scenario":
        return Scenario.from_text(Path(path).read_text())


def _is_int(x) -> bool:
    """True for an integer that is not a bool (JSON true is not 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


# the object keys whose values are names, not numbers
_NAME_KEYS = ("kind", "boundary", "domain_kind")


def _reject_non_numbers(spec) -> None:
    """Raise ValueError where the numeric readers below would take spec,
    or a part of it, for a number it is not: a JSON true/false (Python
    reads true as 1.0) or a string (float reads "0.5" as 0.5), anywhere
    but as the value of a _NAME_KEYS key, which names a kind or a
    boundary and is checked by its reader."""
    if isinstance(spec, (bool, str)):
        raise ValueError(f"expected a number, not {json.dumps(spec)}")
    if isinstance(spec, dict):
        for key, value in spec.items():
            if key not in _NAME_KEYS:
                _reject_non_numbers(value)
    elif isinstance(spec, list):
        for item in spec:
            _reject_non_numbers(item)


def _numeric_field(cfg: dict, field: str, default, convert=float):
    """The scenario field `field` (default when absent) through convert;
    a JSON bool or a string where a number is read (see
    _reject_non_numbers), or a value convert rejects, is a configuration
    error naming the field."""
    value = cfg.get(field, default)
    try:
        _reject_non_numbers(value)
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"field '{field}': {exc}")


def _node_counts(shape) -> tuple:
    """A grid's shape, one node count or a list of them, as a tuple; each
    count must be a JSON integer (int() would take 16.7 for 16)."""
    counts = shape if isinstance(shape, list) else [shape]
    if not all(_is_int(n) for n in counts):
        raise ValueError(f"node counts must be integers, not "
                         f"{json.dumps(shape)}")
    return tuple(counts)


def _build_grid_cfg(cfg: dict) -> Grid:
    g = cfg.get("grid")
    if g is None:
        raise ScenarioError("missing required field 'grid'")
    if not isinstance(g, dict):
        raise ScenarioError("field 'grid': must be an object")
    try:
        _reject_non_numbers(g)
        return build_grid(dim=g.get("dim", 1),
                          shape=_node_counts(g.get("shape",
                                                   g.get("nodes", 3))),
                          spacing=tuple(np.atleast_1d(g.get("spacing", 1.0))),
                          boundary=g.get("boundary", "neumann"),
                          domain_kind=g.get("domain_kind", "interval"),
                          robin_b=g.get("robin_b", 0.0))
    except (TypeError, ValueError) as exc:  # ConfigurationError included
        raise ScenarioError(f"field 'grid': {exc}")


def _initial_values(spec, grid: Optional[Grid], n_dof: int,
                    field: str = "initial") -> np.ndarray:
    """The n_dof state values the scenario field `field` describes; grid
    is None for a state that lives on no grid (the Lagrangian family)."""
    if spec is None:
        raise ScenarioError(f"missing required field '{field}'")
    try:
        v = _state_values(spec, grid, n_dof)
    except KeyError as exc:
        raise ScenarioError(f"field '{field}': missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"field '{field}': {exc}")
    if not np.all(np.isfinite(v)):
        raise ScenarioError(f"field '{field}': values must be finite")
    return v


def _compare_values(spec, u0: np.ndarray, grid: Grid) -> np.ndarray:
    """The comparison partner state, checked against u0 before any solve:
    same size, and u0 <= v0 at every node."""
    v0 = _initial_values(spec, grid, u0.size, "compare_v0")
    try:
        _check_ordered_initials(u0, v0)
    except ConfigurationError as exc:
        raise ScenarioError(f"field 'compare_v0': {exc}")
    return v0


def _state_values(spec, grid: Optional[Grid], n_dof: int) -> np.ndarray:
    _reject_non_numbers(spec)
    if isinstance(spec, (int, float)):
        return np.full(n_dof, float(spec))
    if isinstance(spec, list):
        v = np.asarray(spec, dtype=float).ravel()
        if v.size != n_dof:
            raise ValueError("wrong number of values")
        return v
    if not isinstance(spec, dict):
        raise ValueError(f"expected a number, a list of numbers or an "
                         f"object with a 'kind', not {spec!r}")
    kind = spec.get("kind")
    if kind == "constant":
        return np.full(n_dof, float(spec["value"]))
    if kind == "values":
        v = np.asarray(spec["values"], dtype=float).ravel()
        if v.size != n_dof:
            raise ValueError("wrong number of values")
        return v
    if kind in ("cosine", "sine_mode", "pair") and grid is None:
        raise ValueError(f"kind {kind!r} needs a grid")
    if kind == "cosine":
        x = grid.coords()[:, 0]
        L = max(float(np.max(x)), 1e-300)
        mode = float(spec.get("mode", 1.0))
        return (float(spec.get("base", 0.0))
                + float(spec.get("amplitude", 1.0))
                * np.cos(np.pi * mode * x / L))
    if kind == "sine_mode":
        x = grid.coords()[:, 0]
        L = float(np.max(x)) + grid.spacing[0]
        mode = float(spec.get("mode", 1.0))
        return float(spec.get("amplitude", 1.0)) \
            * np.sin(2.0 * np.pi * mode * x / L)
    if kind == "pair":
        u = _state_values(spec["u"], grid, grid.n_nodes)
        v = _state_values(spec["v"], grid, grid.n_nodes)
        return np.concatenate([u, v])
    raise ValueError(f"unknown kind {kind!r}")


def _forcing_values(spec, grid: Grid, T: float, steps: int,
                    n_dof: int) -> Optional[np.ndarray]:
    """None, one nodal density row, or an (N+1, n_dof) table."""
    if spec is None:
        return None
    try:
        f = _forcing_table(spec, T, steps, n_dof)
    except KeyError as exc:
        raise ScenarioError(f"field 'forcing': missing key {exc}")
    except (TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"field 'forcing': {exc}")
    if not np.all(np.isfinite(f)):
        raise ScenarioError("field 'forcing': values must be finite")
    return f


def _forcing_table(spec, T: float, steps: int, n_dof: int) -> np.ndarray:
    _reject_non_numbers(spec)
    if isinstance(spec, (int, float)):
        return np.full(n_dof, float(spec))
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if not isinstance(spec, dict):
        raise ValueError(f"expected a number, a list of numbers or an "
                         f"object with a 'kind', not {spec!r}")
    kind = spec.get("kind")
    if kind == "nodal":
        v = np.asarray(spec["values"], dtype=float).ravel()
        if v.size != n_dof:
            raise ValueError("wrong number of values")
        return v
    if kind == "piecewise_linear_time":
        pts = np.asarray(spec["points"], dtype=float)
        t = np.linspace(0.0, T, steps + 1)
        scalar = np.interp(t, pts[:, 0], pts[:, 1])
        profile = spec.get("profile")
        prof = np.ones(n_dof) if profile is None else \
            np.asarray(profile, dtype=float).ravel()
        return scalar[:, None] * prof[None, :]
    raise ValueError(f"unknown kind {kind!r}")


# the fields a map entry may carry besides its kind, per lane; r and
# shift belong to lagrangian_affine alone
_WED_MAP_KEYS = {"permutation", "level", "K", "axis", "direction", "parts",
                 "enforcement"}
_INERTIAL_MAP_KEYS = {"permutation", "r", "shift"}


def _map_from_cfg(m: dict, inertial: bool) -> RMap:
    """An RMap of one of the lane's kinds from one entry of the
    scenario's 'rmaps' list."""
    m = dict(m)
    kind = m.pop("kind", None)
    kinds, keys = ((INERTIAL_KINDS, _INERTIAL_MAP_KEYS) if inertial
                   else (WED_KINDS, _WED_MAP_KEYS))
    if kind != "lagrangian_affine":
        keys = keys - {"r", "shift"}
    try:
        if kind not in kinds:
            raise ConfigurationError(f"unknown map kind {kind!r}; expected "
                                     f"one of {', '.join(kinds)}")
        if set(m) - keys:
            raise ConfigurationError(f"{kind} map takes no "
                                     f"{', '.join(sorted(set(m) - keys))}")
        if "parts" in m:
            m["parts"] = tuple(_map_from_cfg(p, inertial) for p in m["parts"])
        for key, dtype in (("permutation", int), ("r", float),
                           ("shift", float)):
            if key in m:
                m[key] = np.asarray(m[key], dtype=dtype)
        return RMap(kind=kind, **m)
    except ScenarioError:  # a bad part, already named
        raise
    except (TypeError, ValueError) as exc:  # ConfigurationError included
        raise ScenarioError(f"field 'rmaps': {exc}")


def build_wed_problem(sc: Scenario) -> WedProblem:
    cfg = sc.config
    grid = _build_grid_cfg(cfg)
    T = float(cfg["T"])
    steps = cfg["steps"]
    try:
        diss = DissipationSpec(**cfg.get("dissipation", {"p": 2.0}))
    except (TypeError, ConfigurationError) as exc:
        raise ScenarioError(f"field 'dissipation': {exc}")
    default_kind = {"doubly_nonlinear": "m_laplace",
                    "fractional_heat": "fractional",
                    "lotka_volterra": "lv_quadratic"}[sc.family]
    e1raw = dict(cfg.get("energy", {}))
    e1raw.setdefault("kind", default_kind)
    try:
        e1 = EnergySpec(**e1raw)
    except (TypeError, ConfigurationError) as exc:
        raise ScenarioError(f"field 'energy': {exc}")
    n_dof = 2 * grid.n_nodes if e1.kind == "lv_quadratic" else grid.n_nodes
    e2raw = dict(cfg.get("energy2", {}))
    forcing = _forcing_values(cfg.get("forcing"), grid, T, steps, n_dof)
    if forcing is not None:
        e2raw["forcing"] = forcing
    e2raw.setdefault("kind", "quadratic")
    e2raw.setdefault("gamma", 0.0)
    rx = cfg.get("reaction")
    if rx is not None:
        try:
            rxd = dict(rx)
            if "g" in rxd:
                rxd["g"] = np.asarray(rxd["g"], dtype=float)
            reaction = ReactionSpec(**rxd)
        except (TypeError, ValueError) as exc:  # ConfigurationError included
            raise ScenarioError(f"field 'reaction': {exc}")
    elif sc.family == "lotka_volterra":
        raise ScenarioError("missing required field 'reaction'")
    else:
        reaction = ReactionSpec()
    init = _initial_values(cfg.get("initial"), grid, n_dof)
    eps = _schedule(sc)[0]
    try:
        return WedProblem(grid=grid, dissipation=diss, energy1=e1,
                          energy2=EnergySpec(**e2raw), reaction=reaction,
                          T=T, epsilon=eps, initial=init)
    except (TypeError, ConfigurationError) as exc:
        raise ScenarioError(str(exc))


def build_ri_problem(sc: Scenario) -> RIProblem:
    cfg = sc.config
    grid = _build_grid_cfg(cfg)
    T = float(cfg["T"])
    steps = cfg["steps"]
    forcing = _forcing_values(cfg.get("forcing"), grid, T, steps,
                              grid.n_nodes)
    if forcing is None:
        forcing = np.zeros((steps + 1, grid.n_nodes))
    if forcing.ndim == 1:
        forcing = np.tile(forcing, (steps + 1, 1))
    init = _initial_values(cfg.get("initial"), grid, grid.n_nodes)
    eps = _schedule(sc)[0]
    try:
        return RIProblem(grid=grid,
                         phi_coeffs=_numeric_field(
                             cfg, "phi_coeffs", (0.0, 0.0, 0.5), tuple),
                         a=_numeric_field(cfg, "a", 0.0), forcing=forcing,
                         T=T, epsilon=eps, initial=init)
    except ConfigurationError as exc:
        raise ScenarioError(str(exc))


def build_wide_problem(sc: Scenario):
    cfg = sc.config
    T = float(cfg["T"])
    eps = _schedule(sc)[0]
    try:
        if sc.family == "wide_wave":
            grid = _build_grid_cfg(cfg)
            return WideWaveProblem(
                grid=grid, rho=_numeric_field(cfg, "rho", 1.0),
                nu=_numeric_field(cfg, "nu", 0.0),
                f_coeffs=_numeric_field(cfg, "f_coeffs", (0.0,), tuple),
                lam=_numeric_field(cfg, "lam", 0.0),
                p_growth=_numeric_field(cfg, "p_growth", 2.0),
                T=T, epsilon=eps,
                initial=_initial_values(cfg.get("initial"), grid,
                                        grid.n_nodes),
                velocity=_initial_values(cfg.get("velocity", 0.0), grid,
                                         grid.n_nodes, "velocity"))
        d = _numeric_field(cfg, "d", 1, int)
        if d < 1:  # before np.eye(d) builds the default mass matrix
            raise ScenarioError("field 'd': must be a positive integer")
        M = _numeric_field(cfg, "M", np.eye(d).tolist(),
                           lambda v: np.asarray(v, dtype=float))
        pot = _numeric_field(cfg, "potential", {"kind": "quadratic"}, dict)
        return LagrangianProblem(
            d=d, M=M, nu=_numeric_field(cfg, "nu", 0.0),
            u_kind=pot.get("kind", "quadratic"), T=T, epsilon=eps,
            initial=_initial_values(cfg.get("initial"), None, d),
            velocity=_initial_values(cfg.get("velocity", 0.0), None, d,
                                     "velocity"),
            Q=None if pot.get("Q") is None
            else np.asarray(pot["Q"], dtype=float),
            u_coeffs=tuple(pot.get("coeffs", ())))
    except (TypeError, ConfigurationError) as exc:
        raise ScenarioError(str(exc))


def _schedule(sc: Scenario) -> list:
    cfg = sc.config
    raw = cfg.get("schedule", "auto")
    if raw == "auto":
        return default_eps_schedule(float(cfg["T"]), cfg["steps"])
    if not isinstance(raw, list):
        raise ScenarioError("field 'schedule': must be 'auto' or a list")
    try:
        _reject_non_numbers(raw)
        return check_schedule(raw, float(cfg["T"]))
    except (TypeError, ValueError) as exc:  # ConfigurationError included
        raise ScenarioError(f"field 'schedule': {exc}")


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------

def _json_ready(obj):
    """Deterministic JSON payload: floats through repr, arrays to lists,
    no wall-clock fields."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in sorted(obj.items())
                if k != "wall_time"}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(float(v)) for v in obj.ravel()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def output_dir_for(sc: Scenario) -> Path:
    if sc.config.get("output_dir"):
        return Path(sc.config["output_dir"])
    root = os.environ.get(OUTPUT_ROOT_ENV, "wedflow_out")
    return Path(root) / sc.name


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def run(path_or_scenario) -> int:
    """Execute one scenario and write its artifacts. Returns the exit
    status (0 ok, 1 property failure, 2 config error, 3 non-convergence)."""
    try:
        sc = path_or_scenario if isinstance(path_or_scenario, Scenario) \
            else Scenario.from_file(path_or_scenario)
        return _run_checked(sc)
    except (ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}")
        return 2


def _run_checked(sc: Scenario) -> int:
    """Parse the whole scenario, solve, then write every artifact at once,
    so a rejected scenario leaves no output behind."""
    effective = {"name": sc.name, "family": sc.family}
    effective.update(sc.config)
    effective.pop("output_dir", None)
    files = {"effective_config.json":
             json.dumps(_json_ready(effective), indent=2, sort_keys=True)
             + "\n"}

    summary = []
    reports = {}
    failed = False
    unconverged = False
    schedule = _schedule(sc)
    steps = sc.config["steps"]
    compare_v0 = sc.config["compare_v0"]

    if sc.family in ("doubly_nonlinear", "fractional_heat",
                     "lotka_volterra"):
        problem = build_wed_problem(sc)
        maps = [_map_from_cfg(m, inertial=False) for m in sc.config["rmaps"]]
        rmap = maps[0] if len(maps) == 1 else (
            RMap(kind="compose", parts=tuple(maps)) if maps else None)
        if compare_v0 is not None:
            if sc.family == "lotka_volterra":
                raise ScenarioError("field 'compare_v0': comparison needs "
                                    "a potential-form scenario")
            v0 = _compare_values(compare_v0, problem.initial, problem.grid)
        u_levels = ()
        if rmap is not None:
            try:
                res = invariant_solve(problem, rmap, steps,
                                      schedule=schedule,
                                      seed=sc.config["seed"])
            except ConfigurationError as exc:
                raise ScenarioError(f"field 'rmaps': {exc}")
            traj = res.trajectory
            unconverged = unconverged or res.continuation.aborted
            failed = failed or res.flagged
            reports["invariance_residual"] = res.residual
            reports["invariance_history"] = list(res.residual_history)
            summary.append(("invariance_residual", res.residual,
                            not res.flagged))
            files["map_report.json"] = res.report.to_json() + "\n"
        else:
            cont = eps_continuation(problem, schedule, steps)
            traj = cont.final
            unconverged = unconverged or cont.aborted
            # the converged levels are a prefix of the schedule; the pair
            # below solves with the same steps and tolerances
            u_levels = [(eps, t, rep) for (eps, t), rep
                        in zip(cont.family, cont.reports)]
        el = euler_lagrange_residual(problem, traj)
        reports["euler_lagrange"] = {
            "interior_max": el["interior_max"], "terminal": el["terminal"],
            "max": el["max"]}
        reports["strong_residual"] = strong_solution_residual(traj, problem)
        summary.append(("strong_residual", reports["strong_residual"], True))
        files["trajectory.csv"] = trajectory_to_csv(traj)

        if compare_v0 is not None:
            pair = ordered_minimizers(problem,
                                      Field(problem.grid, problem.initial),
                                      Field(problem.grid, v0),
                                      schedule, steps, u_levels=u_levels)
            unconverged = unconverged or not pair.converged
            reports["comparison"] = json.loads(pair.to_json())
            ok = pair.ordering_margin >= -1e-10 and pair.submodularity_ok
            failed = failed or not ok
            summary.append(("ordering_margin", pair.ordering_margin, ok))
            files["pair_u.csv"] = trajectory_to_csv(pair.u)
            files["pair_v.csv"] = trajectory_to_csv(pair.v)

    elif sc.family == "rate_independent":
        if sc.config["rmaps"]:
            raise ScenarioError("field 'rmaps': the rate_independent family "
                                "takes no maps")
        problem = build_ri_problem(sc)
        if compare_v0 is not None:
            v0 = _compare_values(compare_v0, problem.initial, problem.grid)
        fam = ri_continuation(problem, schedule)
        eps_last, traj, rep = fam[-1]
        unconverged = unconverged or not rep.converged
        # the certificate weights must match the weight level of the solve
        prob_last = dc_replace(problem, epsilon=eps_last)
        sign = sign_condition(prob_last, traj)
        en = energetic_residuals(traj, problem)
        reports["sign_condition"] = sign["worst_violation"]
        reports["stability"] = en.stability
        reports["balance"] = en.balance
        reports["stability_left"] = en.stability_left
        for name, val, bound in (("sign_condition",
                                  sign["worst_violation"], 1e-6),
                                 ("stability", en.stability, 1e-2),
                                 ("balance", en.balance, 1e-2)):
            ok = val <= bound
            failed = failed or not ok
            summary.append((name, val, ok))
        files["trajectory.csv"] = traj.to_csv()
        if compare_v0 is not None:
            pair = ordered_ri_minimizers(problem, problem.initial, v0,
                                         schedule=schedule, u_levels=fam)
            unconverged = unconverged or not pair.converged
            ok = pair.ordering_margin >= -1e-10
            failed = failed or not ok
            reports["comparison"] = {"ordering_margin": pair.ordering_margin,
                                     "audits": pair.audits}
            summary.append(("ordering_margin", pair.ordering_margin, ok))
            files["pair_u.csv"] = pair.u.to_csv()
            files["pair_v.csv"] = pair.v.to_csv()

    else:
        problem = build_wide_problem(sc)
        maps = [_map_from_cfg(m, inertial=True) for m in sc.config["rmaps"]]
        for rmap in maps:
            try:
                require_invariant_data(problem, rmap)
            except ConfigurationError as exc:
                raise ScenarioError(f"field 'rmaps': {exc}")
        fam = wide_continuation(problem, schedule, steps)
        _, traj, rep = fam[-1]
        unconverged = unconverged or not rep.converged
        drift = hamiltonian_drift(problem, traj)
        reports["hamiltonian_drift"] = drift
        summary.append(("hamiltonian_drift", drift, True))
        header = "component_index" if sc.family == "lagrangian" \
            else "node_index"
        files["trajectory.csv"] = trajectory_to_csv(traj, header)
        for rmap in maps:
            resid = wide_invariance_residual(rmap, traj)
            reports[f"invariance_{rmap.kind}"] = resid
            ok = resid <= 1e-7
            failed = failed or not ok
            summary.append((f"invariance_{rmap.kind}", resid, ok))

    reports["converged"] = not unconverged
    files["reports.json"] = json.dumps(_json_ready(reports), indent=2,
                                       sort_keys=True) + "\n"
    lines = [f"{name:<24} {repr(float(val)):<26} "
             f"{'pass' if ok else 'FAIL'}"
             for name, val, ok in summary]
    lines.append(f"{'converged':<24} {str(not unconverged):<26} "
                 f"{'pass' if not unconverged else 'FAIL'}")
    files["summary.txt"] = "\n".join(lines) + "\n"

    out = output_dir_for(sc)
    for name, text in files.items():
        _write(out / name, text)

    if unconverged:
        return 3
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_report(name: str, checks: dict) -> dict:
    return {"suite": name,
            "passed": all(c["passed"] for c in checks.values()),
            "checks": checks}


def _check(margin: float, tol: float) -> dict:
    return {"margin": float(margin), "passed": bool(margin >= -tol)}


def _ps_energy(U: np.ndarray, boundary: str, m: float) -> np.ndarray:
    """Row-wise sum of |nearest-neighbour difference|^m; dirichlet pads a
    zero on both sides, neumann uses interior differences only."""
    if boundary == "dirichlet":
        U = np.pad(U, ((0, 0), (1, 1)))
    return np.sum(np.abs(np.diff(U, axis=1)) ** m, axis=1)


def _verify_rearrangement(seed: int = 0) -> dict:
    """Rearrangement inequalities on 1000 random pairs (u, v) and on every
    word of a three-letter alphabet up to length 7. The random samples are
    drawn one at a time in the order (n, u, v) and only then grouped by n,
    so the rng stream is that of a per-sample loop while each length is
    rearranged and checked as one (k, n) stack."""
    rng = np.random.default_rng(seed)
    checks = {}
    kinds = ("monotone", "symmetric_decreasing")
    samples = {}
    for _ in range(1000):
        n = int(rng.integers(3, 65))
        u = rng.random(n) * 2.0
        v = rng.random(n) * 2.0
        samples.setdefault(n, []).append((u, v))
    worst = {k: np.inf for k in
             ("norm", "hardy_littlewood", "nonexpansive", "polya_szego")}
    for n, pairs in samples.items():
        grid = build_grid(dim=1, shape=(n,), spacing=(1.0,),
                          boundary="neumann")
        U, V = (np.array(rows) for rows in zip(*pairs))
        for kind in kinds:
            RU, RV = np.split(rearrange(grid, np.vstack([U, V]), kind), 2)
            bnd = "dirichlet" if kind == "symmetric_decreasing" \
                else "neumann"
            margins = {
                "norm": -np.max(np.abs(np.sort(RU, axis=1) - np.sort(
                    np.maximum(U, 0.0), axis=1)), axis=1),
                "hardy_littlewood": _rowdot(RU, RV) - _rowdot(U, V),
                "nonexpansive": [np.sum(J(U - V), axis=1)
                                 - np.sum(J(RU - RV), axis=1)
                                 for J in (np.abs, np.square)],
                "polya_szego": [_ps_energy(U, bnd, m) - _ps_energy(RU, bnd, m)
                                for m in (2.0, 3.0)],
            }
            for key, val in margins.items():
                worst[key] = min(worst[key], float(np.min(val)))
    for key, val in worst.items():
        checks[key] = _check(val, 1e-12)

    # exhaustive three-letter-alphabet oracles, all lengths up to 7; the
    # Gram matrix goes in blocks of 256 rows to bound the memory
    hl_worst = np.inf
    ps_worst = np.inf
    for n in range(3, 8):
        grid = build_grid(dim=1, shape=(n,), spacing=(1.0,),
                          boundary="neumann")
        U = np.array(list(_iproduct((0.0, 1.0, 2.0), repeat=n)))
        RUs = {kind: rearrange(grid, U, kind) for kind in kinds}
        for lo in range(0, U.shape[0], 256):
            block = slice(lo, lo + 256)
            gram = U[block] @ U.T
            for RU in RUs.values():
                hl_worst = min(hl_worst, float(np.min(
                    RU[block] @ RU.T - gram)))
        for kind, RU in RUs.items():
            bnd = "dirichlet" if kind == "symmetric_decreasing" \
                else "neumann"
            for m in (2.0, 3.0):
                ps_worst = min(ps_worst, float(np.min(
                    _ps_energy(U, bnd, m) - _ps_energy(RU, bnd, m))))
    checks["hardy_littlewood_exhaustive"] = _check(hl_worst, 1e-12)
    checks["polya_szego_exhaustive"] = _check(ps_worst, 1e-12)
    return _suite_report("rearrangement", checks)


def _random_walk(rng, start: np.ndarray, steps: int) -> np.ndarray:
    """The rows start, start + 0.3 z_1, ... of a Gaussian random walk,
    added knot by knot (np.cumsum adds in order along its axis)."""
    return np.cumsum(np.vstack([start, 0.3 * rng.standard_normal(
        (steps, start.size))]), axis=0)


def _verify_submodularity(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = {}
    energies = {
        "quadratic": EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0),
        "m_laplace": EnergySpec(kind="m_laplace", m=3.0, B=1.0, C=0.5),
        "fractional": EnergySpec(kind="fractional", s=0.5, gamma=0.0),
    }
    grid = build_grid(dim=1, shape=(6,), spacing=(0.5,),
                      boundary="dirichlet")
    steps = 5
    for name, e1 in energies.items():
        problem = WedProblem(
            grid=grid, dissipation=DissipationSpec(p=2.0), energy1=e1,
            energy2=EnergySpec(kind="quadratic", gamma=0.0),
            reaction=ReactionSpec(), T=1.0, epsilon=0.3,
            initial=np.zeros(6))
        pairs = []
        for _ in range(500):
            base = rng.random(6)
            other = base + rng.random(6)
            pairs.append((_random_walk(rng, base, steps),
                          _random_walk(rng, other, steps)))
        U, V = (np.stack(member) for member in zip(*pairs))
        checks[name] = _check(np.min(submodularity_check(problem, U, V)),
                              1e-10)
    return _suite_report("submodularity", checks)


def _fd_error(f, x: np.ndarray, g: np.ndarray, rng,
              h: float = 1e-6) -> float:
    """Relative error of g against central differences along five random
    unit directions."""
    worst = 0.0
    for _ in range(5):
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        fd = (f(x + h * d) - f(x - h * d)) / (2.0 * h)
        an = float(g @ d)
        worst = max(worst, abs(fd - an) / (1.0 + abs(an)))
    return worst


def _verify_gradients(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = {}
    grid = build_grid(dim=1, shape=(7,), spacing=(0.4,),
                      boundary="neumann")
    specs = {
        "quadratic": EnergySpec(kind="quadratic", gamma=1.3),
        "m_laplace": EnergySpec(kind="m_laplace", m=3.0, B=0.8, C=0.4),
        "fractional": EnergySpec(kind="fractional", s=0.5, gamma=0.2),
    }
    for name, spec in specs.items():
        u = rng.standard_normal(7)
        _, g = energy1_value_grad(spec, grid, u)
        err = _fd_error(lambda w: energy1_value_grad(spec, grid, w)[0],
                        u, g, rng)
        checks[f"energy_{name}"] = _check(1e-6 - err, 0.0)

    problem = WedProblem(
        grid=grid, dissipation=DissipationSpec(p=3.0),
        energy1=specs["m_laplace"],
        energy2=EnergySpec(kind="quadratic", gamma=0.0),
        reaction=ReactionSpec(), T=1.0, epsilon=0.2,
        initial=rng.standard_normal(7))
    steps = 6
    traj = Trajectory(grid, 1.0, _random_walk(rng, problem.initial, steps),
                      pinned_initial=problem.initial)
    w = np.zeros((steps + 1, 7))
    _, g = wed_value_grad(problem, w, traj)

    def value_of(flat):
        t = Trajectory(grid, 1.0, with_pins(problem.initial[None], flat),
                       pinned_initial=problem.initial)
        return wed_value_grad(problem, w, t)[0]

    err = _fd_error(value_of, traj.values[1:].ravel(), g[1:].ravel(), rng)
    checks["wed_functional"] = _check(1e-6 - err, 0.0)

    osc = LagrangianProblem(d=2, M=np.eye(2), nu=0.3, u_kind="quadratic",
                            T=1.0, epsilon=0.1,
                            initial=np.array([1.0, 0.5]),
                            velocity=np.array([0.0, 0.2]))
    N = 12
    dt = 1.0 / N
    base = np.vstack([osc.initial, osc.initial + dt * osc.velocity,
                      osc.initial + 0.1 * rng.standard_normal((N - 1, 2))])
    _, gw = wide_value_grad(osc, wide_trajectory(osc, base))

    def wide_value_of(flat):
        vals = with_pins(base[:2], flat)
        return wide_value_grad(osc, wide_trajectory(osc, vals))[0]

    err = _fd_error(wide_value_of, base[2:].ravel(), gw[2:].ravel(), rng)
    checks["wide_functional"] = _check(1e-5 - err, 0.0)
    return _suite_report("gradients", checks)


def _verify_invariance(seed: int = 0) -> dict:
    checks = {}
    grid = build_grid(dim=1, shape=(9,), spacing=(0.25,),
                      boundary="neumann")
    x = grid.coords()[:, 0]
    u0 = 1.0 + 0.5 * np.cos(np.pi * x / x.max())
    u0 = 0.5 * (u0 + u0[::-1])
    perm = reflection_permutation(grid)
    base = dict(grid=grid, dissipation=DissipationSpec(p=2.0),
                energy2=EnergySpec(kind="quadratic", gamma=0.0),
                reaction=ReactionSpec(), T=0.5, epsilon=0.1)
    heat = EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0)
    for name, e1 in (("heat", heat),
                     ("m_laplace", EnergySpec(kind="m_laplace", m=3.0,
                                              B=1.0, C=0.5))):
        problem = WedProblem(energy1=e1, initial=u0, **base)
        res = invariant_solve(problem, RMap(kind="rigid", permutation=perm),
                              steps=16, schedule=(0.1, 0.05), seed=seed)
        checks[f"reflection_{name}"] = _check(-res.residual, 1e-8)

    trunc0 = np.maximum(u0 - 1.0, 0.0)
    problem = WedProblem(energy1=heat, initial=trunc0, **base)
    res = invariant_solve(problem, RMap(kind="truncate_lower", level=0.0),
                          steps=16, schedule=(0.1, 0.05), seed=seed)
    checks["truncation_residual"] = _check(-res.residual, 1e-8)
    checks["truncation_sign"] = _check(
        float(np.min(res.trajectory.values)), 1e-10)

    comp = RMap(kind="compose", parts=(
        RMap(kind="truncate_lower", level=0.0),
        RMap(kind="rigid", permutation=perm)))
    problem = WedProblem(energy1=heat, initial=trunc0, **base)
    res = invariant_solve(problem, comp, steps=16, schedule=(0.1, 0.05),
                          seed=seed)
    checks["composition"] = _check(-res.residual, 1e-8)
    return _suite_report("invariance", checks)


def _ri_ramp_problem(eps: float = 0.2, steps: int = 200) -> RIProblem:
    grid = build_grid(dim=1, shape=(1,), spacing=(1.0,),
                      boundary="neumann", domain_kind="point")
    t = np.linspace(0.0, 1.0, steps + 1)
    h = np.interp(t, [0.0, 0.5, 0.75, 1.0], [0.0, 1.5, 0.5, 0.5])
    return RIProblem(grid=grid, phi_coeffs=(0.0, 0.0, 0.5), a=0.0,
                     forcing=h[:, None], T=1.0, epsilon=eps,
                     initial=np.zeros(1))


def ri_eps_schedule(steps: int = 200, T: float = 1.0,
                    start: float = 0.2) -> list:
    """Halving schedule stopped before the weight outruns the grid
    (below 1.25 dt the threshold behaviour degrades)."""
    dt = T / steps
    out = [start]
    while out[-1] * 0.5 >= 1.25 * dt - 1e-12:
        out.append(out[-1] * 0.5)
    return out


def incremental_oracle(problem: RIProblem) -> np.ndarray:
    """Stay/slide closed form for the single-node quadratic ramp: remain
    in place while |u - h| <= 1, else move to the nearest point at unit
    distance from the load."""
    h = problem.forcing[:, 0]
    u = np.zeros(problem.steps + 1)
    u[0] = problem.initial[0]
    for n in range(1, u.size):
        prev = u[n - 1]
        if abs(prev - h[n]) <= 1.0:
            u[n] = prev
        else:
            u[n] = h[n] - 1.0 if prev < h[n] else h[n] + 1.0
    return u


def _verify_energetic(seed: int = 0) -> dict:
    checks = {}
    steps = 200
    problem = _ri_ramp_problem(steps=steps)
    sched = ri_eps_schedule(steps)
    fam = ri_continuation(problem, sched)
    eps_last, traj, rep = fam[-1]
    oracle = incremental_oracle(problem)
    sup_err = float(np.max(np.abs(traj.values[:, 0] - oracle)))
    checks["oracle_sup_error"] = _check(5e-2 - sup_err, 0.0)
    sign = sign_condition(dc_replace(problem, epsilon=eps_last), traj)
    checks["sign_condition"] = _check(1e-6 - sign["worst_violation"], 0.0)
    en = energetic_residuals(traj, problem)
    checks["stability"] = _check(1e-2 - en.stability, 0.0)
    checks["balance"] = _check(1e-2 - en.balance, 0.0)
    pair = ordered_ri_minimizers(problem, np.zeros(1), 0.5 * np.ones(1),
                                 schedule=sched, u_levels=fam)
    checks["ordering"] = _check(pair.ordering_margin, 1e-10)
    checks["converged"] = _check(0.0 if rep.converged else -1.0, 1e-12)
    return _suite_report("energetic", checks)


def _verify_wide(seed: int = 0) -> dict:
    checks = {}
    osc = LagrangianProblem(d=1, M=np.eye(1), nu=0.0, u_kind="quadratic",
                            T=1.0, epsilon=0.04,
                            initial=np.array([1.0]),
                            velocity=np.array([0.0]))
    steps = 200
    fam = wide_continuation(osc, (0.04, 0.02, 0.01), steps)
    _, traj, rep = fam[-1]
    t = np.linspace(0.0, 1.0, steps + 1)
    err = float(np.max(np.abs(traj.values[:, 0] - np.cos(t))))
    checks["oscillator_error"] = _check(5e-2 - err, 0.0)
    checks["hamiltonian_drift"] = _check(
        0.05 - hamiltonian_drift(osc, traj), 0.0)

    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    prob2 = LagrangianProblem(d=2, M=np.eye(2), nu=0.0, u_kind="quadratic",
                              T=1.0, epsilon=0.05,
                              initial=np.array([1.0, 0.25]),
                              velocity=np.array([0.0, -0.5]))
    resid = equivariance_residual(
        prob2, RMap(kind="lagrangian_affine", r=rot), steps=64)
    checks["rotation_equivariance"] = _check(1e-7 - resid, 0.0)
    checks["converged"] = _check(0.0 if rep.converged else -1.0, 1e-12)
    return _suite_report("wide", checks)


_SUITE_FUNCS = {
    "rearrangement": _verify_rearrangement,
    "submodularity": _verify_submodularity,
    "gradients": _verify_gradients,
    "invariance": _verify_invariance,
    "energetic": _verify_energetic,
    "wide": _verify_wide,
}


def verify(suite: str, seed: int = 0) -> dict:
    """Run one named property suite with fixed seeds; returns the
    machine-readable report."""
    if suite not in _SUITE_FUNCS:
        raise ScenarioError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    return _SUITE_FUNCS[suite](seed)
