"""Scenario configuration, orchestration, artifact emission, and the
named property suites behind the command line.

A scenario is one JSON document: a problem family, its parameters, an
optional list of solution-class maps, an optional comparison partner
state, the weight schedule, and seeds. `Scenario.from_dict` reads it
through its family's field table and builds the problem; `run` solves
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
import math
import os
from dataclasses import dataclass, fields as dc_fields, replace as dc_replace
from functools import partial
from importlib import resources
from itertools import product as _iproduct
from pathlib import Path

import numpy as np

from .grids import (ConfigurationError, Trajectory, build_grid,
                    rearrange, reflection_permutation, trajectory_to_csv)
from .energies import (ConcaveSpec, DissipationSpec, EnergySpec,
                       ReactionSpec, _rowdot, energy1_value_grad)
from ._newton import with_pins
from .wed import (WedProblem, check_schedule, default_eps_schedule,
                  eps_continuation, euler_lagrange_residual,
                  strong_solution_residual, wed_value_grad)
from .qualitative import (INERTIAL_KINDS, WED_KINDS, RMap, invariant_solve,
                          require_invariant)
from .comparison import ordered_minimizers, submodularity_check
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
# Field readers
# ---------------------------------------------------------------------------
#
# A reader takes a field's JSON value and ctx, the top-level fields read
# before it, and returns what the program uses. Readers check JSON types
# and shapes only; the library constructors the values go to check ranges.

_DEFAULTS = {"seed": 0, "steps": 64, "schedule": "auto", "rmaps": [],
             "compare_v0": None, "output_dir": None}

_REQUIRED = object()  # the default of a field that must be given


def _typed(test, what: str, convert=None):
    """The reader of a JSON value that passes test, called what, and
    converted by convert if given."""
    def read(v, ctx=None):
        if not test(v):
            raise ConfigurationError(f"expected {what}, not {json.dumps(v)}")
        return v if convert is None else convert(v)
    return read


def _finite(v) -> bool:
    """Whether v is a JSON number (no bool, no string) whose float is
    finite."""
    return type(v) is float and math.isfinite(v) \
        or type(v) is int and abs(v) < 1e308


_number = _typed(_finite, "a number", float)


def _integer(low=None):
    return _typed(lambda v: type(v) is int and (low is None or v >= low),
                  "an integer" + ("" if low is None else f" >= {low}"))


def _choice(options):
    return _typed(lambda v: v in options, "one of " + ", ".join(options))


_string = _typed(lambda v: isinstance(v, str), "a string")


def _numbers(v, ctx=None, shape=None, item=_number) -> np.ndarray:
    """A list of numbers (as item reads them), or nested lists of them, as
    an array; shape, if given, is its length along each axis (None: any)."""
    if not isinstance(v, list):
        raise ConfigurationError(f"expected a list of numbers, not "
                                 f"{json.dumps(v)}")
    arr = np.array([_numbers(x, item=item) if isinstance(x, list)
                    else item(x) for x in v])
    if shape is not None and (arr.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, arr.shape))):
        axes = ", ".join("n" if n is None else str(n) for n in shape)
        raise ConfigurationError(f"expected numbers of shape ({axes}), "
                                 f"not {json.dumps(v)}")
    return arr


_vector = partial(_numbers, shape=(None,))
_matrix = partial(_numbers, shape=(None, None))
_indices = partial(_numbers, shape=(None,), item=_integer())


def _one_or_list(one, listed):
    """The reader of a value one reads, or of a list that listed reads."""
    return lambda v, ctx=None: listed(v, ctx) if isinstance(v, list) \
        else one(v, ctx)


def _sized(values: np.ndarray, n: int) -> np.ndarray:
    if values.size != n:
        raise ConfigurationError("wrong number of values")
    return values


def _n_dof(ctx) -> int:
    """The state size: d, else one value per node (two for two species)."""
    two = getattr(ctx.get("energy"), "kind", None) == "lv_quadratic"
    return ctx["d"] if "d" in ctx else ctx["grid"].n_nodes * (2 if two else 1)


def _read(table: dict, obj, ctx=None) -> dict:
    """A JSON object's fields read by a table {key: (reader, default)}. A
    missing key takes its default, read too; a default of None lets the
    field be absent, and only such a field be null. At the top level (no
    ctx) the readers see the fields read so far, and errors name them."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"expected an object, not {json.dumps(obj)}")
    out = {}
    for key in (*table, *(k for k in obj if k not in table)):
        try:
            if key not in table:
                raise ConfigurationError("unknown field")
            reader, default = table[key]
            value = obj.get(key, default)
            if value is _REQUIRED:
                raise ConfigurationError("missing")
            if value is None and default is not None:
                raise ConfigurationError("may not be null")
            out[key] = None if value is None \
                else reader(value, out if ctx is None else ctx)
        except ValueError as exc:  # ConfigurationError included
            if ctx is None:
                raise ScenarioError(f"field '{key}': {exc}") from None
            raise ConfigurationError(f"{key}: {exc}") from None
    return out


def _kind(v, kinds: dict, ctx, key="kind", default=None) -> tuple:
    """(kind, fields) of an object whose field key (default if absent)
    picks its table in kinds."""
    if not isinstance(v, dict):
        raise ConfigurationError(f"expected an object, not {json.dumps(v)}")
    kind = v.get(key, default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"unknown {key} {kind!r}")
    return kind, _read({key: (_string, None), **kinds[kind]}, v, ctx)


_STATE_KINDS = {
    "constant": {"value": (_number, _REQUIRED)},
    "values": {"values": (_numbers, _REQUIRED)},
    "cosine": {"base": (_number, 0.0), "amplitude": (_number, 1.0),
               "mode": (_number, 1.0)},
    "sine_mode": {"amplitude": (_number, 1.0), "mode": (_number, 1.0)},
    # two states of one value per node, read by _state
    "pair": {"u": (lambda v, ctx: v, _REQUIRED),
             "v": (lambda v, ctx: v, _REQUIRED)},
}


def _state(v, ctx, n=None) -> np.ndarray:
    """The n values (the state size by default) of a state given as a
    number, a list of numbers or an object whose kind generates them."""
    n = _n_dof(ctx) if n is None else n
    grid = ctx.get("grid")
    if not isinstance(v, dict):
        values = _sized(_numbers(v).ravel(), n) if isinstance(v, list) \
            else np.full(n, _number(v))
    else:
        kind, f = _kind(v, _STATE_KINDS, ctx)
        if kind == "constant":
            values = np.full(n, f["value"])
        elif kind == "values":
            values = _sized(f["values"].ravel(), n)
        elif grid is None:
            raise ConfigurationError(f"kind {kind!r} needs a grid")
        elif kind == "pair":
            values = _sized(np.concatenate(
                [_state(f[m], ctx, grid.n_nodes) for m in "uv"]), n)
        else:
            x = grid.coords()[:, 0]
            if kind == "cosine":
                L = max(float(np.max(x)), 1e-300)
                values = f["base"] + f["amplitude"] \
                    * np.cos(np.pi * f["mode"] * x / L)
            else:  # sine_mode
                L = float(np.max(x)) + grid.spacing[0]
                values = f["amplitude"] \
                    * np.sin(2.0 * np.pi * f["mode"] * x / L)
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("values must be finite")
    return values


def _compare(v, ctx) -> np.ndarray:
    """The comparison partner state, at or above the initial state."""
    if _n_dof(ctx) != ctx["grid"].n_nodes:
        raise ConfigurationError("comparison needs a one-species state")
    v0 = _state(v, ctx)
    if np.any(ctx["initial"] > v0):
        raise ConfigurationError("must lie at or above field 'initial' at "
                                 "every node")
    return v0


_FORCING_KINDS = {
    "nodal": {"values": (_numbers, _REQUIRED)},
    "piecewise_linear_time": {
        "points": (partial(_numbers, shape=(None, 2)), _REQUIRED),
        "profile": (_numbers, None)},
}


def _forcing(v, ctx, every_knot=False) -> np.ndarray:
    """A nodal density: one row of n values (the state size), or a table
    of one row per time knot (always, if every_knot)."""
    n, knots = _n_dof(ctx), ctx["steps"] + 1
    if isinstance(v, list):
        f = _numbers(v)
        if f.shape not in ((n,), (knots, n)):
            raise ConfigurationError(f"expected {n} values or {knots} rows "
                                     f"of them")
    elif not isinstance(v, dict):
        f = np.full(n, _number(v))
    else:
        kind, spec = _kind(v, _FORCING_KINDS, ctx)
        if kind == "nodal":
            f = _sized(spec["values"].ravel(), n)
        else:
            pts = spec["points"]
            f = np.interp(np.linspace(0.0, ctx["T"], knots), pts[:, 0],
                          pts[:, 1])[:, None] \
                * (np.ones(n) if spec["profile"] is None
                   else _sized(spec["profile"].ravel(), n))[None, :]
    return np.tile(f, (knots, 1)) if every_knot and f.ndim == 1 else f


def _schedule(v, ctx) -> list:
    if v == "auto":
        return default_eps_schedule(ctx["T"], ctx["steps"])
    if not isinstance(v, list):
        raise ConfigurationError("must be 'auto' or a list")
    return check_schedule([_number(e) for e in v], ctx["T"])


_GRID = {"dim": (_integer(), 1),
         "shape": (_one_or_list(_integer(), _indices), _REQUIRED),
         "spacing": (_one_or_list(_number, _vector), 1.0),
         "boundary": (_string, "neumann"),
         "domain_kind": (_string, "interval"), "robin_b": (_number, 0.0)}


def _grid(v, ctx):
    return build_grid(**_read(_GRID, v, ctx))


# the reader of a dataclass field's JSON value, by the field's annotation;
# an "object" coefficient is one number or one per degree of freedom
_BY_ANNOTATION = {
    "float": _number, "Optional[float]": _number, "str": _string,
    "bool": _typed(lambda v: isinstance(v, bool), "true or false"),
    "Optional[np.ndarray]": _numbers,
    "object": _one_or_list(_number, lambda v, ctx: _sized(_vector(v),
                                                          _n_dof(ctx)))}


def _fields(cls, names=None) -> dict:
    """The field table of the named fields of the dataclass cls (all by
    default), each read by its annotation, with the class's default."""
    return {f.name: (_BY_ANNOTATION[f.type], f.default)
            for f in dc_fields(cls) if names is None or f.name in names}


def _spec(cls, kinds: dict, v, ctx, key="kind", default=None):
    """A cls from a JSON object whose field key (default if absent, else
    the class's default) picks in kinds the names of the fields it takes."""
    kind, values = _kind(v, {k: _fields(cls, names)
                             for k, names in kinds.items()}, ctx, key,
                         default or getattr(cls, key))
    return cls(**{**values, key: kind})


def _maps(v, ctx, table) -> tuple:
    """The RMaps of a list of map objects with the fields of table."""
    if not isinstance(v, list):
        raise ConfigurationError("must be a list of maps")
    return tuple(RMap(**{k: x for k, x in _read(table, m, ctx).items()
                         if x is not None}) for m in v)


# the map fields of each lane: an inertial map is a symmetry of the state
# alone, so it takes no level, clamp, axis or order
_WED_MAP = {"kind": (_choice(WED_KINDS), _REQUIRED),
            "permutation": (_indices, None), "level": (_number, None),
            "K": (_number, None), "axis": (_integer(), None),
            "direction": (_integer(), None),
            "parts": (lambda v, ctx: _maps(v, ctx, _WED_MAP), None)}
_INERTIAL_MAP = {"kind": (_choice(INERTIAL_KINDS), _REQUIRED),
                 "permutation": (_indices, None), "r": (_matrix, None),
                 "shift": (_vector, None)}

_POTENTIAL = {"kind": (_string, "quadratic"), "Q": (_matrix, None),
              "coeffs": (_vector, [])}


def _potential(v, ctx) -> dict:
    """The LagrangianProblem arguments of a potential object."""
    p = _read(_POTENTIAL, v, ctx)
    return {"u_kind": p["kind"], "Q": p["Q"], "u_coeffs": tuple(p["coeffs"])}


# ---------------------------------------------------------------------------
# Field tables, one per family
# ---------------------------------------------------------------------------

_HEAD = {"name": (_string, _REQUIRED),
         "family": (_choice(FAMILIES), _REQUIRED),
         "T": (_typed(lambda v: _finite(v) and v > 0, "a positive number",
                      float), _REQUIRED),
         "steps": (_integer(1), _DEFAULTS["steps"]),
         "seed": (_integer(0), _DEFAULTS["seed"]),
         "schedule": (_schedule, _DEFAULTS["schedule"]),
         "output_dir": (_string, None)}

_ENERGY_KINDS = {"doubly_nonlinear": "m_laplace",
                 "fractional_heat": "fractional",
                 "lotka_volterra": "lv_quadratic"}

# the fields each kind of a spec reads, and so the only ones it takes
_ENERGY_FIELDS = {"quadratic": ("gamma",), "m_laplace": ("m", "B", "C"),
                  "fractional": ("s", "gamma", "exterior"),
                  "lv_quadratic": ("D1", "D2", "F1", "F2")}
# p is the exponent of the trajectory norms for either kind
_DISSIPATION_FIELDS = {"power": ("p",),
                       "table": ("p", "table_s", "table_alpha")}
_REACTION_FIELDS = {"none": (), "lotka_volterra": ("A", "K", "B", "C", "E")}

_WED = {**_HEAD,
        "grid": (_grid, _REQUIRED),
        "dissipation": (partial(_spec, DissipationSpec, _DISSIPATION_FIELDS,
                                key="alpha_kind"), {}),
        "energy": (lambda v, ctx: _spec(
            EnergySpec, _ENERGY_FIELDS, v, ctx,
            default=_ENERGY_KINDS[ctx["family"]]), {}),
        "forcing": (_forcing, None),
        "energy2": (lambda v, ctx: ConcaveSpec(
            **_read(_fields(ConcaveSpec), v, ctx)), {}),
        "reaction": (partial(_spec, ReactionSpec, _REACTION_FIELDS), {}),
        "initial": (_state, _REQUIRED),
        "compare_v0": (_compare, None),
        "rmaps": (partial(_maps, table=_WED_MAP), [])}

_LV = {**_WED, "reaction": (_WED["reaction"][0], _REQUIRED)}

_RI = {**_HEAD,
       "grid": (_grid, _REQUIRED),
       "phi_coeffs": (_vector, [0.0, 0.0, 0.5]),
       "a": (_number, 0.0),
       "forcing": (partial(_forcing, every_knot=True), 0.0),
       "initial": (_state, _REQUIRED),
       "compare_v0": (_compare, None)}

# both inertial families' fields; steps >= 2, as two knots are pinned (the
# key keeps its place in _HEAD, before schedule, which reads it)
_INERTIAL = {
    "steps": (_integer(2), _DEFAULTS["steps"]),
    "initial": (_state, _REQUIRED),
    "velocity": (_state, 0.0),
    "rmaps": (partial(_maps, table=_INERTIAL_MAP), [])}

_WAVE = {**_HEAD,
         "grid": (_grid, _REQUIRED),
         "rho": (_number, 1.0), "nu": (_number, 0.0),
         "f_coeffs": (_vector, [0.0]), "lam": (_number, 0.0),
         "p_growth": (_number, 2.0),
         **_INERTIAL}

_LAGRANGIAN = {**_HEAD,
               "d": (_integer(1), 1), "M": (_matrix, None),
               "nu": (_number, 0.0), "potential": (_potential, {}),
               **_INERTIAL}


def _problem(cls, values: dict, **args):
    """A cls from the fields named as its arguments, at the schedule's
    first weight; args stand in for the arguments of other names."""
    names = {f.name for f in dc_fields(cls) if f.init} - set(args)
    return cls(epsilon=values["schedule"][0], **args,
               **{k: x for k, x in values.items() if k in names})


def _wed_problem(v: dict) -> WedProblem:
    return _problem(WedProblem, v, energy1=v["energy"])


def _initial_invariant(problem: WedProblem, rmap: RMap) -> None:
    require_invariant(rmap, problem.grid, problem.initial, "field 'initial'")


# family -> (field table, problem builder, check of a map on the problem)
_FAMILY_TABLES = {
    "doubly_nonlinear": (_WED, _wed_problem, _initial_invariant),
    "fractional_heat": (_WED, _wed_problem, _initial_invariant),
    "lotka_volterra": (_LV, _wed_problem, _initial_invariant),
    "rate_independent": (_RI, partial(_problem, RIProblem), None),
    "wide_wave": (_WAVE, partial(_problem, WideWaveProblem),
                  require_invariant_data),
    "lagrangian": (_LAGRANGIAN, lambda v: _problem(
        LagrangianProblem, v, **v["potential"]), require_invariant_data),
}

# the scenario field behind each problem argument of another name
_FIELD_OF = {"epsilon": "schedule", "u_kind": "potential", "Q": "potential",
             "u_coeffs": "potential"}


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """A parsed scenario: config is the document plus _DEFAULTS (as
    effective_config.json records it), values its fields as read."""
    name: str
    family: str
    config: dict
    values: dict
    problem: object

    @staticmethod
    def from_dict(raw: dict) -> "Scenario":
        """Read raw by its family's field table and build the problem; an
        error is a ScenarioError naming its top-level field."""
        if not isinstance(raw, dict):
            raise ScenarioError("top level must be a JSON object")
        family = raw.get("family")
        table, build, map_check = _FAMILY_TABLES[family] \
            if isinstance(family, str) and family in _FAMILY_TABLES \
            else (_HEAD, None, None)
        values = _read(table, raw)  # with _HEAD, fails at 'family'
        try:
            problem = build(values)
        except ConfigurationError as exc:
            raise ScenarioError(f"field '{_FIELD_OF.get(exc.field, exc.field)}"
                                f"': {exc}") from None
        try:
            for rmap in values.get("rmaps", ()):
                map_check(problem, rmap)
        except ConfigurationError as exc:
            raise ScenarioError(f"field 'rmaps': {exc}") from None
        return Scenario(name=values["name"], family=family,
                        config={**_DEFAULTS, **raw}, values=values,
                        problem=problem)

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


def bundled_scenarios() -> dict:
    """Name -> text of every scenario JSON shipped with the package."""
    out = {}
    root = resources.files(__package__) / "scenarios"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry.read_text()
    return out


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
        return _run_checked(path_or_scenario)
    except (ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}")
        return 2


def _run_checked(path_or_scenario) -> int:
    """Solve the scenario, then write every artifact at once. A file is
    parsed here, not in `run`, so its objects die with this frame: freed
    after the solve's arrays, they fragmented the heap and raised the peak
    RSS of repeated 512-node heat runs by about 10 MB."""
    sc = path_or_scenario if isinstance(path_or_scenario, Scenario) \
        else Scenario.from_file(path_or_scenario)
    effective = {"name": sc.name, "family": sc.family, **sc.config}
    effective.pop("output_dir", None)
    files = {"effective_config.json":
             json.dumps(_json_ready(effective), indent=2, sort_keys=True)
             + "\n"}

    summary, reports = [], {}
    unconverged = False
    problem = sc.problem
    schedule, steps = sc.values["schedule"], sc.values["steps"]
    maps, v0 = sc.values.get("rmaps", ()), sc.values.get("compare_v0")

    if isinstance(problem, WedProblem):
        u_levels = ()
        if maps:
            rmap = maps[0] if len(maps) == 1 \
                else RMap(kind="compose", parts=maps)
            res = invariant_solve(problem, rmap, steps, schedule=schedule,
                                  seed=sc.values["seed"])
            traj = res.trajectory
            unconverged = unconverged or res.continuation.aborted
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
            # below solves with the same steps
            u_levels = [(eps, t, rep) for (eps, t), rep
                        in zip(cont.family, cont.reports)]
        el = euler_lagrange_residual(problem, traj)
        reports["euler_lagrange"] = {
            "interior_max": el["interior_max"], "terminal": el["terminal"],
            "max": el["max"]}
        reports["strong_residual"] = strong_solution_residual(traj, problem)
        summary.append(("strong_residual", reports["strong_residual"], True))
        files["trajectory.csv"] = trajectory_to_csv(traj)

        if v0 is not None:
            pair = ordered_minimizers(problem, problem.initial, v0,
                                      schedule, steps, u_levels=u_levels)
            unconverged = unconverged or not pair.converged
            reports["comparison"] = {
                "levels": pair.audits,
                "ordering_margin": pair.ordering_margin,
                "submodularity_ok": pair.submodularity_ok}
            ok = pair.ordering_margin >= -1e-10 and pair.submodularity_ok
            summary.append(("ordering_margin", pair.ordering_margin, ok))
            files["pair_u.csv"] = trajectory_to_csv(pair.u)
            files["pair_v.csv"] = trajectory_to_csv(pair.v)

    elif isinstance(problem, RIProblem):
        fam, certs, pair = _ri_certificates(problem, schedule, v0)
        _, traj, rep = fam[-1]
        unconverged = unconverged or not rep.converged
        reports.update(certs)
        for name, bound in _RI_BOUNDS.items():
            summary.append((name, certs[name], certs[name] <= bound))
        files["trajectory.csv"] = traj.to_csv()
        if pair is not None:
            unconverged = unconverged or not pair.converged
            ok = pair.ordering_margin >= -1e-10
            reports["comparison"] = {"ordering_margin": pair.ordering_margin,
                                     "audits": pair.audits}
            summary.append(("ordering_margin", pair.ordering_margin, ok))
            files["pair_u.csv"] = pair.u.to_csv()
            files["pair_v.csv"] = pair.v.to_csv()

    else:
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
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)

    if unconverged:
        return 3
    return 0 if all(ok for *_, ok in summary) else 1


# the bound on each rate-independent certificate that `_ri_certificates`
# computes, checked by `run` and by the energetic suite
_RI_BOUNDS = {"sign_condition": 1e-6, "stability": 1e-2, "balance": 1e-2}


def _ri_certificates(problem: RIProblem, schedule, v0) -> tuple:
    """The continuation levels of the rate-independent problem along
    schedule, its certificates at the last level ({name: value} for the
    names of _RI_BOUNDS and stability_left), and the ordered pair from
    problem.initial and v0 (None without v0), whose u member reuses the
    levels."""
    fam = ri_continuation(problem, schedule)
    eps_last, traj, _ = fam[-1]
    # the certificate weights must match the weight level of the solve
    sign = sign_condition(dc_replace(problem, epsilon=eps_last), traj)
    en = energetic_residuals(traj, problem)
    certs = {"sign_condition": sign["worst_violation"],
             "stability": en.stability, "balance": en.balance,
             "stability_left": en.stability_left}
    pair = None if v0 is None else ordered_ri_minimizers(
        problem, problem.initial, v0, schedule=schedule, u_levels=fam)
    return fam, certs, pair


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_report(name: str, checks: dict) -> dict:
    return {"suite": name,
            "passed": all(c["passed"] for c in checks.values()),
            "checks": checks}


def _check(margin: float, tol: float) -> dict:
    """A margin passes at or above -tol; one that is not finite fails."""
    return {"margin": float(margin),
            "passed": bool(np.isfinite(margin) and margin >= -tol)}


def _lowest(worst: float, margin: float) -> float:
    """The smaller of two margins, where NaN ranks below every number (a
    plain min would drop it: min(x, nan) is x)."""
    return margin if margin < worst or math.isnan(margin) else worst


def _ps_energies(U: np.ndarray, boundary: str) -> list:
    """Row-wise sums of |nearest-neighbour difference|^m for m = 2 and 3;
    dirichlet borders each row with a zero on both sides, neumann uses
    interior differences only."""
    if boundary == "dirichlet":
        border = np.zeros((len(U), U.shape[1] + 2))
        border[:, 1:-1] = U
        U = border
    jumps = np.abs(np.diff(U, axis=1))
    return [np.sum(jumps ** m, axis=1) for m in (2.0, 3.0)]


# the rearrangements checked, with the boundary of their Polya-Szego energy
_PS_BOUNDARY = {"monotone": "neumann", "symmetric_decreasing": "dirichlet"}


def _gram_margin(RU: np.ndarray, U: np.ndarray) -> float:
    """The least Hardy-Littlewood margin RU_i . RU_j - U_i . U_j over all
    pairs of rows of the exhaustive words U, whose entries are 0, 1 or 2,
    and their rearrangements RU: one product [RU, U] @ [RU, -U]^T, in
    blocks of 256 rows to bound the memory. Rows of length n <= 7 make
    every partial sum an integer of magnitude at most 28, whatever the
    summation order, so float32 (exact to 2^24) gives float64's margin
    at about half the cost."""
    left = np.hstack([RU, U]).astype(np.float32)
    right = np.hstack([RU, -U]).T.astype(np.float32)
    worst = np.inf
    for lo in range(0, len(U), 256):
        worst = _lowest(worst, float(np.min(left[lo:lo + 256] @ right)))
    return worst


def _verify_rearrangement(seed: int = 0) -> dict:
    """Rearrangement inequalities on 1000 random pairs (u, v) and on every
    word of a three-letter alphabet up to length 7. The random samples are
    drawn one at a time in the order (n, u, v) and only then grouped by n,
    so the rng stream is that of a per-sample loop while each length is
    rearranged and checked as one (k, n) stack; the terms that do not
    depend on the rearrangement are computed once per length."""
    rng = np.random.default_rng(seed)
    checks = {}
    samples = {}
    for _ in range(1000):
        n = int(rng.integers(3, 65))
        u = rng.random(n) * 2.0
        v = rng.random(n) * 2.0
        samples.setdefault(n, []).append((u, v))
    worst = {k: np.inf for k in
             ("norm", "hardy_littlewood", "nonexpansive", "polya_szego")}
    spreads = (np.abs, np.square)
    for n, pairs in samples.items():
        grid = build_grid(dim=1, shape=(n,), spacing=(1.0,),
                          boundary="neumann")
        U, V = (np.array(rows) for rows in zip(*pairs))
        sorted_u = np.sort(np.maximum(U, 0.0), axis=1)
        uv = _rowdot(U, V)
        spread = [np.sum(J(U - V), axis=1) for J in spreads]
        for kind, bnd in _PS_BOUNDARY.items():
            RU, RV = np.split(rearrange(grid, np.vstack([U, V]), kind), 2)
            margins = {
                "norm": -np.max(np.abs(np.sort(RU, axis=1) - sorted_u),
                                axis=1),
                "hardy_littlewood": _rowdot(RU, RV) - uv,
                "nonexpansive": [s - np.sum(J(RU - RV), axis=1)
                                 for s, J in zip(spread, spreads)],
                "polya_szego": [e - r for e, r in zip(
                    _ps_energies(U, bnd), _ps_energies(RU, bnd))],
            }
            for key, val in margins.items():
                worst[key] = _lowest(worst[key], float(np.min(val)))
    for key, val in worst.items():
        checks[key] = _check(val, 1e-12)

    # exhaustive three-letter-alphabet oracles, all lengths up to 7
    hl_worst = np.inf
    ps_worst = np.inf
    for n in range(3, 8):
        grid = build_grid(dim=1, shape=(n,), spacing=(1.0,),
                          boundary="neumann")
        U = np.array(list(_iproduct((0.0, 1.0, 2.0), repeat=n)))
        for kind, bnd in _PS_BOUNDARY.items():
            RU = rearrange(grid, U, kind)
            hl_worst = _lowest(hl_worst, _gram_margin(RU, U))
            for e, r in zip(_ps_energies(U, bnd), _ps_energies(RU, bnd)):
                ps_worst = _lowest(ps_worst, float(np.min(e - r)))
    checks["hardy_littlewood_exhaustive"] = _check(hl_worst, 1e-12)
    checks["polya_szego_exhaustive"] = _check(ps_worst, 1e-12)
    return _suite_report("rearrangement", checks)


def _random_walk(rng, start: np.ndarray, steps: int) -> np.ndarray:
    """The rows start, start + 0.3 z_1, ... of a Gaussian random walk,
    added knot by knot (np.cumsum adds in order along its axis)."""
    return np.cumsum(np.vstack([start, 0.3 * rng.standard_normal(
        (steps, start.size))]), axis=0)


def _verify_submodularity(seed: int = 0) -> dict:
    """Lattice submodularity of the functional on 500 ordered pairs of
    random walks per energy. Each pair's numbers are drawn in the order
    of a per-pair loop (base, other, base's steps, other's steps) into
    one (2, 500, knots, n) block, and the walks are one cumulative sum
    along the knots, with the bits of one _random_walk per walk."""
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
            energy2=ConcaveSpec(),
            reaction=ReactionSpec(), T=1.0, epsilon=0.3,
            initial=np.zeros(6))
        walks = np.empty((2, 500, steps + 1, 6))
        for pair in range(500):
            base = rng.random(6)
            walks[:, pair, 0] = base, base + rng.random(6)
            walks[0, pair, 1:] = 0.3 * rng.standard_normal((steps, 6))
            walks[1, pair, 1:] = 0.3 * rng.standard_normal((steps, 6))
        U, V = np.cumsum(walks, axis=2)
        checks[name] = _check(np.min(submodularity_check(problem, U, V)),
                              1e-10)
    return _suite_report("submodularity", checks)


def _fd_error(f, x: np.ndarray, g: np.ndarray, rng,
              h: float = 1e-6) -> float:
    """Relative error of g against central differences along five random
    unit directions; NaN if any of them is (np.max keeps a NaN)."""
    errs = []
    for _ in range(5):
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        fd = (f(x + h * d) - f(x - h * d)) / (2.0 * h)
        an = float(g @ d)
        errs.append(abs(fd - an) / (1.0 + abs(an)))
    return float(np.max(errs))


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
        energy2=ConcaveSpec(),
        reaction=ReactionSpec(), T=1.0, epsilon=0.2,
        initial=rng.standard_normal(7))
    steps = 6
    traj = Trajectory(grid, 1.0, _random_walk(rng, problem.initial, steps))
    w = np.zeros((steps + 1, 7))
    _, g = wed_value_grad(problem, w, traj)

    def value_of(flat):
        t = Trajectory(grid, 1.0, with_pins(problem.initial[None],
                                            flat.reshape(steps, 7)))
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
        vals = with_pins(base[:2], flat.reshape(N - 1, 2))
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
                energy2=ConcaveSpec(),
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
    res = invariant_solve(problem, comp, steps=16, schedule=(0.1, 0.05),
                          seed=seed)
    checks["composition"] = _check(-res.residual, 1e-8)
    return _suite_report("invariance", checks)


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
    """The bundled `ri_ramp` against the stay/slide closed form, with its
    certificates and ordered pair as `run` computes them."""
    sc = Scenario.from_text(bundled_scenarios()["ri_ramp"])
    fam, certs, pair = _ri_certificates(sc.problem, sc.values["schedule"],
                                        sc.values["compare_v0"])
    _, traj, rep = fam[-1]
    sup_err = float(np.max(np.abs(traj.values[:, 0]
                                  - incremental_oracle(sc.problem))))
    checks = {"oracle_sup_error": _check(5e-2 - sup_err, 0.0)}
    for name, bound in _RI_BOUNDS.items():
        checks[name] = _check(bound - certs[name], 0.0)
    checks["ordering"] = _check(pair.ordering_margin, 1e-10)
    checks["converged"] = _check(0.0 if rep.converged else -1.0, 1e-12)
    return _suite_report("energetic", checks)


def _verify_wide(seed: int = 0) -> dict:
    """The bundled `wide_oscillator` against cos t, and the rotation
    equivariance of a 2D oscillator."""
    checks = {}
    sc = Scenario.from_text(bundled_scenarios()["wide_oscillator"])
    osc, steps = sc.problem, sc.values["steps"]
    fam = wide_continuation(osc, sc.values["schedule"], steps)
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
    seed = _read({"seed": _HEAD["seed"]}, {"seed": seed})["seed"]
    return _SUITE_FUNCS[suite](seed)
