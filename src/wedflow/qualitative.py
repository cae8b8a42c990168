"""Solution-class maps and the machinery that keeps weighted-energy
minimizers inside them.

An RMap bundles a nodal transformation R with the structural conditions
the surrounding problem must satisfy for R-invariance of minimizers to be
provable; it is the map type of both lanes (see INERTIAL_KINDS). Three
layers:

  * RMap.apply        apply R to a (k, n_dof) stack of states at once
                      (apply_rmap: to a Field or a Trajectory)
  * check_r1/check_r2 sampled verification of the structural conditions
  * invariant_solve   run the damped fixed-point loop so that the output
                      trajectory satisfies Ru = u up to a reported residual

Maps come in two flavours. "projected" maps are enforced inside the outer
loop (every iterate is mapped before the dual field is evaluated);
"posthoc" maps rely on the problem data alone to keep iterates invariant,
and the residual is measured after the fact. Truncation from above at a
positive level and the clamp used by the two-species system are posthoc;
everything else is projected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .grids import (ConfigurationError, Field, Grid, Trajectory,
                    _check_axis_direction, constant_trajectory,
                    field_to_csv, rearrange)
from .energies import energy1_value_grad
from .wed import (WedProblem, _dissipation_value, dual_field,
                  eps_continuation)

MARGIN_TOL = 1e-10


# ---------------------------------------------------------------------------
# RMap
# ---------------------------------------------------------------------------

# the kinds each lane takes: waves have no comparison principle, so no
# reordering or truncation for inertial states; no affine map of WED ones
WED_KINDS = ("rigid", "symmetric_decreasing", "steiner", "monotone",
             "truncate_lower", "truncate_upper", "positive_part",
             "negative_part", "lv_clamp", "averaging", "compose")
INERTIAL_KINDS = ("rigid", "translation", "averaging", "lagrangian_affine")


@dataclass(frozen=True)
class RMap:
    """A nodal map whose fixed-point set is the solution class.

    kind selects the transformation; the remaining fields parameterize it.
    `enforcement` declares how invariant_solve treats the map: "projected"
    maps are applied to every outer iterate, "posthoc" maps are not
    enforced during iteration (the problem data must do the work) and the
    residual is only measured on the final trajectory. The parameters are
    validated once, here; `apply` maps whole row stacks.
    """

    kind: str
    permutation: Optional[np.ndarray] = None   # rigid / translation
    level: float = 0.0                         # truncations
    K: float = 1.0                             # lv_clamp
    axis: int = 0                              # steiner / averaging
    direction: int = +1                        # monotone
    parts: tuple = ()                          # compose
    enforcement: str = ""                      # "" = kind default
    r: Optional[np.ndarray] = None             # lagrangian_affine:
    shift: Optional[np.ndarray] = None         #   u -> r u + shift

    def __post_init__(self):
        kind = self.kind
        if kind not in WED_KINDS + INERTIAL_KINDS:
            raise ConfigurationError(f"unknown map kind {kind!r}")
        _check_axis_direction(self.axis, self.direction)
        if kind in ("rigid", "translation"):
            perm = np.asarray(() if self.permutation is None
                              else self.permutation, dtype=int)
            if perm.ndim != 1 or perm.size == 0 or not np.array_equal(
                    np.sort(perm), np.arange(perm.size)):
                raise ConfigurationError(f"{kind} map needs a permutation "
                                         "of the node set")
            object.__setattr__(self, "permutation", perm)
        if (kind == "truncate_lower" and self.level > 0) \
                or (kind == "truncate_upper" and self.level < 0):
            raise ConfigurationError("lower truncation needs M <= 0, "
                                     "upper truncation M >= 0")
        if kind == "lagrangian_affine":
            r = None if self.r is None else np.asarray(self.r, dtype=float)
            shift = None if self.shift is None \
                else np.asarray(self.shift, dtype=float).ravel()
            if r is None or r.ndim != 2 or r.shape[0] != r.shape[1] \
                    or not np.allclose(r.T @ r, np.eye(len(r)), atol=1e-12) \
                    or (shift is not None and shift.size != len(r)):
                raise ConfigurationError("affine map needs an orthogonal "
                                         "matrix r and a shift of its size")
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "shift", shift)
        elif self.r is not None or self.shift is not None:
            raise ConfigurationError(f"{kind} map takes no r or shift")
        if kind == "compose" and not self.parts:
            raise ConfigurationError("compose needs at least one part")
        if kind == "lv_clamp" and not self.K > 0:
            raise ConfigurationError("clamp level K must be positive")
        if self.enforcement == "":
            object.__setattr__(self, "enforcement", _default_enforcement(self))
        if self.enforcement not in ("projected", "posthoc"):
            raise ConfigurationError("enforcement must be projected or posthoc")

    @property
    def algebra(self) -> str:
        """"idempotent" (R after R is R) or "automorphism" (an invertible
        isometry). Compositions report the weaker "mixed" unless
        every part is idempotent."""
        if self.kind in ("rigid", "translation", "lagrangian_affine"):
            return "automorphism"
        if self.kind == "compose":
            kinds = {p.algebra for p in self.parts}
            return "idempotent" if kinds == {"idempotent"} else "mixed"
        return "idempotent"

    def n_components(self) -> int:
        return 2 if self.kind == "lv_clamp" else 1

    def apply(self, rows: np.ndarray, grid: Grid,
              velocity: bool = False) -> np.ndarray:
        """The map on each row of a (k, n_dof) stack, as a new array.
        velocity=True maps velocities: shifts move positions only. On a
        point grid the state's components take the nodes' place."""
        kind = self.kind
        if kind == "compose":
            for part in self.parts:
                rows = part.apply(rows, grid, velocity)
            return rows
        need = (2 * grid.n_nodes if kind == "lv_clamp"
                else self.r.shape[0] if kind == "lagrangian_affine"
                else rows.shape[-1] if grid.domain_kind == "point"
                else grid.n_nodes)
        perm = self.permutation if kind in ("rigid", "translation") else None
        if rows.ndim != 2 or rows.shape[1] != need \
                or (perm is not None and perm.size != need):
            raise ConfigurationError(f"{kind} map does not fit rows of "
                                     f"shape {rows.shape}")
        if perm is not None:
            return rows[:, perm]
        if kind in ("symmetric_decreasing", "monotone", "steiner"):
            return rearrange(grid, rows, kind, axis=self.axis,
                             direction=self.direction)
        if kind == "truncate_lower":
            return np.maximum(rows, self.level)
        if kind == "truncate_upper":
            return np.minimum(rows, self.level)
        if kind == "positive_part":
            return np.maximum(rows, 0.0)
        if kind == "negative_part":
            return np.minimum(rows, 0.0)
        if kind == "lv_clamp":
            n = grid.n_nodes
            return np.concatenate([np.maximum(np.minimum(rows[:, :n], self.K),
                                              0.0),
                                   np.maximum(rows[:, n:], 0.0)], axis=1)
        if kind == "lagrangian_affine":
            out = np.matmul(self.r, rows[..., None])[..., 0]
            return out if velocity or self.shift is None else out + self.shift
        # averaging: the whole state in 1D, along the axis in 2D
        arr = rows.reshape(len(rows), *grid.shape) if grid.dim == 2 else rows
        a = 1 + self.axis if grid.dim == 2 else 1
        return np.repeat(arr.mean(axis=a, keepdims=True), arr.shape[a],
                         axis=a).reshape(rows.shape)


def _default_enforcement(R: RMap) -> str:
    if R.kind == "lv_clamp":
        return "posthoc"
    if R.kind == "truncate_upper" and R.level > 0:
        return "posthoc"
    if R.kind == "compose":
        kinds = {p.enforcement for p in R.parts}
        return "posthoc" if "posthoc" in kinds else "projected"
    return "projected"


def apply_rmap(R: RMap, x: Union[Field, Trajectory]):
    """Apply R to a field, or slice-wise in time to a trajectory."""
    if isinstance(x, Field):
        return Field(x.grid, R.apply(x.values[None], x.grid)[0])
    if isinstance(x, Trajectory):
        rows = R.apply(x.values, x.grid)
        pin = x.pinned_initial
        if pin is not None and not np.array_equal(rows[0], pin):
            pin = None
        return Trajectory(x.grid, x.T, rows, pinned_initial=pin,
                          pinned_velocity=None, ncomp=x.ncomp)
    raise ConfigurationError("apply_rmap expects a Field or a Trajectory")


def _fixed_point_of(R: RMap, grid: Grid, vec: np.ndarray,
                    iters: int = 16) -> Optional[np.ndarray]:
    """A fixed point of R seeded from vec, or None if iteration does not
    settle. For permutations the orbit average is used (they are linear,
    so the average is exactly invariant up to roundoff)."""
    cur = vec[None]
    if R.kind in ("rigid", "translation"):
        orbit = [cur]
        for _ in range(iters):
            cur = R.apply(cur, grid)
            if np.array_equal(cur, orbit[0]):
                break
            orbit.append(cur)
        avg = np.mean(np.concatenate(orbit), axis=0)[None]
        # one more pass kills the roundoff asymmetry of the mean
        return (0.5 * (avg + R.apply(avg, grid)))[0]
    for _ in range(iters):
        nxt = R.apply(cur, grid)
        # selection maps settle exactly; averaging can dither by an ulp
        if np.max(np.abs(nxt - cur)) <= 1e-13 * (1.0 + np.max(np.abs(cur))):
            return nxt[0]
        cur = nxt
    return None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    """Sampled verification outcome. Each condition maps to its worst
    margin; a margin at or above -1e-10 counts as satisfied. Equality
    style conditions store the negated error, so the same rule applies."""

    name: str
    conditions: dict
    samples: int
    seed: int
    notes: tuple = ()
    counterexample: Optional[np.ndarray] = None
    counterexample_grid: Optional[Grid] = None

    @property
    def passed(self) -> bool:
        return all(m >= -MARGIN_TOL for m in self.conditions.values())

    def _counterexample_csv(self) -> Optional[str]:
        if self.counterexample is None:
            return None
        g = self.counterexample_grid
        if g is not None and self.counterexample.size == g.n_nodes:
            return field_to_csv(Field(g, self.counterexample))
        rows = ["index,value"] + [f"{i},{repr(float(v))}"
                                  for i, v in enumerate(self.counterexample)]
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "passed": self.passed,
            "conditions": {k: repr(float(v))
                           for k, v in sorted(self.conditions.items())},
            "samples": self.samples,
            "seed": self.seed,
            "notes": list(self.notes),
            "counterexample_csv": self._counterexample_csv(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _worsen(report_conditions: dict, key: str, margin: float,
            state: dict, vec: np.ndarray) -> None:
    """Track the running worst margin and remember the witness vector."""
    old = report_conditions.get(key, np.inf)
    if margin < old:
        report_conditions[key] = margin
        if margin < -MARGIN_TOL:
            state["worst"] = vec.copy()


# ---------------------------------------------------------------------------
# Compatibility predicates
# ---------------------------------------------------------------------------

def _is_constant_table(tab) -> bool:
    if tab is None:
        return True
    arr = np.asarray(tab, dtype=float)
    return bool(np.all(arr == arr.flat[0]))


def compatibility_issues(R: RMap, problem: WedProblem,
                         seed: int = 0) -> list:
    """Structural conditions on the problem data required by the map,
    checked up front. Returns a list of human-readable violations; an
    empty list means compatible."""
    issues: list = []
    grid = problem.grid
    e1 = problem.energy1

    if R.kind == "compose":
        for part in R.parts:
            issues += compatibility_issues(part, problem, seed=seed)
        return issues

    if R.kind == "lv_clamp":
        if problem.reaction.kind != "lotka_volterra":
            issues.append("clamp needs the two-species reaction")
        elif abs(problem.reaction.K - R.K) > 0:
            issues.append("clamp level differs from the carrying capacity")
        if e1.kind != "lv_quadratic":
            issues.append("clamp needs the paired quadratic energy")
        return issues

    f = problem.forcing

    def forcing_fixed(tol: float = 1e-12) -> bool:
        if f is None:
            return True
        rows = f.reshape(-1, grid.n_nodes) if f.ndim > 1 else f[None]
        return np.max(np.abs(R.apply(rows, grid) - rows)) <= tol

    def forcing_sign_ok(want_nonneg: bool) -> bool:
        return f is None or bool(np.all(f >= 0) if want_nonneg
                                 else np.all(f <= 0))

    if R.kind == "rigid":
        # the permutation must leave the energy literally unchanged
        U = np.random.default_rng(seed).standard_normal((3, grid.n_nodes))
        a, _ = energy1_value_grad(e1, grid, U)
        b, _ = energy1_value_grad(e1, grid, R.apply(U, grid))
        if np.any(np.abs(a - b) > 1e-9 * (1.0 + np.abs(a))):
            issues.append("energy not invariant under the permutation")
        if not forcing_fixed():
            issues.append("forcing not invariant under the permutation")
        return issues

    if R.kind in ("symmetric_decreasing", "monotone", "steiner"):
        if e1.kind not in ("quadratic", "m_laplace", "fractional"):
            issues.append("rearrangement needs a symmetric scalar energy")
        if e1.kind == "m_laplace":
            if not (_is_constant_table(e1.B) and _is_constant_table(e1.C)):
                issues.append("rearrangement needs constant coefficients")
        if R.kind == "monotone" and grid.boundary != "neumann":
            issues.append("monotone reorder needs the no-flux boundary")
        if R.kind in ("symmetric_decreasing", "steiner") \
                and grid.boundary not in ("dirichlet", "neumann"):
            issues.append("center reorder needs dirichlet or neumann walls")
        if not forcing_sign_ok(want_nonneg=True):
            issues.append("rearrangement needs nonnegative forcing")
        if not forcing_fixed(tol=1e-9):
            issues.append("forcing must already be arranged (Rw = w)")
        return issues

    if R.kind in ("truncate_lower", "positive_part"):
        # raising u never loses pairing mass only if the forcing points up
        if not forcing_sign_ok(want_nonneg=True):
            issues.append("lower cutoff needs nonnegative forcing")
        return issues

    if R.kind in ("truncate_upper", "negative_part"):
        if not forcing_sign_ok(want_nonneg=False):
            issues.append("upper cutoff needs nonpositive forcing")
        return issues

    if R.kind == "averaging":
        if grid.boundary not in ("neumann", "periodic"):
            issues.append("averaging needs a flux-free boundary")
        if e1.kind not in ("quadratic", "m_laplace"):
            issues.append("averaging needs a local energy")
        if e1.kind == "m_laplace":
            if not (_is_constant_table(e1.B) and _is_constant_table(e1.C)):
                issues.append("averaging needs constant coefficients")
        if not forcing_fixed(tol=1e-9):
            issues.append("forcing must be constant along the averaged axis")
        return issues

    return issues


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

def check_r1(R: RMap, grid: Grid, samples: int = 32,
             seed: int = 0, p: float = 2.0) -> PropertyReport:
    """Structure of the solution class itself: midpoints of invariant
    states stay invariant (convexity), the map never inflates the discrete
    time-derivative seminorm (so trajectories stay admissible), and for
    projected maps the class is stable under shrinking toward zero."""
    rng = np.random.default_rng(seed)
    n = grid.n_nodes * R.n_components()
    conds: dict = {}
    state: dict = {}
    notes = []
    made = 0
    for _ in range(samples):
        a = _fixed_point_of(R, grid, rng.standard_normal(n) * 2.0)
        b = _fixed_point_of(R, grid, rng.standard_normal(n) * 2.0)
        if a is None or b is None:
            continue
        made += 1
        # the midpoint, then (projected maps) the dilations of a
        states = np.stack([0.5 * (a + b)] + [
            delta * a for delta in (0.25, 0.5, 0.75)
            if R.enforcement == "projected"])
        errs = np.max(np.abs(R.apply(states, grid) - states), axis=1)
        for key, x, err in zip(["midpoint_invariance"]
                               + 3 * ["dilation_stability"], states, errs):
            _worsen(conds, key, -float(err), state, x)
    if R.enforcement == "posthoc":
        notes.append("dilation stability not required for posthoc maps")
    # seminorm control: R applied slice-wise never increases sum |du|^p
    for _ in range(samples):
        steps = 4
        traj = rng.standard_normal((steps + 1, n)) * 1.5
        rt = R.apply(traj, grid)
        before = float(np.sum(np.abs(np.diff(traj, axis=0)) ** p))
        after = float(np.sum(np.abs(np.diff(rt, axis=0)) ** p))
        _worsen(conds, "seminorm_nonexpansive",
                before - after + MARGIN_TOL * (1 + before), state,
                traj.ravel())
    V = rng.standard_normal((8, n))
    once = R.apply(V, grid)
    if R.algebra == "idempotent":
        errs = np.max(np.abs(R.apply(once, grid) - once), axis=1)
        key = "idempotence"
    else:
        # automorphisms conserve every p-norm exactly
        errs = np.abs(np.sum(np.abs(once) ** p, axis=1)
                      - np.sum(np.abs(V) ** p, axis=1))
        key = "norm_conservation"
    for v, err in zip(V, errs):
        _worsen(conds, key, -float(err), state, v)
    if made == 0:
        notes.append("no invariant states could be generated")
        conds.setdefault("midpoint_invariance", -np.inf)
    rep = PropertyReport(name=f"r1:{R.kind}", conditions=conds,
                         samples=samples, seed=seed, notes=tuple(notes),
                         counterexample=state.get("worst"),
                         counterexample_grid=grid)
    return rep


def check_r2(R: RMap, problem: WedProblem, samples: int = 16,
             seed: int = 0) -> PropertyReport:
    """The three inequalities that transfer minimality into the solution
    class: the convex energy does not grow under R, the weighted
    dissipation of a mapped trajectory does not grow, and the pairing with
    the dual field does not shrink. The dual field is taken from an
    invariant state for projected maps and from the sample itself for
    posthoc maps."""
    rng = np.random.default_rng(seed)
    grid = problem.grid
    n = problem.n_dof
    conds: dict = {}
    state: dict = {}
    notes = [f"compat:{m}" for m in compatibility_issues(R, problem, seed)]
    steps = 6
    hd = grid.cell_measure
    # a trajectory has at least two slices, so an untimed source gets two
    f = problem.forcing
    source_steps = max(len(f) - 1, 1) if np.ndim(f) == 2 else 1

    for k in range(samples):
        u = rng.standard_normal(n) * 2.0
        if k % 2 == 1:
            # adversarial: start from a mapped state and kick it
            u = R.apply(u[None], grid)[0] + 0.1 * rng.standard_normal(n)
        ru = R.apply(u[None], grid)[0]
        (eu, eru), _ = energy1_value_grad(problem.energy1, grid,
                                          np.stack([u, ru]))
        _worsen(conds, "energy_monotone",
                (eu - eru) / (1.0 + abs(eu)) + MARGIN_TOL, state, u)

        traj = np.cumsum(rng.standard_normal((steps + 1, n)) * 0.5, axis=0)
        rt = R.apply(traj, grid)
        dba, dbr = _dissipation_value(problem, np.stack([traj, rt]),
                                      problem.T / steps)
        _worsen(conds, "dissipation_monotone",
                (dba - dbr) / (1.0 + abs(dba)) + MARGIN_TOL, state,
                traj.ravel())

        # pairing with the dual field
        if R.enforcement == "projected":
            src = _fixed_point_of(R, grid, rng.standard_normal(n) * 2.0)
            if src is None:
                continue
        else:
            src = u
        duals = dual_field(problem, constant_trajectory(
            grid, src, problem.T, source_steps, pin=False))
        for w in duals:
            margin = hd * float(w @ ru - w @ u)
            _worsen(conds, "pairing_monotone",
                    margin / (1.0 + abs(hd * float(w @ u))) + MARGIN_TOL,
                    state, u)
    return PropertyReport(name=f"r2:{R.kind}", conditions=conds,
                          samples=samples, seed=seed, notes=tuple(notes),
                          counterexample=state.get("worst"),
                          counterexample_grid=grid)


# ---------------------------------------------------------------------------
# Invariant solving
# ---------------------------------------------------------------------------

@dataclass
class InvariantSolveResult:
    trajectory: Trajectory
    residual: float
    residual_history: list
    report: PropertyReport
    flagged: bool
    continuation: object = None


def require_invariant(R: RMap, grid: Grid, x: np.ndarray,
                      what: str = "initial state",
                      velocity: bool = False) -> None:
    """Raise ConfigurationError unless R fits the state x and leaves it
    exactly invariant."""
    if not np.array_equal(R.apply(x[None], grid, velocity)[0], x):
        raise ConfigurationError(f"{what} is not invariant under R")


def invariance_residual(R: RMap, traj: Trajectory) -> float:
    """sup over time slices of the max-norm distance between Ru and u."""
    return float(np.max(np.abs(R.apply(traj.values, traj.grid)
                               - traj.values)))


def invariant_solve(problem: WedProblem, R: RMap, steps: int,
                    schedule: Optional[Sequence[float]] = None,
                    seed: int = 0) -> InvariantSolveResult:
    """Minimize along the weight schedule so the result lies in the map's
    solution class. The initial state must be exactly invariant. For
    projected maps every outer iterate passes through R; posthoc maps run
    the plain loop and only the final residual certifies invariance. The
    result is flagged when that residual exceeds 1e-8, the map fails
    check_r2 (16 samples) or the continuation aborts."""
    u0 = problem.initial
    require_invariant(R, problem.grid, u0)
    report = check_r2(R, problem, seed=seed)

    project = None
    if R.enforcement == "projected":
        def project(traj: Trajectory) -> Trajectory:
            rows = R.apply(traj.values, traj.grid)
            rows[0] = u0
            return Trajectory(traj.grid, traj.T, rows, pinned_initial=u0,
                              ncomp=traj.ncomp)

    if schedule is None:
        schedule = (problem.epsilon,)
    cont = eps_continuation(problem, schedule, steps, project=project)
    history = [invariance_residual(R, traj) for _, traj in cont.family]
    final = cont.final
    residual = history[-1] if history else np.inf
    flagged = (residual > 1e-8) or (not report.passed) or cont.aborted
    return InvariantSolveResult(trajectory=final, residual=residual,
                                residual_history=history, report=report,
                                flagged=flagged, continuation=cont)
