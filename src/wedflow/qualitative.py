"""Solution-class maps and the machinery that keeps weighted-energy
minimizers inside them.

An RMap bundles a nodal transformation R with the structural conditions
the surrounding problem must satisfy for R-invariance of minimizers to be
provable. Three layers:

  * apply_rmap        apply R to a Field or (slice-wise) to a Trajectory
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
                    constant_trajectory, field_to_csv, rearrange,
                    rigid_transform, sign_part, truncate)
from .energies import energy1_value_grad
from .wed import (WedProblem, _dissipation_value, dual_field,
                  eps_continuation)

MARGIN_TOL = 1e-10


# ---------------------------------------------------------------------------
# RMap
# ---------------------------------------------------------------------------

_KINDS = ("rigid", "symmetric_decreasing", "steiner", "monotone",
          "truncate_lower", "truncate_upper", "positive_part",
          "negative_part", "lv_clamp", "averaging", "compose")


@dataclass(frozen=True)
class RMap:
    """A nodal map whose fixed-point set is the solution class.

    kind selects the transformation; the remaining fields parameterize it.
    `enforcement` declares how invariant_solve treats the map: "projected"
    maps are applied to every outer iterate, "posthoc" maps are not
    enforced during iteration (the problem data must do the work) and the
    residual is only measured on the final trajectory.
    """

    kind: str
    permutation: Optional[np.ndarray] = None   # rigid
    level: float = 0.0                         # truncations
    K: float = 1.0                             # lv_clamp
    axis: int = 0                              # steiner / averaging
    direction: int = +1                        # monotone
    parts: tuple = ()                          # compose
    enforcement: str = ""                      # "" = kind default

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown map kind {self.kind!r}")
        if self.kind == "rigid" and self.permutation is None:
            raise ConfigurationError("rigid map needs a permutation")
        if self.kind == "compose" and not self.parts:
            raise ConfigurationError("compose needs at least one part")
        if self.kind == "lv_clamp" and not self.K > 0:
            raise ConfigurationError("clamp level K must be positive")
        if self.enforcement == "":
            object.__setattr__(self, "enforcement", _default_enforcement(self))
        if self.enforcement not in ("projected", "posthoc"):
            raise ConfigurationError("enforcement must be projected or posthoc")

    @property
    def algebra(self) -> str:
        """"idempotent" (R after R is R) or "automorphism" (invertible,
        norm-conserving). Compositions report the weaker "mixed" unless
        every part is idempotent."""
        if self.kind == "rigid":
            return "automorphism"
        if self.kind == "compose":
            kinds = {p.algebra for p in self.parts}
            return "idempotent" if kinds == {"idempotent"} else "mixed"
        return "idempotent"

    def n_components(self) -> int:
        return 2 if self.kind == "lv_clamp" else 1


def _default_enforcement(R: RMap) -> str:
    if R.kind == "lv_clamp":
        return "posthoc"
    if R.kind == "truncate_upper" and R.level > 0:
        return "posthoc"
    if R.kind == "compose":
        kinds = {p.enforcement for p in R.parts}
        return "posthoc" if "posthoc" in kinds else "projected"
    return "projected"


def _apply_vec(R: RMap, grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Apply the map to one flat state vector (stacked for two species)."""
    if R.kind == "compose":
        out = vec
        for part in R.parts:
            out = _apply_vec(part, grid, out)
        return out
    if R.kind == "lv_clamp":
        n = grid.n_nodes
        if vec.size != 2 * n:
            raise ConfigurationError("clamp expects a stacked species pair")
        u = np.maximum(np.minimum(vec[:n], R.K), 0.0)
        v = np.maximum(vec[n:], 0.0)
        return np.concatenate([u, v])
    f = Field(grid, vec)
    if R.kind == "rigid":
        return rigid_transform(f, R.permutation).values
    if R.kind in ("symmetric_decreasing", "monotone", "steiner"):
        return rearrange(f, R.kind, axis=R.axis, direction=R.direction).values
    if R.kind == "truncate_lower":
        return truncate(f, "lower", R.level).values
    if R.kind == "truncate_upper":
        return truncate(f, "upper", R.level).values
    if R.kind == "positive_part":
        return sign_part(f, "positive").values
    if R.kind == "negative_part":
        return sign_part(f, "negative").values
    if R.kind == "averaging":
        if grid.dim == 1:
            return np.full_like(vec, vec.mean())
        arr = vec.reshape(grid.shape)
        out = np.broadcast_to(arr.mean(axis=R.axis, keepdims=True),
                              grid.shape)
        return np.ascontiguousarray(out).ravel()
    raise ConfigurationError(f"unknown map kind {R.kind!r}")


def apply_rmap(R: RMap, x: Union[Field, Trajectory]):
    """Apply R to a field, or slice-wise in time to a trajectory."""
    if isinstance(x, Field):
        return Field(x.grid, _apply_vec(R, x.grid, x.values))
    if isinstance(x, Trajectory):
        rows = np.stack([_apply_vec(R, x.grid, row) for row in x.values])
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
    if R.kind == "rigid":
        orbit = [vec]
        cur = vec
        for _ in range(iters):
            cur = _apply_vec(R, grid, cur)
            if np.array_equal(cur, vec):
                break
            orbit.append(cur)
        avg = np.mean(orbit, axis=0)
        # one more pass kills the roundoff asymmetry of the mean
        return 0.5 * (avg + _apply_vec(R, grid, avg))
    cur = vec
    for _ in range(iters):
        nxt = _apply_vec(R, grid, cur)
        # selection maps settle exactly; averaging can dither by an ulp
        if np.max(np.abs(nxt - cur)) <= 1e-13 * (1.0 + np.max(np.abs(cur))):
            return nxt
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

    def forcing_fixed(tol: float = 1e-12) -> bool:
        if e1.forcing is None and problem.energy2.forcing is None:
            return True
        for holder in (e1, problem.energy2):
            if holder.forcing is None:
                continue
            arr = np.asarray(holder.forcing, dtype=float)
            arr = arr.reshape(-1, grid.n_nodes) if arr.ndim > 1 \
                else arr.reshape(1, -1)
            for row in arr:
                if np.max(np.abs(_apply_vec(R, grid, row) - row)) > tol:
                    return False
        return True

    def forcing_sign_ok(want_nonneg: bool) -> bool:
        ok = True
        for holder in (e1, problem.energy2):
            if holder.forcing is None:
                continue
            arr = np.asarray(holder.forcing, dtype=float)
            ok = ok and (bool(np.all(arr >= 0)) if want_nonneg
                         else bool(np.all(arr <= 0)))
        return ok

    if R.kind == "rigid":
        # the permutation must leave the energy literally unchanged
        rng = np.random.default_rng(seed)
        for _ in range(3):
            u = rng.standard_normal(grid.n_nodes)
            a, _ = energy1_value_grad(e1, grid, u)
            b, _ = energy1_value_grad(e1, grid, _apply_vec(R, grid, u))
            if abs(a - b) > 1e-9 * (1.0 + abs(a)):
                issues.append("energy not invariant under the permutation")
                break
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
        mid = 0.5 * (a + b)
        err = float(np.max(np.abs(_apply_vec(R, grid, mid) - mid)))
        _worsen(conds, "midpoint_invariance", -err, state, mid)
        if R.enforcement == "projected":
            for delta in (0.25, 0.5, 0.75):
                d = delta * a
                derr = float(np.max(np.abs(_apply_vec(R, grid, d) - d)))
                _worsen(conds, "dilation_stability", -derr, state, d)
    if R.enforcement == "posthoc":
        notes.append("dilation stability not required for posthoc maps")
    # seminorm control: R applied slice-wise never increases sum |du|^p
    for _ in range(samples):
        steps = 4
        traj = rng.standard_normal((steps + 1, n)) * 1.5
        rt = np.stack([_apply_vec(R, grid, row) for row in traj])
        before = float(np.sum(np.abs(np.diff(traj, axis=0)) ** p))
        after = float(np.sum(np.abs(np.diff(rt, axis=0)) ** p))
        _worsen(conds, "seminorm_nonexpansive",
                before - after + MARGIN_TOL * (1 + before), state,
                traj.ravel())
    if R.algebra == "idempotent":
        for _ in range(8):
            v = rng.standard_normal(n)
            once = _apply_vec(R, grid, v)
            twice = _apply_vec(R, grid, once)
            err = float(np.max(np.abs(twice - once)))
            _worsen(conds, "idempotence", -err, state, v)
    else:
        # automorphisms conserve every p-norm exactly
        for _ in range(8):
            v = rng.standard_normal(n)
            rv = _apply_vec(R, grid, v)
            err = abs(float(np.sum(np.abs(rv) ** p) - np.sum(np.abs(v) ** p)))
            _worsen(conds, "norm_conservation", -err, state, v)
    if made == 0:
        notes.append("no invariant states could be generated")
        conds.setdefault("midpoint_invariance", -np.inf)
    rep = PropertyReport(name=f"r1:{R.kind}", conditions=conds,
                         samples=samples, seed=seed, notes=tuple(notes),
                         counterexample=state.get("worst"),
                         counterexample_grid=grid)
    return rep


def _source_slices(problem: WedProblem) -> int:
    """Time slices of the problem's time-indexed sources (1 if none)."""
    tables = (problem.energy2.forcing, problem.reaction.g)
    return max((np.shape(t)[0] for t in tables if np.ndim(t) == 2),
               default=1)


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
    source_steps = max(_source_slices(problem) - 1, 1)

    for k in range(samples):
        u = rng.standard_normal(n) * 2.0
        if k % 2 == 1:
            # adversarial: start from a mapped state and kick it
            u = _apply_vec(R, grid, u) + 0.1 * rng.standard_normal(n)
        ru = _apply_vec(R, grid, u)
        (eu, eru), _ = energy1_value_grad(problem.energy1, grid,
                                          np.stack([u, ru]))
        _worsen(conds, "energy_monotone",
                (eu - eru) / (1.0 + abs(eu)) + MARGIN_TOL, state, u)

        traj = np.cumsum(rng.standard_normal((steps + 1, n)) * 0.5, axis=0)
        rt = np.stack([_apply_vec(R, grid, row) for row in traj])
        dba = _dissipation_value(problem, traj, problem.T / steps)
        dbr = _dissipation_value(problem, rt, problem.T / steps)
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


def invariance_residual(R: RMap, traj: Trajectory) -> float:
    """sup over time slices of the max-norm distance between Ru and u."""
    worst = 0.0
    for row in traj.values:
        worst = max(worst, float(np.max(np.abs(
            _apply_vec(R, traj.grid, row) - row))))
    return worst


def invariant_solve(problem: WedProblem, R: RMap, steps: int,
                    schedule: Optional[Sequence[float]] = None,
                    tol: float = 1e-8, samples: int = 16,
                    seed: int = 0) -> InvariantSolveResult:
    """Minimize along the weight schedule so the result lies in the map's
    solution class. The initial state must be exactly invariant. For
    projected maps every outer iterate passes through R; posthoc maps run
    the plain loop and only the final residual certifies invariance."""
    u0 = problem.initial
    if not np.array_equal(_apply_vec(R, problem.grid, u0), u0):
        raise ConfigurationError("initial state is not invariant under R")
    report = check_r2(R, problem, samples=samples, seed=seed)

    project = None
    if R.enforcement == "projected":
        def project(traj: Trajectory) -> Trajectory:
            rows = np.stack([_apply_vec(R, traj.grid, row)
                             for row in traj.values])
            rows[0] = u0
            return Trajectory(traj.grid, traj.T, rows, pinned_initial=u0,
                              ncomp=traj.ncomp)

    if schedule is None:
        schedule = (problem.epsilon,)
    cont = eps_continuation(problem, schedule, steps, project=project)
    history = [invariance_residual(R, traj) for _, traj in cont.family]
    final = cont.final
    residual = history[-1] if history else np.inf
    flagged = (residual > tol) or (not report.passed) or cont.aborted
    return InvariantSolveResult(trajectory=final, residual=residual,
                                residual_history=history, report=report,
                                flagged=flagged, continuation=cont)
