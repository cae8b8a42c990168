"""Solution-class maps and the machinery that keeps weighted-energy
minimizers inside them.

An RMap bundles a nodal transformation R with the structural conditions
the surrounding problem must satisfy for R-invariance of minimizers to be
provable; it is the map type of both lanes (see INERTIAL_KINDS). Three
layers:

  * RMap.apply        apply R to a (k, n_dof) stack of states at once
                      (a trajectory's values are such a stack)
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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import (ConfigurationError, Grid, Trajectory,
                    _check_axis_direction, field_to_csv, rearrange)
from .energies import _rowdot, energy1_value_grad
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
    The parameters are validated once, here; `apply` maps whole row
    stacks.
    """

    kind: str
    permutation: Optional[np.ndarray] = None   # rigid / translation
    level: float = 0.0                         # truncations
    K: float = 1.0                             # lv_clamp
    axis: int = 0                              # steiner / averaging
    direction: int = +1                        # monotone
    parts: tuple = ()                          # compose
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

    @property
    def enforcement(self) -> str:
        """How invariant_solve treats the map: "projected" maps are applied
        to every outer iterate, "posthoc" maps are not enforced during
        iteration (the problem data must do the work) and the residual is
        only measured on the final trajectory."""
        if self.kind == "lv_clamp" \
                or (self.kind == "truncate_upper" and self.level > 0):
            return "posthoc"
        if self.kind == "compose" \
                and any(p.enforcement == "posthoc" for p in self.parts):
            return "posthoc"
        return "projected"

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


def _fixed_point_of(R: RMap, grid: Grid, V: np.ndarray,
                    iters: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """A fixed point of R seeded from each row of the stack V, and a mask
    of the rows whose iteration settles (the others' rows are left
    unset). For permutations the orbit average is used (they are linear,
    so the average is exactly invariant up to roundoff). The whole stack
    is mapped at once, and each row stops where it would alone, so every
    point has the bits of a one-row call."""
    k = len(V)
    if R.kind in ("rigid", "translation"):
        # a row's orbit closes at the first power that maps it back onto
        # itself; one that never closes averages all iters + 1 states
        orbit, cur = [V], V
        length = np.full(k, iters + 1)
        open_ = np.ones(k, dtype=bool)
        for j in range(1, iters + 1):
            cur = R.apply(cur, grid)
            closed = open_ & np.all(cur == V, axis=1)
            length[closed] = j
            open_ &= ~closed
            if not open_.any():
                break
            orbit.append(cur)
        orbit = np.stack(orbit)
        avg = np.empty_like(V)
        for size in np.unique(length):
            rows = length == size
            avg[rows] = np.mean(orbit[:size, rows], axis=0)
        # one more pass kills the roundoff asymmetry of the mean
        return 0.5 * (avg + R.apply(avg, grid)), np.ones(k, dtype=bool)
    out = np.empty_like(V)
    settled = np.zeros(k, dtype=bool)
    active, cur = np.arange(k), V
    for _ in range(iters):
        if not active.size:
            break
        nxt = R.apply(cur, grid)
        # selection maps settle exactly; averaging can dither by an ulp
        done = np.max(np.abs(nxt - cur), axis=1) \
            <= 1e-13 * (1.0 + np.max(np.abs(cur), axis=1))
        out[active[done]] = nxt[done]
        settled[active[done]] = True
        active, cur = active[~done], nxt[~done]
    return out, settled


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    """Sampled verification outcome. Each condition maps to its worst
    margin; a finite margin at or above -1e-10 counts as satisfied.
    Equality style conditions store the negated error, so the same rule
    applies."""

    name: str
    conditions: dict
    samples: int
    seed: int
    notes: tuple = ()
    counterexample: Optional[np.ndarray] = None
    counterexample_grid: Optional[Grid] = None

    @property
    def passed(self) -> bool:
        return not any(map(_fails, self.conditions.values()))

    def _counterexample_csv(self) -> Optional[str]:
        if self.counterexample is None:
            return None
        g = self.counterexample_grid
        if g is not None and self.counterexample.size == g.n_nodes:
            return field_to_csv(g, self.counterexample)
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


def _fails(margin: float) -> bool:
    """A margin below -MARGIN_TOL, or one that is not finite (an
    overflowed energy gives NaN, which no comparison would catch)."""
    return not (np.isfinite(margin) and margin >= -MARGIN_TOL)


def _worsen(report_conditions: dict, key: str, margin: float,
            state: dict, vec: np.ndarray) -> None:
    """Track the running worst margin and remember the witness vector. A
    margin that is not finite ranks below every finite one, and the first
    such margin stays."""
    old = report_conditions.get(key)
    if old is not None and not np.isfinite(old):
        return
    if old is None or not np.isfinite(margin) or margin < old:
        report_conditions[key] = margin
        if _fails(margin):
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
    projected maps the class is stable under shrinking toward zero. The
    seeds of the invariant states are drawn pair by pair and iterated to
    their fixed points as one stack."""
    rng = np.random.default_rng(seed)
    n = grid.n_nodes * R.n_components()
    conds: dict = {}
    state: dict = {}
    notes = []
    made = 0
    seeds = np.array([rng.standard_normal(n) * 2.0
                      for _ in range(2 * samples)]).reshape(-1, n)
    fixed, settled = _fixed_point_of(R, grid, seeds)
    for a, b, ok_a, ok_b in zip(fixed[0::2], fixed[1::2],
                                settled[0::2], settled[1::2]):
        if not (ok_a and ok_b):
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
    posthoc maps.

    Each sample's numbers are drawn in the order of a per-sample loop
    (u, the kick of an odd sample, the walk, the seed of a projected
    map's fixed point); then every role is mapped, priced and paired as
    one stack, and the margins enter the report in the loop's order, so
    each worst margin and the witness are the loop's."""
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
    projected = R.enforcement == "projected"

    U = np.empty((samples, n))
    kicks = np.empty((samples // 2, n))
    walks = np.empty((samples, steps + 1, n))
    seeds = np.empty((samples if projected else 0, n))
    for k in range(samples):
        U[k] = rng.standard_normal(n) * 2.0
        if k % 2 == 1:
            kicks[k // 2] = rng.standard_normal(n)
        walks[k] = rng.standard_normal((steps + 1, n)) * 0.5
        if projected:
            seeds[k] = rng.standard_normal(n) * 2.0

    # adversarial odd samples: start from a mapped state and kick it
    U[1::2] = R.apply(U[1::2], grid) + 0.1 * kicks
    RU = R.apply(U, grid)
    energy, _ = energy1_value_grad(problem.energy1, grid,
                                   np.concatenate([U, RU]))
    eu, eru = energy[:samples], energy[samples:]
    energy_margin = (eu - eru) / (1.0 + np.abs(eu)) + MARGIN_TOL

    walks = np.cumsum(walks, axis=1)
    mapped = R.apply(walks.reshape(-1, n), grid).reshape(walks.shape)
    dissipation = _dissipation_value(problem,
                                     np.concatenate([walks, mapped]),
                                     problem.T / steps)
    dba, dbr = dissipation[:samples], dissipation[samples:]
    dissipation_margin = (dba - dbr) / (1.0 + np.abs(dba)) + MARGIN_TOL

    # pairing with the dual field of a constant trajectory at each source
    # (a projected map's fixed point, where its iteration settles)
    src, paired = (_fixed_point_of(R, grid, seeds) if projected
                   else (U, np.ones(samples, dtype=bool)))
    paired = np.flatnonzero(paired)
    duals = dual_field(problem, np.repeat(src[paired, None],
                                          source_steps + 1, axis=1))
    wru = _rowdot(duals, RU[paired, None])
    wu = _rowdot(duals, U[paired, None])
    pairing_margin = dict(zip(
        paired.tolist(),
        hd * (wru - wu) / (1.0 + np.abs(hd * wu)) + MARGIN_TOL))

    for k in range(samples):
        _worsen(conds, "energy_monotone", energy_margin[k], state, U[k])
        _worsen(conds, "dissipation_monotone", dissipation_margin[k], state,
                walks[k].ravel())
        for margin in pairing_margin.get(k, ()):
            _worsen(conds, "pairing_monotone", margin, state, U[k])
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
    require_invariant(R, problem.grid, problem.initial)
    report = check_r2(R, problem, seed=seed)

    project = None
    if R.enforcement == "projected":
        def project(traj: Trajectory) -> Trajectory:
            # the initial state is invariant, so row 0 keeps its bits
            return replace(traj, values=R.apply(traj.values, traj.grid))

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
