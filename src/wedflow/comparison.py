"""Order structure of weighted-energy minimizers.

For potential problems (no reaction, so the only source is the fixed
forcing) the functional evaluated on componentwise min and max of two
trajectories never exceeds the sum on the originals. That inequality is
what `submodularity_check` measures, and `ordered_minimizers` exploits it:
minimizing from ordered initial states and swapping the pair for its
lattice combination at every weight level produces two solutions with
u(t) <= v(t) everywhere.

The u member of an ordered pair is the problem's own continuation as long
as the pair stays ordered, so a caller that has already solved that
continuation may hand its levels over. A level is reused only when its
solve would repeat bit for bit: same weight and knot count, u0 bitwise
the problem's initial state, and a warm start bitwise the reused previous
level. Any other level is solved as before.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import ConfigurationError, Trajectory
from .energies import (_rowdot, _sequential_sum, energy1_value_grad,
                       energy2_value_grad)
from .wed import (PairReport, WedProblem, _dissipation_value, _weights,
                  continuation, fixed_point_solve, source_rows)

AUDIT_TOL = 1e-9


def _require_potential(problem: WedProblem) -> None:
    if problem.reaction.kind == "lotka_volterra":
        raise ConfigurationError(
            "comparison requires a potential problem; the two-species "
            "source is not a fixed field")


def wed_potential_value(problem: WedProblem, traj):
    """Value of the weighted functional with every non-dissipative term
    inside the integrand: rate term + phi1 - phi2 - <f, u> per knot, f the
    forcing. traj is a Trajectory, or a (k, N+1, n_dof) stack priced one
    value per trajectory."""
    _require_potential(problem)
    U = traj.values if isinstance(traj, Trajectory) else traj
    N = U.shape[-2] - 1
    _, b = _weights(problem.epsilon, problem.T, N)
    # every knot after the first as one row, with its own time slice
    X = U[..., 1:, :].reshape(-1, U.shape[-1])
    slices = np.tile(np.arange(1, N + 1), X.shape[0] // N)
    v1, _ = energy1_value_grad(problem.energy1, problem.grid, X)
    v2, _ = energy2_value_grad(problem.energy2, problem.grid, X)
    knot = v1 - v2
    if problem.forcing is not None:
        knot -= problem.grid.cell_measure * _rowdot(
            source_rows(problem, N + 1)[slices], X)
    return _sequential_sum(_dissipation_value(problem, U, problem.T / N),
                           b * knot.reshape(U.shape[:-2] + (N,)))


def _check_ordered_initials(u0: np.ndarray, v0: np.ndarray) -> None:
    if u0.shape != v0.shape:
        raise ConfigurationError("initial states live on different grids")
    if np.any(u0 > v0):
        raise ConfigurationError("initial states are not ordered (u0 <= v0)")


def lattice_pair(u: Trajectory, v: Trajectory) -> tuple:
    """Row-wise (min, max) of two trajectories, of u's type. Selection
    only, so the identity meet + join = u + v holds bitwise."""
    return (replace(u, values=np.minimum(u.values, v.values)),
            replace(u, values=np.maximum(u.values, v.values)))


def submodularity_check(problem: WedProblem, u, v):
    """I(u) + I(v) - I(min) - I(max); nonnegative (to roundoff) whenever
    the problem is potential. u and v are Trajectories, or (k, N+1, n_dof)
    stacks of pairs with one margin per pair; the four members of every
    pair are priced as one stack."""
    U = u.values if isinstance(u, Trajectory) else u
    V = v.values if isinstance(v, Trajectory) else v
    _check_ordered_initials(U[..., 0, :], V[..., 0, :])
    iu, iv, im, ij = wed_potential_value(
        problem, np.stack([U, V, np.minimum(U, V), np.maximum(U, V)]))
    return iu + iv - im - ij


def _lattice_values(value, pu, pv, u: Trajectory, v: Trajectory,
                    meet: Trajectory, join: Trajectory) -> dict:
    """The four functional values and the two excesses of the meet over u
    and of the join over v; value(problem, traj) prices a trajectory, pu
    the members pinned like u and pv those pinned like v."""
    iu, iv = value(pu, u), value(pv, v)
    im, ij = value(pu, meet), value(pv, join)
    return {"value_u": iu, "value_v": iv, "value_meet": im, "value_join": ij,
            "meet_excess": im - iu, "join_excess": ij - iv}


def _with_verdicts(audit: dict) -> dict:
    """The audit with its two one-sided verdicts: the meet must not beat
    u's value by more than roundoff, the join must not beat v's."""
    iu, iv = audit["value_u"], audit["value_v"]
    return {**audit,
            "meet_ok": audit["value_meet"] <= iu + AUDIT_TOL * (1.0 + abs(iu)),
            "join_ok": audit["value_join"] <= iv + AUDIT_TOL * (1.0 + abs(iv))}


def lattice_value_audit(problem: WedProblem, u: Trajectory,
                        v: Trajectory) -> dict:
    """The four functional values and the two one-sided margins of the
    lattice pair of u and v. Inputs are expected to be minimizers of their
    pinned classes."""
    meet, join = lattice_pair(u, v)
    return _with_verdicts(_lattice_values(wed_potential_value, problem,
                                          problem, u, v, meet, join))


@dataclass
class OrderedPairResult:
    u: Trajectory
    v: Trajectory
    audits: list          # one dict per weight level
    ordering_margin: float
    submodularity_ok: bool
    converged: bool = True   # every member solve of every level converged


def ordering_margin(u: Trajectory, v: Trajectory) -> float:
    """min over nodes and times of v - u; nonnegative means ordered."""
    return float(np.min(v.values - u.values))


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def ordered_pair_levels(problem, u0: np.ndarray, v0: np.ndarray,
                        schedule: Optional[Sequence[float]], solve,
                        value, steps: int, u_levels: Sequence = ()) -> list:
    """The weight continuation of an ordered pair, shared by the
    gradient-flow and rate-independent families.

    At each level solve(problem, warm) -> (trajectory, report) minimizes
    from u0 and from v0, the pair is swapped for its lattice pair, which
    warm-starts the next level, and value(problem, trajectory) prices the
    four trajectories of the level's audit; solve's trajectories have
    steps time steps. The schedule defaults to the problem's own weight.
    Returns [(eps, (meet, join), PairReport)] as `continuation` does.

    u_levels, when given, is the [(eps, trajectory, report)] that
    `continuation` returned for `problem` itself with the same steps and,
    for the gradient-flow lane, no projection. Level k's u solve is then
    taken from it instead of repeated, provided the solve would be bit for
    bit the same one: level k exists with this level's eps and a
    trajectory of steps time steps, u0 is bitwise problem.initial, and
    the u warm start is None at the first level and bitwise level k-1's
    trajectory after it (the previous meet is the previous u whenever the
    pair was ordered). Otherwise the level is solved."""
    _check_ordered_initials(u0, v0)
    same_start = _bitwise_equal(u0, np.asarray(problem.initial))

    count = itertools.count()

    def solve_u(pu, warm_u):
        k = next(count)
        if same_start and k < len(u_levels) and u_levels[k][0] == pu.epsilon \
                and u_levels[k][1].steps == steps \
                and (warm_u is None if k == 0 else _bitwise_equal(
                    warm_u.values, u_levels[k - 1][1].values)):
            return u_levels[k][1:]
        return solve(pu, warm_u)

    def level(eps, warm):
        warm_u, warm_v = warm or (None, None)
        pu = replace(problem, epsilon=eps, initial=u0)
        pv = replace(problem, epsilon=eps, initial=v0)
        tu, rep_u = solve_u(pu, warm_u)
        tv, rep_v = solve(pv, warm_v)
        meet, join = lattice_pair(tu, tv)
        audit = {"epsilon": eps,
                 **_lattice_values(value, pu, pv, tu, tv, meet, join)}
        return (meet, join), PairReport(
            audit, rep_u.converged and rep_v.converged)

    return continuation(level, (problem.epsilon,) if schedule is None
                        else schedule, problem.T)


def ordered_minimizers(problem: WedProblem, u0: np.ndarray,
                       v0: np.ndarray,
                       schedule: Optional[Sequence[float]] = None,
                       steps: int = 32,
                       u_levels: Sequence = ()) -> OrderedPairResult:
    """Minimize from both initial states along the weight schedule; after
    each level, swap the pair for its componentwise min and max (both are
    minimizers again, which the audit verifies) and warm-start the next
    level from the swapped pair. The final pair is ordered at every node
    and time. u_levels are the [(eps, trajectory, report)] of the
    problem's own continuation with the same steps and no projection, if
    already solved (see `ordered_pair_levels`)."""
    _require_potential(problem)
    levels = ordered_pair_levels(
        problem, np.asarray(u0, dtype=float).ravel(),
        np.asarray(v0, dtype=float).ravel(), schedule,
        lambda p, warm: fixed_point_solve(p, steps, init=warm),
        wed_potential_value, steps, u_levels)
    audits = [_with_verdicts(rep.audit) for *_, rep in levels]
    tu, tv = levels[-1][1]
    return OrderedPairResult(
        u=tu, v=tv, audits=audits, ordering_margin=ordering_margin(tu, tv),
        submodularity_ok=all(a["meet_ok"] and a["join_ok"] for a in audits),
        converged=levels[-1][2].converged)
