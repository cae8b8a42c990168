"""Order structure of weighted-energy minimizers.

For potential problems (the state-dependent source is absent or a fixed
field g) the functional evaluated on componentwise min and max of two
trajectories never exceeds the sum on the originals. That inequality is
what `submodularity_check` measures, and `ordered_minimizers` exploits it:
minimizing from ordered initial states and swapping the pair for its
lattice combination at every weight level produces two solutions with
u(t) <= v(t) everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import ConfigurationError, Field, Trajectory
from .energies import (_rowdot, _sequential_sum, energy1_value_grad,
                       energy2_value_grad, reaction_eval)
from .wed import (PairReport, WedProblem, _dissipation_value, _weights,
                  continuation, fixed_point_solve)

AUDIT_TOL = 1e-9


def _require_potential(problem: WedProblem) -> None:
    if problem.reaction.kind == "lotka_volterra":
        raise ConfigurationError(
            "comparison requires a potential problem; the two-species "
            "source is not a fixed field")


def wed_potential_value(problem: WedProblem, traj: Trajectory) -> float:
    """Value of the weighted functional with every non-dissipative term
    inside the integrand: rate term + phi1 - phi2 - <g, u> per knot."""
    _require_potential(problem)
    N = traj.steps
    dt = problem.T / N
    _, b = _weights(problem.epsilon, problem.T, N)
    hd = problem.grid.cell_measure
    U = traj.values
    slices = np.arange(1, N + 1)
    v1, _ = energy1_value_grad(problem.energy1, problem.grid, U[1:])
    v2, _ = energy2_value_grad(problem.energy2, problem.grid, U[1:], slices)
    knot = v1 - v2
    if problem.reaction.kind == "constant_g":
        g = reaction_eval(problem.reaction, U[1:], slices)
        knot -= hd * _rowdot(g, U[1:])
    return _sequential_sum(_dissipation_value(problem, U, dt), b * knot)


def _check_ordered_initials(u0: np.ndarray, v0: np.ndarray) -> None:
    if u0.shape != v0.shape:
        raise ConfigurationError("initial states live on different grids")
    if np.any(u0 > v0):
        raise ConfigurationError("initial states are not ordered (u0 <= v0)")


def lattice_pair(u: Trajectory, v: Trajectory) -> tuple:
    """Row-wise (min, max) of two trajectories. Selection only, so the
    identity meet + join = u + v holds bitwise."""
    mn = np.minimum(u.values, v.values)
    mx = np.maximum(u.values, v.values)
    meet = Trajectory(u.grid, u.T, mn, pinned_initial=mn[0], ncomp=u.ncomp)
    join = Trajectory(u.grid, u.T, mx, pinned_initial=mx[0], ncomp=u.ncomp)
    return meet, join


def submodularity_check(problem: WedProblem, u: Trajectory,
                        v: Trajectory) -> float:
    """I(u) + I(v) - I(min) - I(max); nonnegative (to roundoff) whenever
    the problem is potential."""
    _check_ordered_initials(u.values[0], v.values[0])
    meet, join = lattice_pair(u, v)
    return (wed_potential_value(problem, u)
            + wed_potential_value(problem, v)
            - wed_potential_value(problem, meet)
            - wed_potential_value(problem, join))


def lattice_value_audit(problem: WedProblem, u: Trajectory,
                        v: Trajectory) -> dict:
    """The four functional values and the two one-sided margins: the meet
    must not beat u's value by more than roundoff, the join must not beat
    v's. Inputs are expected to be minimizers of their pinned classes."""
    meet, join = lattice_pair(u, v)
    iu = wed_potential_value(problem, u)
    iv = wed_potential_value(problem, v)
    im = wed_potential_value(problem, meet)
    ij = wed_potential_value(problem, join)
    return {
        "value_u": iu, "value_v": iv, "value_meet": im, "value_join": ij,
        "meet_excess": im - iu, "join_excess": ij - iv,
        "meet_ok": im <= iu + AUDIT_TOL * (1.0 + abs(iu)),
        "join_ok": ij <= iv + AUDIT_TOL * (1.0 + abs(iv)),
    }


@dataclass
class OrderedPairResult:
    u: Trajectory
    v: Trajectory
    audits: list          # one dict per weight level
    ordering_margin: float
    submodularity_ok: bool
    converged: bool = True   # every member solve of every level converged

    def to_json(self) -> str:
        def scalar(val):
            if isinstance(val, (bool, np.bool_)):
                return bool(val)
            if isinstance(val, (float, np.floating)):
                return repr(float(val))
            return val

        payload = {
            "ordering_margin": repr(float(self.ordering_margin)),
            "submodularity_ok": bool(self.submodularity_ok),
            "levels": [{k: scalar(val) for k, val in audit.items()}
                       for audit in self.audits],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def ordering_margin(u: Trajectory, v: Trajectory) -> float:
    """min over nodes and times of v - u; nonnegative means ordered."""
    return float(np.min(v.values - u.values))


def ordered_minimizers(problem: WedProblem, u0: Field, v0: Field,
                       schedule: Optional[Sequence[float]] = None,
                       steps: int = 32, gtol: float = 1e-10,
                       tol: float = 1e-10) -> OrderedPairResult:
    """Minimize from both initial states along the weight schedule; after
    each level, swap the pair for its componentwise min and max (both are
    minimizers again, which the audit verifies) and warm-start the next
    level from the swapped pair. The final pair is ordered at every node
    and time."""
    _require_potential(problem)
    u0v = np.asarray(u0.values, dtype=float)
    v0v = np.asarray(v0.values, dtype=float)
    _check_ordered_initials(u0v, v0v)
    if schedule is None:
        schedule = (problem.epsilon,)

    def level(eps, warm):
        warm_u, warm_v = warm or (None, None)
        tu, rep_u = fixed_point_solve(replace(problem, epsilon=eps,
                                              initial=u0v), steps,
                                      init=warm_u, gtol=gtol, tol=tol)
        tv, rep_v = fixed_point_solve(replace(problem, epsilon=eps,
                                              initial=v0v), steps,
                                      init=warm_v, gtol=gtol, tol=tol)
        audit = lattice_value_audit(replace(problem, epsilon=eps), tu, tv)
        audit["epsilon"] = eps
        return lattice_pair(tu, tv), PairReport(
            audit, rep_u.converged and rep_v.converged)

    levels = continuation(level, schedule, problem.T)
    audits = [rep.audit for *_, rep in levels]
    tu, tv = levels[-1][1]
    return OrderedPairResult(
        u=tu, v=tv, audits=audits, ordering_margin=ordering_margin(tu, tv),
        submodularity_ok=all(a["meet_ok"] and a["join_ok"] for a in audits),
        converged=levels[-1][2].converged)
