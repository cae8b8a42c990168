"""The weight continuation shared by every solver family: schedule
validation, warm starts, and stopping at the first unconverged level."""

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

import wedflow.comparison as comparison_mod
import wedflow.rateind as rateind_mod
import wedflow.wed as wed_mod
import wedflow.wide as wide_mod
from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, LagrangianProblem, ReactionSpec, RIProblem,
                     WedProblem, build_grid, eps_continuation,
                     ordered_minimizers, ordered_ri_minimizers,
                     ri_continuation, wide_continuation)
from wedflow.wed import continuation, euler_lagrange_residual

from conftest import heat_problem, point_grid

SCHEDULE = (0.2, 0.1, 0.05)


def ramp_problem(steps=20):
    t = np.linspace(0.0, 1.0, steps + 1)
    h = np.interp(t, [0.0, 0.5, 0.75, 1.0], [0.0, 1.5, 0.5, 0.5])
    return RIProblem(grid=point_grid(), phi_coeffs=(0.0, 0.0, 0.5), a=0.0,
                     forcing=h[:, None], T=1.0, epsilon=0.2,
                     initial=np.zeros(1))


def oscillator():
    return LagrangianProblem(d=1, M=np.eye(1), nu=0.0, u_kind="quadratic",
                             T=1.0, epsilon=0.2, initial=np.ones(1),
                             velocity=np.zeros(1))


def heat_pair():
    problem = heat_problem(n=5)
    base = problem.initial
    return problem, 0.8 * base, 0.8 * base + 0.2


def fail_call(monkeypatch, module, name: str, which: int) -> list:
    """Rebind module.name so that its `which`-th call (1-based) reports
    non-convergence; returns the list that records the calls."""
    real = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        state, report = real(*args, **kwargs)
        calls.append(report)
        if len(calls) == which:
            report = replace(report, converged=False)
        return state, report

    monkeypatch.setattr(module, name, patched)
    return calls


# ---------------------------------------------------------------------------
# the driver itself
# ---------------------------------------------------------------------------

class _Report:
    def __init__(self, converged):
        self.converged = converged


def test_driver_warm_starts_each_level_from_the_previous():
    seen = []

    def level(eps, warm):
        seen.append(warm)
        return eps * 10, _Report(True)

    levels = continuation(level, SCHEDULE, T=1.0)
    assert [eps for eps, _, _ in levels] == list(SCHEDULE)
    assert seen == [None, 2.0, 1.0]
    assert [state for _, state, _ in levels] == [2.0, 1.0, 0.5]


def test_driver_stops_at_first_unconverged_level():
    levels = continuation(lambda eps, warm: (eps, _Report(eps > 0.15)),
                          SCHEDULE, T=1.0)
    assert [eps for eps, _, _ in levels] == [0.2, 0.1]
    assert not levels[-1][2].converged


@pytest.mark.parametrize("schedule", [[], [0.1, 0.2], [0.2, 0.2],
                                      [1.5, 0.1], [0.2, 0.0]])
def test_driver_rejects_bad_schedules(schedule):
    with pytest.raises(ConfigurationError):
        continuation(lambda eps, warm: (eps, _Report(True)), schedule, T=1.0)


# ---------------------------------------------------------------------------
# the five bindings: a failure at level 2 stops the run there and flags it
# ---------------------------------------------------------------------------

def run_eps(monkeypatch):
    calls = fail_call(monkeypatch, wed_mod, "fixed_point_solve", 2)
    cont = eps_continuation(heat_problem(n=5), SCHEDULE, steps=8)
    assert len(cont.family) == 1
    assert cont.final is cont.family[-1][1]
    return calls, len(cont.reports), cont.aborted


def run_ri(monkeypatch):
    calls = fail_call(monkeypatch, rateind_mod, "minimize_wed_ri", 2)
    fam = ri_continuation(ramp_problem(), SCHEDULE)
    return calls, len(fam), not fam[-1][2].converged


def run_wide(monkeypatch):
    calls = fail_call(monkeypatch, wide_mod, "minimize_wide", 2)
    fam = wide_continuation(oscillator(), SCHEDULE, steps=16)
    return calls, len(fam), not fam[-1][2].converged


def run_ordered(monkeypatch):
    # calls 1 and 2 solve level 1; call 3 is the lower member of level 2
    calls = fail_call(monkeypatch, comparison_mod, "fixed_point_solve", 3)
    problem, u0, v0 = heat_pair()
    res = ordered_minimizers(problem, u0, v0, schedule=SCHEDULE, steps=8)
    return calls, len(res.audits), not res.converged


def run_ordered_ri(monkeypatch):
    calls = fail_call(monkeypatch, rateind_mod, "minimize_wed_ri", 3)
    res = ordered_ri_minimizers(ramp_problem(), np.zeros(1),
                                0.5 * np.ones(1), schedule=SCHEDULE)
    return calls, len(res.audits), not res.converged


@pytest.mark.parametrize("driver, solves_per_level", [
    (run_eps, 1), (run_ri, 1), (run_wide, 1), (run_ordered, 2),
    (run_ordered_ri, 2)])
def test_unconverged_level_stops_and_flags(monkeypatch, driver,
                                           solves_per_level):
    calls, levels, flagged = driver(monkeypatch)
    assert levels == 2
    assert len(calls) == 2 * solves_per_level   # no later level ran
    assert flagged


def test_unflagged_runs_report_convergence():
    problem, u0, v0 = heat_pair()
    assert ordered_minimizers(problem, u0, v0, schedule=(0.2, 0.1),
                              steps=8).converged
    assert ordered_ri_minimizers(ramp_problem(), np.zeros(1),
                                 0.5 * np.ones(1),
                                 schedule=(0.2, 0.1)).converged


# ---------------------------------------------------------------------------
# a converged level solves its Euler-Lagrange system: a differential sweep
# ---------------------------------------------------------------------------

SWEEP_GRIDS = {
    "line-neumann": dict(dim=1, shape=(12,), spacing=(1 / 11,),
                         boundary="neumann"),
    "line-dirichlet": dict(dim=1, shape=(12,), spacing=(1 / 11,),
                           boundary="dirichlet"),
    "line-robin": dict(dim=1, shape=(12,), spacing=(1 / 11,),
                       boundary="robin", robin_b=0.7),
    "square-neumann": dict(dim=2, shape=(6, 6), spacing=(0.2, 0.2),
                           boundary="neumann", domain_kind="rectangle"),
    "point": dict(dim=1, shape=(1,), spacing=(1.0,), boundary="neumann",
                  domain_kind="point"),
}
SWEEP_ENERGIES = {
    "quadratic": dict(kind="quadratic", gamma=1.0),
    "m2": dict(kind="m_laplace", m=2.0, B=1.0, C=0.0),
    "m3": dict(kind="m_laplace", m=3.0, B=1.0, C=0.0),
    "m4": dict(kind="m_laplace", m=4.0, B=1.0, C=0.0),
    "fractional": dict(kind="fractional", s=0.4, gamma=0.5),
}
# grids x energies (a point grid takes the quadratic energy only) x the
# dissipation exponent p x the concave exponent q (none, 2 or 3): 189
# configurations, about 11 s in all; tier-1 runs a fixed sample of them
SWEEP = [(g, e, p, q) for g, e, p, q in itertools.product(
    SWEEP_GRIDS, SWEEP_ENERGIES, (1.5, 2.0, 3.0), (None, 2.0, 3.0))
    if g != "point" or e == "quadratic"]


@pytest.mark.parametrize("grid, energy, p, q",
                         random.Random(1).sample(SWEEP, 24))
def test_every_converged_level_solves_its_euler_lagrange_system(
        grid, energy, p, q):
    # the level's report may flag it; a level that reports convergence
    # must hold its stationarity conditions at its own weight. Before the
    # fixed-point loop read its inner solves, 12 of the configurations
    # with p = 3 and a concave part reported a fixed point with a
    # residual of 2.5-3.1: the start, which the inner solve never left
    g = build_grid(**SWEEP_GRIDS[grid])
    x = g.coords()[:, 0]
    problem = WedProblem(
        grid=g, dissipation=DissipationSpec(p=p),
        energy1=EnergySpec(**SWEEP_ENERGIES[energy]),
        energy2=ConcaveSpec() if q is None
        else ConcaveSpec(concave_q=q, concave_D=0.3),
        reaction=ReactionSpec(), T=1.0, epsilon=SCHEDULE[0],
        initial=1.0 + 0.3 * np.cos(np.pi * x / max(x.max(), 1.0)))
    cont = eps_continuation(problem, SCHEDULE, steps=48)
    for eps, traj in cont.family:
        residual = euler_lagrange_residual(replace(problem, epsilon=eps),
                                           traj)
        assert residual["max"] <= 1e-7


# ---------------------------------------------------------------------------
# schedule validation reaches every binding
# ---------------------------------------------------------------------------

def drivers_with(schedule) -> dict:
    problem, u0, v0 = heat_pair()
    return {
        "eps": lambda: eps_continuation(problem, schedule, steps=8),
        "ri": lambda: ri_continuation(ramp_problem(), schedule),
        "wide": lambda: wide_continuation(oscillator(), schedule, steps=16),
        "ordered": lambda: ordered_minimizers(problem, u0, v0,
                                              schedule=schedule, steps=8),
        "ordered_ri": lambda: ordered_ri_minimizers(
            ramp_problem(), np.zeros(1), 0.5 * np.ones(1),
            schedule=schedule),
    }


@pytest.mark.parametrize("name", ["eps", "ri", "wide", "ordered",
                                  "ordered_ri"])
def test_every_driver_rejects_empty_schedule(name):
    with pytest.raises(ConfigurationError):
        drivers_with([])[name]()


def test_ordered_ri_minimizers_rejects_increasing_schedule():
    with pytest.raises(ConfigurationError):
        drivers_with([0.1, 0.2])["ordered_ri"]()
