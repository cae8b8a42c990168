"""Lattice structure of the weighted functional: the potential-value
assembly against a direct sum, submodularity on random pairs, and the
ordered-pair driver."""

from dataclasses import replace

import numpy as np
import pytest

from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, ReactionSpec, Trajectory, WedProblem,
                     comparison, fixed_point_solve, lattice_pair,
                     lattice_value_audit, ordered_minimizers,
                     ordering_margin, submodularity_check,
                     wed_potential_value)
from wedflow.comparison import _check_ordered_initials
from wedflow.energies import energy1_value_grad, energy2_value_grad
from wedflow.wed import continuation

from conftest import heat_problem, line_grid


def direct_potential_value(problem, traj):
    # same functional, assembled from the exponential weights directly
    N = traj.steps
    dt = problem.T / N
    eps = problem.epsilon
    beta = np.exp(-np.arange(N + 1) * dt / eps)
    b = beta[1:] * dt
    a = eps ** 2 * (beta[:-1] - beta[1:])
    hd = problem.grid.cell_measure
    p = problem.dissipation.p
    val = 0.0
    for k in range(N):
        rate = (traj.values[k + 1] - traj.values[k]) / dt
        val += a[k] * hd * float(np.sum(np.abs(rate) ** p) / p)
    for n in range(1, N + 1):
        v1, _ = energy1_value_grad(problem.energy1, problem.grid,
                                   traj.values[n])
        v2, _ = energy2_value_grad(problem.energy2, problem.grid,
                                   traj.values[n])
        knot = v1 - v2
        if problem.forcing is not None:
            f = problem.forcing
            fn = f[n] if f.ndim == 2 else f
            knot -= hd * float(fn @ traj.values[n])
        val += b[n - 1] * knot
    return val


def random_trajectory(problem, N, rng, scale=1.0):
    vals = np.cumsum(rng.standard_normal((N + 1, problem.n_dof)) * scale,
                     axis=0)
    vals[0] = problem.initial
    return Trajectory(problem.grid, problem.T, vals)


def test_potential_value_matches_direct_sum():
    rng = np.random.default_rng(3)
    problem = heat_problem(n=5, eps=0.3, boundary="dirichlet")
    traj = random_trajectory(problem, 6, rng)
    lib = wed_potential_value(problem, traj)
    ref = direct_potential_value(problem, traj)
    assert abs(lib - ref) <= 1e-12 * (1.0 + abs(ref))


def test_potential_value_with_p3_and_fixed_source():
    rng = np.random.default_rng(4)
    base = heat_problem(n=5, eps=0.25)
    problem = replace(
        base,
        dissipation=DissipationSpec(p=3.0),
        forcing=rng.standard_normal(5))
    traj = random_trajectory(problem, 5, rng)
    lib = wed_potential_value(problem, traj)
    ref = direct_potential_value(problem, traj)
    assert abs(lib - ref) <= 1e-12 * (1.0 + abs(ref))


def test_potential_value_rejects_two_species_source():
    g = line_grid(3)
    problem = WedProblem(
        grid=g,
        dissipation=DissipationSpec(p=2.0),
        energy1=EnergySpec(kind="lv_quadratic", D1=0.1, D2=0.1),
        energy2=ConcaveSpec(),
        reaction=ReactionSpec(kind="lotka_volterra", A=1.0, K=2.0,
                              B=0.5, C=0.5, E=0.1),
        T=1.0, epsilon=0.2, initial=np.full(6, 0.5))
    traj = random_trajectory(problem, 4, np.random.default_rng(0), scale=0.1)
    with pytest.raises(ConfigurationError):
        wed_potential_value(problem, traj)


def test_lattice_pair_sum_identity_bitwise():
    rng = np.random.default_rng(11)
    problem = heat_problem(n=7)
    u = random_trajectory(problem, 8, rng)
    v = random_trajectory(problem, 8, rng)
    meet, join = lattice_pair(u, v)
    assert np.array_equal(meet.values + join.values, u.values + v.values)
    assert np.all(meet.values <= join.values)


def test_ordered_initials_guard():
    _check_ordered_initials(np.zeros(4), np.full(4, 0.5))
    with pytest.raises(ConfigurationError):
        _check_ordered_initials(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError):
        _check_ordered_initials(np.zeros(3), np.zeros(4))


def test_submodularity_nonnegative_on_random_pairs():
    rng = np.random.default_rng(7)
    quad = heat_problem(n=6, eps=0.3)
    cubic = replace(quad, energy1=EnergySpec(kind="m_laplace", m=3,
                                             B=0.7, C=0.4))
    for problem in (quad, cubic):
        for _ in range(60):
            a = random_trajectory(problem, 6, rng)
            b = random_trajectory(problem, 6, rng)
            lo = np.minimum(a.values[0], b.values[0])
            hi = np.maximum(a.values[0], b.values[0])
            u = Trajectory(problem.grid, problem.T,
                           np.vstack([[lo], a.values[1:]]))
            v = Trajectory(problem.grid, problem.T,
                           np.vstack([[hi], b.values[1:]]))
            assert submodularity_check(problem, u, v) >= -1e-10


def test_submodularity_requires_ordered_initials():
    rng = np.random.default_rng(9)
    problem = heat_problem(n=5)
    u = random_trajectory(problem, 4, rng)
    v = Trajectory(problem.grid, problem.T, u.values - 1.0)
    with pytest.raises(ConfigurationError):
        submodularity_check(problem, u, v)  # v starts strictly below u


def knot_indexed_problem(N, kind, rng):
    # the forcing is a table over the knots, the sum of two draws
    base = heat_problem(n=5, eps=0.25)
    energy1 = base.energy1 if kind == "m_laplace" \
        else EnergySpec(kind="fractional", s=0.5, gamma=0.5)
    return replace(
        base, energy1=energy1,
        energy2=ConcaveSpec(concave_q=3.0, concave_D=0.2),
        forcing=rng.standard_normal((N + 1, 5))
        + rng.standard_normal((N + 1, 5)))


@pytest.mark.parametrize("kind", ["m_laplace", "fractional"])
def test_stacked_pricing_equals_one_call_per_trajectory(kind):
    rng = np.random.default_rng(12)
    N = 6
    problem = knot_indexed_problem(N, kind, rng)
    us = [random_trajectory(problem, N, rng) for _ in range(4)]
    vs = [Trajectory(problem.grid, problem.T, w)
          for w in (u.values + rng.random(u.values.shape) for u in us)]
    U = np.stack([u.values for u in us])
    V = np.stack([v.values for v in vs])
    values = wed_potential_value(problem, U)
    assert values.shape == (4,)
    assert np.array_equal(values, [wed_potential_value(problem, u)
                                   for u in us])
    for value, u in zip(values, us):
        ref = direct_potential_value(problem, u)
        assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref))
    margins = submodularity_check(problem, U, V)
    assert margins.shape == (4,)
    assert np.array_equal(margins, [submodularity_check(problem, u, v)
                                    for u, v in zip(us, vs)])
    with pytest.raises(ConfigurationError):
        submodularity_check(problem, V, U)


def test_ordering_margin_sign():
    problem = heat_problem(n=4)
    rng = np.random.default_rng(2)
    u = random_trajectory(problem, 3, rng)
    above = Trajectory(problem.grid, problem.T, u.values + 0.25)
    assert ordering_margin(u, above) == pytest.approx(0.25)
    assert ordering_margin(above, u) == pytest.approx(-0.25)


def make_ordered_pair(n=6):
    problem = heat_problem(n=n)
    base = problem.initial
    return problem, 0.8 * base, 0.8 * base + 0.2


def test_ordered_minimizers_tiny_heat():
    problem, u0, v0 = make_ordered_pair()
    res = ordered_minimizers(problem, u0, v0, schedule=(0.2, 0.1), steps=12)
    assert res.ordering_margin >= -1e-10
    assert res.submodularity_ok
    assert len(res.audits) == 2
    for audit in res.audits:
        assert audit["meet_ok"] and audit["join_ok"]
        assert set(audit) == {"epsilon", "value_u", "value_v", "value_meet",
                              "value_join", "meet_excess", "join_excess",
                              "meet_ok", "join_ok"}
    # pins survive the lattice swap
    assert np.array_equal(res.u.values[0], u0)
    assert np.array_equal(res.v.values[0], v0)


def test_ordered_minimizers_deterministic():
    problem, u0, v0 = make_ordered_pair()
    r1 = ordered_minimizers(problem, u0, v0, schedule=(0.2, 0.1), steps=12)
    r2 = ordered_minimizers(problem, u0, v0, schedule=(0.2, 0.1), steps=12)
    assert np.array_equal(r1.u.values, r2.u.values)
    assert np.array_equal(r1.v.values, r2.v.values)
    assert r1.ordering_margin == r2.ordering_margin


def test_ordered_minimizers_validation():
    problem, u0, v0 = make_ordered_pair()
    with pytest.raises(ConfigurationError):
        ordered_minimizers(problem, v0, u0, schedule=(0.2,), steps=8)
    with pytest.raises(ConfigurationError):
        ordered_minimizers(problem, u0, v0, schedule=(0.1, 0.2), steps=8)


@pytest.mark.parametrize("bad", ["nan", "inf", "short", "long"])
def test_ordered_minimizers_reject_a_bad_partner_state(bad):
    """The partner state must be finite and of the problem's size."""
    problem, u0, v0 = make_ordered_pair()
    v0 = {"nan": np.where(np.arange(v0.size) == 2, np.nan, v0),
          "inf": np.where(np.arange(v0.size) == 2, np.inf, v0),
          "short": v0[:-1], "long": np.append(v0, 1.0)}[bad]
    with pytest.raises(ConfigurationError):
        ordered_minimizers(problem, u0, v0, schedule=(0.2,), steps=8)


def test_lattice_value_audit_keys():
    problem, u0, v0 = make_ordered_pair()
    res = ordered_minimizers(problem, u0, v0, schedule=(0.2,), steps=8)
    audit = lattice_value_audit(replace(problem, epsilon=0.2), res.u, res.v)
    assert set(audit) == {"value_u", "value_v", "value_meet", "value_join",
                          "meet_excess", "join_excess", "meet_ok", "join_ok"}


def test_ordered_minimizers_reuse_the_main_continuation(monkeypatch):
    problem = heat_problem(n=6)
    u0, v0 = problem.initial, problem.initial + 0.2
    sched = (0.2, 0.1, 0.05)
    levels = continuation(
        lambda eps, warm: fixed_point_solve(replace(problem, epsilon=eps),
                                            12, init=warm), sched, problem.T)
    fresh = ordered_minimizers(problem, u0, v0, schedule=sched, steps=12)
    solved = []
    real = comparison.fixed_point_solve

    def counted(p, steps, **options):
        solved.append(p.epsilon)
        return real(p, steps, **options)

    monkeypatch.setattr(comparison, "fixed_point_solve", counted)
    reused = ordered_minimizers(problem, u0, v0, schedule=sched, steps=12,
                                u_levels=levels)
    assert solved == list(sched)  # the v member only
    # levels of another knot count are solved, both members at every level
    solved.clear()
    coarse = ordered_minimizers(problem, u0, v0, schedule=sched, steps=8,
                                u_levels=levels)
    assert solved == [eps for eps in sched for _ in "uv"]
    monkeypatch.undo()
    for pair, ref in ((reused, fresh), (coarse, ordered_minimizers(
            problem, u0, v0, schedule=sched, steps=8))):
        assert np.array_equal(pair.u.values, ref.u.values)
        assert np.array_equal(pair.v.values, ref.v.values)
        assert pair.audits == ref.audits
        assert pair.ordering_margin == ref.ordering_margin
        assert pair.submodularity_ok == ref.submodularity_ok
        assert pair.converged == ref.converged
