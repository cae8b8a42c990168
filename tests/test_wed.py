"""Weighted trajectory functional: weights, minimizer against a dense
linear-algebra oracle, fixed-point loop, continuation, residuals."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import wedflow
from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, ReactionSpec, Trajectory, WedProblem,
                     build_grid, constant_trajectory, default_eps_schedule, dual_field,
                     eps_continuation, euler_lagrange_residual,
                     fixed_point_solve, minimize_wed, reference_solve,
                     strong_solution_residual, wed_value_grad)
from wedflow.wed import _wed_kernel, _weights

from conftest import (heat_problem, line_grid, same_bits,
                      scalar_decay_problem)


# ---------------------------------------------------------------------------
# weights and schedules
# ---------------------------------------------------------------------------

def test_dissipation_weight_is_the_exact_interval_integral():
    eps, T, N = 0.07, 1.0, 40
    a, b = _weights(eps, T, N)
    t = np.linspace(0.0, T, N + 1)
    beta = np.exp(-t / eps)
    assert np.allclose(b, beta[1:] * (T / N), rtol=1e-13, atol=0.0)
    # a_n = eps * integral of the weight over (t_{n-1}, t_n]
    exact = eps * eps * (beta[:-1] - beta[1:])
    assert np.allclose(a, exact, rtol=1e-11, atol=0.0)


def test_default_schedule_shape():
    sched = default_eps_schedule(1.0, 200)
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert sched[-1] == max(2.0 / 200, 1e-3, 1.0 / 700)
    assert all(0.0 < e < 1.0 for e in sched)


# ---------------------------------------------------------------------------
# minimizer against an independently assembled dense quadratic
# ---------------------------------------------------------------------------

def test_minimize_wed_matches_dense_solve():
    n, N, eps, T = 4, 6, 0.3, 1.0
    g = line_grid(n, spacing=0.25)
    problem = WedProblem(grid=g, dissipation=DissipationSpec(p=2.0),
                         energy1=EnergySpec(kind="m_laplace", m=2.0, B=1.0,
                                            C=0.0),
                         energy2=ConcaveSpec(),
                         reaction=ReactionSpec(), T=T, epsilon=eps,
                         initial=np.array([1.0, 0.2, -0.4, 0.6]))
    rng = np.random.default_rng(8)
    w = rng.normal(size=n)

    hd = g.cell_measure
    h = g.h
    dt = T / N
    a, b = _weights(eps, T, N)
    # 1D chain laplacian, assembled from scratch
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i] += hd / h ** 2
        L[i + 1, i + 1] += hd / h ** 2
        L[i, i + 1] -= hd / h ** 2
        L[i + 1, i] -= hd / h ** 2
    H = np.zeros((N * n, N * n))
    c = np.zeros(N * n)
    eye = np.eye(n)
    for k in range(N):          # unknown U_{k+1}
        blk = slice(k * n, (k + 1) * n)
        H[blk, blk] += (a[k] * hd / dt ** 2) * eye + b[k] * L
        if k + 1 < N:
            nxt = slice((k + 1) * n, (k + 2) * n)
            H[blk, blk] += (a[k + 1] * hd / dt ** 2) * eye
            H[blk, nxt] -= (a[k + 1] * hd / dt ** 2) * eye
            H[nxt, blk] -= (a[k + 1] * hd / dt ** 2) * eye
        c[blk] -= b[k] * hd * w
    c[:n] -= (a[0] * hd / dt ** 2) * problem.initial
    X = np.linalg.solve(H, -c)

    init = constant_trajectory(g, problem.initial, T, N)
    traj, rep = minimize_wed(problem, w, init)
    assert rep.converged
    assert np.allclose(traj.values[1:].ravel(), X, atol=1e-8)


def test_wed_value_grad_fd():
    problem = heat_problem(n=5, eps=0.25)
    N = 6
    rng = np.random.default_rng(9)
    vals = np.cumsum(rng.normal(size=(N + 1, 5)) * 0.2, axis=0)
    vals[0] = problem.initial
    traj = Trajectory(problem.grid, problem.T, vals)
    w = rng.normal(size=5)
    val, grad = wed_value_grad(problem, w, traj)
    h = 1e-6
    for (i, j) in [(1, 0), (3, 2), (6, 4), (2, 1)]:
        bump = vals.copy()
        bump[i, j] += h
        vp, _ = wed_value_grad(problem, w, Trajectory(
            problem.grid, problem.T, bump))
        bump[i, j] -= 2 * h
        vm, _ = wed_value_grad(problem, w, Trajectory(
            problem.grid, problem.T, bump))
        assert grad[i, j] == pytest.approx((vp - vm) / (2 * h), abs=1e-5)
    assert grad[0].max() == 0.0  # pinned slot carries no gradient


def test_minimize_wed_requires_pinned_init():
    problem = heat_problem(n=5)
    vals = np.tile(problem.initial, (4, 1))
    minimize_wed(problem, np.zeros(5), Trajectory(problem.grid, problem.T,
                                                  vals))
    vals[0, 2] += 1e-12
    traj = Trajectory(problem.grid, problem.T, vals)
    with pytest.raises(ConfigurationError, match="pinned rows"):
        minimize_wed(problem, np.zeros(5), traj)


# ---------------------------------------------------------------------------
# fixed point loop
# ---------------------------------------------------------------------------

def test_constant_dual_short_circuits():
    problem = heat_problem(n=6)
    traj, rep = fixed_point_solve(problem, steps=8)
    assert rep.converged
    assert rep.outer_iterations == 1
    assert rep.residual_history == [0.0]


def test_dual_field_for_potential_problem_is_zero():
    problem = heat_problem(n=5)
    traj = constant_trajectory(problem.grid, problem.initial, problem.T, 4)
    assert np.array_equal(dual_field(problem, traj), np.zeros((5, 5)))


@pytest.mark.parametrize("forcing", [
    np.ones(5),            # values for 5 of the 8 nodes
    np.ones((5, 8)),       # fewer rows than the 9 knots
    np.ones((20, 8)),      # more rows than the 9 knots
    np.full(8, np.nan),
])
def test_forcing_of_the_wrong_shape_is_named(monkeypatch, forcing):
    # N = 8 on 8 nodes: the forcing needs 8 finite values, or 1 or 9 rows
    # of them; the widths fail at construction, the rows at the first solve
    monkeypatch.setattr(wedflow.wed, "newton_solve", None)
    with pytest.raises(ConfigurationError, match="forcing") as info:
        fixed_point_solve(replace(heat_problem(n=8), forcing=forcing), 8)
    assert info.value.field == "forcing"


@pytest.mark.parametrize("field", ["initial", "forcing"])
def test_ragged_initial_or_forcing_is_named(field):
    with pytest.raises(ConfigurationError, match=field) as info:
        replace(heat_problem(n=3), **{field: [[1.0], [1.0, 2.0]]})
    assert info.value.field == field


def test_fixed_point_lv_smoke():
    g = line_grid(4, spacing=0.25)
    x = g.coords()[:, 0]
    u0 = 0.9 + 0.5 * np.cos(np.pi * x / x.max())
    v0 = np.full(4, 0.4)
    problem = WedProblem(
        grid=g, dissipation=DissipationSpec(p=2.0),
        energy1=EnergySpec(kind="lv_quadratic", D1=0.05, D2=0.05,
                           F1=0.0, F2=0.0),
        energy2=ConcaveSpec(),
        reaction=ReactionSpec(kind="lotka_volterra", A=1.0, K=2.0, B=0.5,
                              C=0.4, E=0.3),
        T=1.0, epsilon=0.2, initial=np.concatenate([u0, v0]))
    traj, rep = fixed_point_solve(problem, steps=8)
    assert rep.converged
    u = traj.values[:, :4]
    v = traj.values[:, 4:]
    assert u.min() >= -1e-8 and u.max() <= 2.0 + 1e-8
    assert v.min() >= -1e-8


@pytest.mark.parametrize("energy2", [
    ConcaveSpec(), ConcaveSpec(concave_q=2.0, concave_D=0.1)],
    ids=["forcing only", "concave"])
def test_init_with_the_wrong_knot_count_is_refused(monkeypatch, energy2):
    monkeypatch.setattr(wedflow.wed, "newton_solve", None)
    problem = replace(heat_problem(n=6), energy2=energy2)
    init = constant_trajectory(problem.grid, problem.initial, problem.T, 16)
    with pytest.raises(ConfigurationError,
                       match="init has the wrong number of knots"):
        fixed_point_solve(problem, 8, init=init)


def test_level_hessian_is_factored_once_and_dies_with_the_level(
        monkeypatch):
    # a concave part closes the loop; with a fractional energy and p = 2
    # its Hessian is the same in every outer iteration, and it is no
    # Kronecker sum, so it is filled and factored
    problem = replace(heat_problem(n=6),
                      energy1=EnergySpec(kind="fractional", s=0.4, gamma=0.5),
                      energy2=ConcaveSpec(concave_q=2.0, concave_D=0.1))
    held, factored = [], []
    real_hessian = wedflow.wed._constant_hessian
    real_splu = wedflow._newton.splu

    def watched(problem, init):
        H = real_hessian(problem, init)
        held.append(weakref.ref(H))
        return H

    def counted(A, **options):
        factored.append(A.shape)
        return real_splu(A, **options)

    monkeypatch.setattr(wedflow.wed, "_constant_hessian", watched)
    monkeypatch.setattr(wedflow._newton, "splu", counted)
    _, rep = fixed_point_solve(problem, 8)
    assert rep.converged and rep.outer_iterations > 2
    # one Hessian for the loop, whose one LU served every outer iteration
    assert len(held) == 1 and len(factored) == 1
    gc.collect()
    assert held[0]() is None


def test_level_fast_diagonalization_is_built_once_and_factors_nothing(
        monkeypatch):
    # with m = 2 and p = 2 on a line the level's Hessian is a Kronecker
    # sum: one fast diagonalization serves every outer iteration
    problem = replace(heat_problem(n=6),
                      energy2=ConcaveSpec(concave_q=2.0, concave_D=0.1))
    built, factored = [], []
    real_hessian = wedflow.wed._constant_hessian

    def watched(problem, init):
        built.append(real_hessian(problem, init))
        return built[-1]

    monkeypatch.setattr(wedflow.wed, "_constant_hessian", watched)
    monkeypatch.setattr(wedflow._newton, "splu",
                        lambda A, **options: factored.append(A.shape))
    _, rep = fixed_point_solve(problem, 8)
    assert rep.converged and rep.outer_iterations > 2
    assert len(built) == 1 and factored == []
    assert isinstance(built[0], wedflow._newton.FastDiagonalization)


# ---------------------------------------------------------------------------
# continuation and residuals
# ---------------------------------------------------------------------------

def test_eps_continuation_validation():
    problem = heat_problem(n=5)
    with pytest.raises(ConfigurationError):
        eps_continuation(problem, [], 8)
    with pytest.raises(ConfigurationError):
        eps_continuation(problem, [0.1, 0.1], 8)
    with pytest.raises(ConfigurationError):
        eps_continuation(problem, [2.0, 0.1], 8)


def test_euler_lagrange_residual_small_at_minimizer():
    problem = heat_problem(n=9, eps=0.1)
    traj, rep = fixed_point_solve(problem, steps=16)
    assert rep.converged
    el = euler_lagrange_residual(problem, traj)
    assert el["max"] <= 1e-7
    assert el["per_time"].size == 16


def test_strong_residual_shrinks_with_eps():
    problem = heat_problem(n=9)
    cont = eps_continuation(problem, [0.2, 0.05], 32)
    res = [strong_solution_residual(traj, problem)
           for _, traj in cont.family]
    assert res[1] < res[0]


def test_reference_solve_neumann_heat_behaviour():
    problem = heat_problem(n=8)
    ref = reference_solve(problem, 24)
    means = ref.values.mean(axis=1)
    assert np.allclose(means, means[0], atol=1e-8)  # mass is conserved
    spread = ref.values.max(axis=1) - ref.values.min(axis=1)
    assert np.all(np.diff(spread) <= 1e-12)         # diffusion contracts


def test_scalar_wed_tracks_decay_at_moderate_eps():
    problem = scalar_decay_problem(eps=0.05)
    traj, rep = fixed_point_solve(problem, steps=100)
    assert rep.converged
    t = np.linspace(0.0, 1.0, 101)
    err = np.max(np.abs(traj.values[:, 0] - np.exp(-t)))
    assert err <= 5e-2


def test_functional_value_is_the_running_sum_over_slices():
    """The whole-trajectory kernel adds the slice terms in time order, so
    the value keeps the rounding of a slice-by-slice running sum (the
    finite-difference checks of the verify suites amplify any change)."""
    from wedflow.energies import A_eval, energy1_value_grad
    problem = replace(heat_problem(n=7, eps=0.15, spacing=0.3),
                      dissipation=DissipationSpec(p=3.0),
                      energy1=EnergySpec(kind="m_laplace", m=3.0, B=0.8,
                                         C=0.4))
    rng = np.random.default_rng(11)
    N = 9
    vals = problem.initial + np.cumsum(
        np.vstack([np.zeros(7), 0.2 * rng.normal(size=(N, 7))]), axis=0)
    traj = Trajectory(problem.grid, problem.T, vals)
    w = rng.normal(size=(N + 1, 7))
    value, _ = wed_value_grad(problem, w, traj)
    a, b = _weights(problem.epsilon, problem.T, N)
    hd = problem.grid.cell_measure
    rates = np.diff(vals, axis=0) / traj.dt
    expect = 0.0
    expect += float(np.sum(a[:, None] * A_eval(problem.dissipation, rates))
                    * hd)
    for n in range(1, N + 1):
        v1, _ = energy1_value_grad(problem.energy1, problem.grid, vals[n])
        expect += b[n - 1] * (v1 - hd * float(w[n] @ vals[n]))
    assert value == expect


# ---------------------------------------------------------------------------
# the kernel's gradient-only mode
# ---------------------------------------------------------------------------

_ENERGIES = {
    "quadratic": EnergySpec(kind="quadratic", gamma=1.3),
    "fractional": EnergySpec(kind="fractional", s=0.4, gamma=0.5),
    "lv_quadratic": EnergySpec(kind="lv_quadratic", D1=1.0, D2=0.5, F1=0.3,
                               F2=0.2),
    "m_laplace-m2": EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.2),
    "m_laplace-m3": EnergySpec(kind="m_laplace", m=3.0, B=0.8, C=0.4),
}

_DISSIPATIONS = {
    "power-p2": DissipationSpec(p=2.0),
    "power-p3": DissipationSpec(p=3.0),
    "table": DissipationSpec(p=2.0, alpha_kind="table",
                             table_s=np.array([-1.0, 0.0, 0.5, 1.0]),
                             table_alpha=np.array([-2.0, 0.0, 0.1, 1.0])),
}


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble],
                         ids=["float64", "longdouble"])
@pytest.mark.parametrize("dissipation", sorted(_DISSIPATIONS))
@pytest.mark.parametrize("energy", sorted(_ENERGIES))
def test_gradient_only_kernel_keeps_every_gradient_bit(energy, dissipation,
                                                       dtype):
    """value=False, the Newton gradient's mode (np.longdouble in the
    polish), gives the gradient of the value-and-gradient call byte for
    byte, on one trajectory and on a stack of them."""
    spec = _ENERGIES[energy]
    n, N = 6, 5
    n_dof = 2 * n if spec.kind == "lv_quadratic" else n
    rng = np.random.default_rng(12)
    # a robin boundary adds the m_laplace kind's boundary term
    grid = build_grid(dim=1, shape=(n,), spacing=(0.2,), robin_b=0.5,
                      boundary="robin" if spec.kind == "m_laplace"
                      else "neumann")
    problem = WedProblem(grid=grid,
                         dissipation=_DISSIPATIONS[dissipation],
                         energy1=spec, energy2=ConcaveSpec(),
                         reaction=ReactionSpec(), T=1.0, epsilon=0.2,
                         initial=1.0 + 0.3 * rng.standard_normal(n_dof))
    w = rng.standard_normal((N + 1, n_dof))
    U = problem.initial + np.cumsum(
        0.3 * rng.standard_normal((3, N + 1, n_dof)), axis=1)
    U[:, 0] = problem.initial
    U[0, 2, :2] = -0.0
    for X in (U[0], U):
        X = X.astype(dtype)
        full_value, full = _wed_kernel(problem, w, X, problem.T / N)
        value, grad = _wed_kernel(problem, w, X, problem.T / N, value=False)
        assert value is None and full_value is not None
        assert grad.dtype == dtype and grad.shape == X.shape
        assert same_bits(grad, full)
