"""The damped Newton engine shared by the trajectory solvers."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from wedflow import (ConfigurationError, DissipationSpec, EnergySpec,
                     LagrangianProblem, ReactionSpec, RIProblem, WedProblem,
                     _newton, build_grid, constant_trajectory, minimize_wed,
                     minimize_wed_ri, minimize_wide)
from wedflow._newton import newton_solve

from conftest import heat_problem, line_grid


def test_full_step_solve_reuses_the_line_search_gradient():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    calls = []

    def grad_fn(x):
        calls.append(x.copy())
        return A @ x - b

    x, res, iters, converged = newton_solve(np.zeros(2), grad_fn,
                                            lambda x: A, np.ones(2))
    assert converged and iters == 1
    assert np.allclose(A @ x, b, atol=1e-14)
    # the start point and the accepted full step, nothing recomputed
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the pinned-trajectory front end and the backward-difference time coupling
# ---------------------------------------------------------------------------

def _chain(N: int, n_dof: int, seed: int):
    """Curvatures r, m and targets c of the quadratic trajectory objective
    sum_n r_n |u_n - u_{n-1}|^2 / 2 + m_n |u_n - c_n|^2 / 2, n = 1..N."""
    rng = np.random.default_rng(seed)
    r, m = rng.uniform(0.5, 2.0, (2, N, n_dof))
    return r, m, rng.standard_normal((N, n_dof))


def test_time_band_and_divergence_match_a_dense_assembly():
    N, n_dof = 4, 3
    r, m, c = _chain(N, n_dof, 1)
    U = np.random.default_rng(2).standard_normal((N + 1, n_dof))
    H = np.zeros((N * n_dof, N * n_dof))
    g = m * (U[1:] - c)
    for n in range(N):      # the difference into knot n+1
        for i in range(n_dof):
            a = n * n_dof + i
            H[a, a] += m[n, i] + r[n, i]
            g[n, i] += r[n, i] * (U[n + 1, i] - U[n, i])
            if n > 0:
                H[a - n_dof, a - n_dof] += r[n, i]
                H[a, a - n_dof] -= r[n, i]
                H[a - n_dof, a] -= r[n, i]
                g[n - 1, i] -= r[n, i] * (U[n + 1, i] - U[n, i])
    band = _newton.time_band(r, m)
    assert sp.isspmatrix_dia(band)
    assert np.array_equal(band.toarray(), H)
    got = m * (U[1:] - c)
    _newton.time_divergence(got, r * np.diff(U, axis=0))
    assert np.allclose(got, g, rtol=1e-15, atol=1e-15)
    assert np.array_equal(_newton.time_band(r[:1], m[:1]).toarray(),
                          np.diag(m[0] + r[0]))


def test_pinned_solve_keeps_the_pins_and_solves_the_rest():
    N, n_dof = 5, 2
    r, m, c = _chain(N, n_dof, 3)
    pin = np.array([[1.0, -1.0]])

    def grad(U):
        g = np.zeros_like(U)
        g[1:] = m * (U[1:] - c)
        _newton.time_divergence(g[1:], r * np.diff(U, axis=0))
        return g

    starts = []

    def solver(x0, grad_fn, hess_fn, scale, **options):
        starts.append(x0.copy())
        assert np.array_equal(scale, np.repeat(np.arange(1.0, N + 1), n_dof))
        return newton_solve(x0, grad_fn, hess_fn, scale, **options)

    U, res, iters, converged = _newton.pinned_solve(
        solver, pin, N, None, grad, lambda U: _newton.time_band(r, m),
        np.arange(1.0, N + 1), tol=1e-12)
    assert converged and res <= 1e-12 and U.shape == (N + 1, n_dof)
    assert np.array_equal(U[:1], pin)
    assert np.array_equal(starts[0], np.tile(pin[0], N))
    rhs = (m * c).ravel()
    rhs[:n_dof] += r[0] * pin[0]
    want = np.linalg.solve(_newton.time_band(r, m).toarray(), rhs)
    assert np.allclose(U[1:].ravel(), want, rtol=1e-12, atol=1e-12)
    # a start array gives its rows after the pins; its pinned rows are unused
    start = np.full((N + 1, n_dof), 7.0)
    _newton.pinned_solve(solver, pin, N, start, grad,
                         lambda U: _newton.time_band(r, m),
                         np.arange(1.0, N + 1))
    assert np.array_equal(starts[1], np.full(N * n_dof, 7.0))
    with pytest.raises(ConfigurationError, match="wrong number of knots"):
        _newton.pinned_solve(solver, pin, N, start[1:], grad,
                             lambda U: _newton.time_band(r, m),
                             np.arange(1.0, N + 1))


# ---------------------------------------------------------------------------
# the factorization each solver asks for
# ---------------------------------------------------------------------------

SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                 options=dict(SymmetricMode=True))


def _record_splu(monkeypatch, default_only: bool = False) -> list:
    """Route `_newton.splu` through a recorder of its keyword arguments;
    with default_only, factor with SuperLU's defaults whatever is asked."""
    calls = []

    def recorder(A, **kwargs):
        calls.append(kwargs)
        return splu(A) if default_only else splu(A, **kwargs)

    monkeypatch.setattr(_newton, "splu", recorder)
    return calls


def rect_problem(boundary: str = "neumann", p: float = 2.0,
                 shape: tuple = (8, 6)) -> WedProblem:
    """m-Laplace (m=3, C=0.5) on a rectangle. The p=4 problem starts from
    a bump that vanishes on part of the domain, so the Hessian at the rest
    trajectory has zero rows there and the Levenberg shift must run."""
    g = build_grid(dim=2, shape=shape,
                   spacing=tuple(1.0 / (k - 1) for k in shape),
                   boundary=boundary, domain_kind="rectangle",
                   robin_b=1.0 if boundary == "robin" else 0.0)
    x, y = g.coords().T
    if p == 4.0:
        u0 = np.maximum(np.cos(np.pi * x), 0.0) * (1.0 + 0.2 * y)
    else:
        u0 = 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y) + 0.1 * x
    return WedProblem(grid=g, dissipation=DissipationSpec(p=p),
                      energy1=EnergySpec(kind="m_laplace", m=3.0, B=1.0,
                                         C=0.5),
                      energy2=EnergySpec(kind="none"),
                      reaction=ReactionSpec(), T=1.0, epsilon=0.2,
                      initial=u0)


def rect_solve(problem: WedProblem, N: int = 8):
    rng = np.random.default_rng(1)
    w = rng.standard_normal(problem.n_dof)
    if problem.dissipation.p == 4.0:
        w = w * (problem.initial != 0.0)
    return minimize_wed(problem, np.tile(w, (N + 1, 1)),
                        constant_trajectory(problem.grid, problem.initial,
                                            problem.T, N))


def test_2d_wed_solves_factor_symmetrically(monkeypatch):
    calls = _record_splu(monkeypatch)
    _, report = rect_solve(rect_problem(shape=(4, 3)), N=3)
    assert report.converged
    assert calls and all(kw == SYMMETRIC for kw in calls)


def test_other_solves_keep_superlu_defaults(monkeypatch):
    # the 1D golden outputs depend on the default factorization's rounding
    calls = _record_splu(monkeypatch)
    problem = heat_problem(n=6)
    minimize_wed(problem, np.zeros((5, 6)),
                 constant_trajectory(problem.grid, problem.initial,
                                     problem.T, 4))
    t = np.linspace(0.0, 1.0, 5)
    minimize_wed_ri(RIProblem(grid=line_grid(3), phi_coeffs=(0.0, 0.0, 0.5),
                              a=0.5, forcing=np.outer(t, [1.0, 0.5, 0.0]),
                              T=1.0, epsilon=0.3, initial=np.zeros(3)))
    minimize_wide(LagrangianProblem(d=1, M=np.eye(1), nu=0.0,
                                    u_kind="quadratic", T=1.0, epsilon=0.1,
                                    initial=np.ones(1),
                                    velocity=np.zeros(1)), 8)
    assert len(calls) >= 3
    assert all(kw == {} for kw in calls)


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("boundary", ["neumann", "dirichlet", "robin"])
def test_symmetric_and_default_factorizations_agree_in_2d(monkeypatch,
                                                          boundary, p):
    problem = rect_problem(boundary, p)
    calls = _record_splu(monkeypatch)
    traj, report = rect_solve(problem)
    assert report.converged
    if p == 4.0:
        # a retry with a Levenberg shift, on the symmetric path
        assert len(calls) > report.iterations
        assert all(kw == SYMMETRIC for kw in calls)
    _record_splu(monkeypatch, default_only=True)
    ref, ref_report = rect_solve(problem)
    assert report.iterations == ref_report.iterations
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-12 * scale
    assert abs(report.value - ref_report.value) \
        <= 1e-12 * abs(ref_report.value)


def test_nan_trial_residual_is_never_accepted():
    # from rest with a unit dual field the p=4 Hessian vanishes, the
    # Levenberg shift starts at 1e-300, and every trial point overflows
    problem = rect_problem("neumann", 4.0)
    problem = replace(problem, initial=np.zeros(problem.n_dof))
    w = np.ones((9, problem.n_dof))
    init = constant_trajectory(problem.grid, problem.initial, problem.T, 8)
    _, start = minimize_wed(problem, w, init, max_iter=0)
    with np.errstate(all="ignore"):
        traj, report = minimize_wed(problem, w, init)
    assert report.iterations == 0
    assert np.isfinite(report.gradient_norm)
    assert report.gradient_norm == start.gradient_norm
    assert not report.converged
    assert np.array_equal(traj.values, init.values)
