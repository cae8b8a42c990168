"""The damped Newton engine shared by the trajectory solvers."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from wedflow import (ConfigurationError, DissipationSpec, EnergySpec,
                     LagrangianProblem, ReactionSpec, RIProblem, Trajectory,
                     WedProblem, _newton, build_grid, constant_trajectory,
                     minimize_wed, minimize_wed_ri, minimize_wide, wed)
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


# ---------------------------------------------------------------------------
# space-time fast diagonalization: 2D, p = 2, a Kronecker-sum energy
# ---------------------------------------------------------------------------

def square_problem(boundary: str = "neumann", shape: tuple = (5, 4),
                   spacing: tuple = None, energy: EnergySpec = None,
                   dissipation: DissipationSpec = None,
                   eps: float = 0.2) -> WedProblem:
    """A 2D heat problem (m_laplace, m=2, B=1, C=0 unless `energy` says
    otherwise) whose initial state varies along both axes."""
    if spacing is None:
        spacing = tuple(1.0 / k for k in shape)
    g = build_grid(dim=2, shape=shape, spacing=spacing, boundary=boundary,
                   domain_kind="torus" if boundary == "periodic"
                   else "rectangle",
                   robin_b=1.0 if boundary == "robin" else 0.0)
    x, y = g.coords().T
    u0 = 1.0 + 0.3 * np.cos(np.pi * x / x.max()) \
        * np.cos(2.0 * np.pi * y / y.max()) + 0.1 * y
    return WedProblem(grid=g, dissipation=dissipation or DissipationSpec(),
                      energy1=energy or EnergySpec(kind="m_laplace", m=2.0,
                                                   B=1.0, C=0.0),
                      energy2=EnergySpec(kind="none"),
                      reaction=ReactionSpec(), T=1.0, epsilon=eps,
                      initial=u0)


def _first_newton_inputs(monkeypatch, problem: WedProblem, N: int,
                         assembled: bool) -> tuple:
    """(Hessian, gradient) that minimize_wed hands to its first Newton
    step, from a random dual field and start; with `assembled` the fast
    path is switched off, so the Hessian is the sparse assembly."""
    rng = np.random.default_rng(4)
    w = rng.standard_normal((N + 1, problem.n_dof))
    start = problem.initial + 0.1 * rng.standard_normal((N + 1,
                                                          problem.n_dof))
    start[0] = problem.initial
    seen = []

    def capture(x0, grad_fn, hess_fn, scale, **options):
        seen.append((hess_fn(x0), grad_fn(x0)))
        return x0, 0.0, 0, True

    monkeypatch.setattr(wed, "newton_solve", capture)
    if assembled:
        monkeypatch.setattr(wed, "_fast_modes", lambda problem: None)
    minimize_wed(problem, w, Trajectory(problem.grid, problem.T, start,
                                        pinned_initial=problem.initial))
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("mu", [0.0, 0.37])
@pytest.mark.parametrize("problem", [
    square_problem("neumann"),
    square_problem("dirichlet"),
    square_problem("periodic", shape=(5, 6)),
    square_problem("neumann", shape=(6, 4), spacing=(0.3, 0.05)),
    square_problem("dirichlet", energy=EnergySpec(kind="m_laplace", m=2.0,
                                                  B=0.7, C=0.45)),
    square_problem("periodic", shape=(4, 5), energy=EnergySpec(
        kind="quadratic", gamma=1.3)),
], ids=["neumann", "dirichlet", "torus", "anisotropic", "C>0", "quadratic"])
def test_fast_newton_step_matches_the_symmetric_lu_step(monkeypatch,
                                                        problem, mu):
    N = 6
    fast, g = _first_newton_inputs(monkeypatch, problem, N, False)
    H, g_ref = _first_newton_inputs(monkeypatch, problem, N, True)
    assert isinstance(fast, _newton.FastDiagonalization)
    assert sp.issparse(H) and np.array_equal(g, g_ref)
    assert np.allclose(fast.diagonal(), H.diagonal(), rtol=1e-14, atol=0.0)
    step = _newton._shifted_solve(fast, mu, -g, {})
    ref = splu((H + mu * sp.identity(H.shape[0])).tocsc(),
               **SYMMETRIC).solve(-g)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fast_and_lu_minimizers_agree(monkeypatch):
    problem = square_problem("dirichlet", energy=EnergySpec(
        kind="m_laplace", m=2.0, B=1.0, C=0.3), eps=0.1)
    N = 8
    w = np.tile(np.random.default_rng(5).standard_normal(problem.n_dof),
                (N + 1, 1))
    init = constant_trajectory(problem.grid, problem.initial, problem.T, N)
    calls = _record_splu(monkeypatch)
    traj, report = minimize_wed(problem, w, init)
    assert report.converged and calls == []
    monkeypatch.setattr(wed, "_fast_modes", lambda problem: None)
    ref, ref_report = minimize_wed(problem, w, init)
    assert calls and all(kw == SYMMETRIC for kw in calls)
    assert report.iterations == ref_report.iterations
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-12 * scale
    assert abs(report.value - ref_report.value) \
        <= 1e-12 * abs(ref_report.value)


def ladder_problem(nodes: int = 32, eps: float = 0.2) -> WedProblem:
    """The 2D heat problem of the benchmark ladder: m=2 on the unit
    square, Neumann, a cosine along axis 0 only."""
    g = build_grid(dim=2, shape=(nodes, nodes), spacing=(1.0 / nodes,) * 2,
                   boundary="neumann", domain_kind="rectangle")
    x = g.coords()[:, 0]
    return WedProblem(grid=g, dissipation=DissipationSpec(p=2.0),
                      energy1=EnergySpec(kind="m_laplace", m=2.0, B=1.0,
                                         C=0.0),
                      energy2=EnergySpec(kind="none"),
                      reaction=ReactionSpec(), T=1.0, epsilon=eps,
                      initial=1.0 + 0.3 * np.cos(np.pi * x / x.max()))


def test_2d_quadratic_solves_make_no_lu_and_no_hessian(monkeypatch):
    calls = _record_splu(monkeypatch)
    assembled = []
    monkeypatch.setattr(wed, "energy1_hessian",
                        lambda *args: assembled.append(args))
    problem = ladder_problem()
    N = 16
    _, report = minimize_wed(problem, np.zeros((N + 1, problem.n_dof)),
                             constant_trajectory(problem.grid,
                                                 problem.initial,
                                                 problem.T, N))
    assert report.converged and report.iterations >= 1
    assert calls == [] and assembled == []


@pytest.mark.parametrize("problem", [
    square_problem("robin"),
    square_problem(energy=EnergySpec(kind="m_laplace", m=2.0,
                                     B=np.full(20, 1.0), C=0.0)),
    square_problem(energy=EnergySpec(kind="m_laplace", m=2.0, B=1.0,
                                     C=np.full(20, 0.5))),
    square_problem(energy=EnergySpec(kind="m_laplace", m=3.0, B=1.0,
                                     C=0.5)),
    square_problem(energy=EnergySpec(kind="m_laplace", m=2.0, B=1.0,
                                     C=0.5),
                   dissipation=DissipationSpec(p=4.0)),
    square_problem(dissipation=DissipationSpec(
        p=2.0, alpha_kind="table", table_s=np.array([-10.0, 10.0]),
        table_alpha=np.array([-10.0, 10.0]))),
], ids=["robin", "nodal B", "nodal C", "m=3", "p=4", "table"])
def test_other_2d_solves_still_factor_symmetrically(monkeypatch, problem):
    calls = _record_splu(monkeypatch)
    N = 4
    w = np.tile(np.linspace(-1.0, 1.0, problem.n_dof), (N + 1, 1))
    _, report = minimize_wed(problem, w, constant_trajectory(
        problem.grid, problem.initial, problem.T, N))
    assert report.converged
    assert len(calls) >= report.iterations >= 1
    assert all(kw == SYMMETRIC for kw in calls)


def test_1d_quadratic_solves_keep_the_default_lu(monkeypatch):
    calls = _record_splu(monkeypatch)
    problem = heat_problem(n=8)
    _, report = minimize_wed(problem, np.zeros((5, 8)), constant_trajectory(
        problem.grid, problem.initial, problem.T, 4))
    assert report.converged
    assert len(calls) == report.iterations >= 1
    assert all(kw == {} for kw in calls)


def test_2d_solve_of_1d_data_is_the_1d_solve_broadcast():
    # 65,536 unknowns, where one symmetric LU takes 9-11 s; measured
    # agreement 2.6e-14 (absolute, states of size about 1.3)
    N, nodes = 64, 32
    problem = ladder_problem(nodes, eps=0.1)
    line = heat_problem(n=nodes, eps=0.1, spacing=1.0 / nodes)
    assert np.array_equal(problem.initial.reshape(nodes, nodes)[:, 0],
                          line.initial)
    t = np.linspace(0.0, 1.0, N + 1)
    w = 0.5 * np.outer(np.sin(3.0 * t), np.cos(np.pi * np.arange(nodes)
                                              / (nodes - 1)))
    traj, report = minimize_wed(problem, np.repeat(w, nodes, axis=1),
                                constant_trajectory(problem.grid,
                                                    problem.initial,
                                                    problem.T, N))
    ref, ref_report = minimize_wed(line, w, constant_trajectory(
        line.grid, line.initial, line.T, N))
    assert report.converged and ref_report.converged
    err = np.max(np.abs(traj.values.reshape(N + 1, nodes, nodes)
                        - ref.values[:, :, None]))
    assert err <= 1e-13 * np.max(np.abs(ref.values))
    assert abs(report.value - ref_report.value) \
        <= 1e-12 * abs(ref_report.value)
