"""The damped Newton engine shared by the trajectory solvers."""

import contextlib
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, LagrangianProblem, ReactionSpec, RIProblem,
                     Trajectory, WedProblem, WideWaveProblem, _newton,
                     energies,
                     build_grid, constant_trajectory, minimize_wed,
                     minimize_wed_ri, minimize_wide, rateind, wed,
                     wed_value_grad, wide)
from wedflow._newton import newton_solve
from wedflow.cli import bundled_scenarios
from wedflow.runner import Scenario, run

from conftest import (assert_same_csc, count_newton, heat_problem,
                      line_grid, point_grid, scalar_decay_problem,
                      watch_repeats)


def test_full_step_solve_reuses_the_line_search_gradient():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    calls = []

    def grad_fn(X):  # one row per trial point
        calls.append(X.copy())
        return (A @ X.T).T - b

    x, res, iters, converged = newton_solve(
        np.zeros(2), grad_fn, lambda x: _newton.SparseHessian(A), np.ones(2))
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

    def grad(V):  # the unknown knots of a stack of trajectories
        assert V.shape[-2:] == (N, n_dof)
        g = m * (V - c)
        _newton.time_divergence(g, r * np.diff(_newton.with_pins(pin, V),
                                               axis=-2))
        return g

    starts = []

    def solver(x0, grad_fn, hess_fn, scale, **options):
        starts.append(x0.copy())
        assert np.array_equal(scale, np.repeat(np.arange(1.0, N + 1), n_dof))
        return newton_solve(x0, grad_fn, hess_fn, scale, **options)

    def hess(V):
        return _newton.SparseHessian(_newton.time_band(r, m))

    U, res, iters, converged = _newton.pinned_solve(
        solver, pin, N, None, grad, hess, np.arange(1.0, N + 1), tol=1e-12)
    assert converged and res <= 1e-12 and U.shape == (N + 1, n_dof)
    assert np.array_equal(U[:1], pin)
    assert np.array_equal(starts[0], np.tile(pin[0], N))
    rhs = (m * c).ravel()
    rhs[:n_dof] += r[0] * pin[0]
    want = np.linalg.solve(_newton.time_band(r, m).toarray(), rhs)
    assert np.allclose(U[1:].ravel(), want, rtol=1e-12, atol=1e-12)
    # a start array gives its rows after the pins, which it repeats
    start = np.full((N + 1, n_dof), 7.0)
    start[0] = pin[0]
    _newton.pinned_solve(solver, pin, N, start, grad, hess,
                         np.arange(1.0, N + 1))
    assert np.array_equal(starts[1], np.full(N * n_dof, 7.0))
    with pytest.raises(ConfigurationError, match="wrong number of knots"):
        _newton.pinned_solve(solver, pin, N, start[1:], grad, hess,
                             np.arange(1.0, N + 1))


def test_pinned_solve_pin_is_bitwise():
    # the start must repeat every pinned row bit for bit (the last of k = 1
    # and of k = 2 is off here); the check comes before any solve
    def solver(*args, **options):
        raise AssertionError("a mismatched start was solved")

    for k in (1, 2):
        start = np.zeros((6, 4))
        start[k - 1, 0] = 1e-300
        with pytest.raises(ConfigurationError, match="pinned rows"):
            _newton.pinned_solve(solver, np.zeros((k, 4)), 5, start, None,
                                 None, np.ones(6 - k))


@pytest.mark.parametrize("k", [1, 2])
def test_with_pins_is_vstack_in_a_fresh_array(k):
    rng = np.random.default_rng(k)
    pinned = rng.standard_normal((k, 3))
    x = rng.standard_normal((4, 3))
    U = _newton.with_pins(pinned, x)
    assert np.array_equal(U, np.vstack([pinned, x]))
    again = _newton.with_pins(pinned, x)
    assert again is not U and not np.shares_memory(again, U)
    assert not np.shares_memory(U, x) and not np.shares_memory(U, pinned)
    # a stack of unknown knots gives one trajectory per row
    X = rng.standard_normal((5, 4, 3))
    stack = _newton.with_pins(pinned, X)
    for row in range(5):
        assert np.array_equal(stack[row], np.vstack([pinned, X[row]]))


# ---------------------------------------------------------------------------
# independent tridiagonals over knots: one LAPACK solve, no sparse matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [0.0, 0.37])
@pytest.mark.parametrize("n_dof", [1, 3])
def test_knot_tridiagonal_solve_matches_the_lu_of_the_band(n_dof, mu):
    N = 7
    r, m, _ = _chain(N, n_dof, 6)
    band = _newton.time_band(r, m)
    H = _newton.KnotTridiagonal(*_newton.band_diagonals(r, m))
    assert np.array_equal(H.diagonal(), band.diagonal())
    rhs = np.random.default_rng(8).standard_normal(N * n_dof)
    step = H.solve(rhs, mu)
    ref = splu((band + mu * sp.identity(N * n_dof)).tocsc()).solve(rhs)
    assert np.max(np.abs(step - ref)) <= 1e-14 * np.max(np.abs(ref))
    # one knot: no off diagonal at all
    one = _newton.KnotTridiagonal(*_newton.band_diagonals(r[:1], m[:1]))
    assert np.allclose(one.solve(rhs[:n_dof], mu),
                       rhs[:n_dof] / (m[0] + r[0] + mu), rtol=1e-15)


def _padded_solve(H: _newton.KnotTridiagonal, rhs: np.ndarray,
                  mu: float) -> np.ndarray:
    """The knot tridiagonal solve as one dgtsv on the zero-padded system:
    the columns one after another, joined by zero couplings, then one
    uncoupled unknown with unit diagonal and zero right-hand side."""
    N, n = H.diag.shape
    off = np.zeros((n, N))
    off[:, :-1] = H.off.T
    off = off.ravel()
    *_, x, info = _newton.dgtsv(off, np.append((H.diag + mu).T, 1.0), off,
                                np.append(rhs.reshape(N, n).T, 0.0)[:, None])
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (dgtsv info {info})")
    return x[:-1].reshape(n, N).T.ravel()


def _record_dgtsv(monkeypatch) -> list:
    """Route `_newton.dgtsv` through a recorder of each call's unknowns."""
    sizes = []
    real = _newton.dgtsv

    def recorder(dl, d, du, b, **kwargs):
        sizes.append(d.size)
        return real(dl, d, du, b, **kwargs)

    monkeypatch.setattr(_newton, "dgtsv", recorder)
    return sizes


@pytest.mark.parametrize("dominant", [True, False])
@pytest.mark.parametrize("N", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 3])
def test_knot_tridiagonal_solve_is_bitwise_the_padded_system(
        monkeypatch, n, N, dominant):
    # random systems, and systems whose off diagonal outweighs the
    # diagonal, where dgtsv exchanges rows; the solve takes the unpadded
    # bands (nN unknowns, one dgtsv call), and one unknown is b / d
    rng = np.random.default_rng(100 * n + N)
    sizes = _record_dgtsv(monkeypatch)
    pivoted = 0
    for trial in range(40):
        off = rng.standard_normal((N - 1, n))
        diag = rng.standard_normal((N, n))
        if dominant:
            diag = np.abs(diag) + 2.0
        else:
            diag *= 1e-3
        rhs = rng.standard_normal(N * n)
        rhs[rng.random(N * n) < 0.2] = 0.0
        mu = [0.0, 0.37][trial % 2]
        H = _newton.KnotTridiagonal(diag, off)
        sizes.clear()
        got = H.solve(rhs, mu)
        assert sizes == ([N * n] if N * n > 1 else [])
        want = _padded_solve(H, rhs, mu)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        pivoted += bool(np.any(np.abs(off) > np.abs(diag[:-1] + mu)))
    if N > 1 and not dominant:
        assert pivoted


@pytest.mark.parametrize("N", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 3])
def test_knot_tridiagonal_solve_works_in_place_only_in_its_own_arrays(
        monkeypatch, n, N):
    # LAPACK may overwrite the bands and right-hand side the solve builds,
    # never the Hessian's arrays or the caller's rhs (a view of it at
    # n = 1 or N = 1), and never dl while it is du; the solution has the
    # bits of the call that copies every input
    rng = np.random.default_rng(10 * n + N)
    flags = []
    real = _newton.dgtsv

    def recorder(dl, d, du, b, **kwargs):
        flags.append((dl is du, kwargs))
        return real(dl, d, du, b, **kwargs)

    monkeypatch.setattr(_newton, "dgtsv", recorder)
    for mu in (0.0, 0.37):
        diag = rng.standard_normal((N, n)) * 1e-3
        off = rng.standard_normal((N - 1, n))
        rhs = rng.standard_normal(N * n)
        kept = [a.copy() for a in (diag, off, rhs)]
        H = _newton.KnotTridiagonal(diag, off)
        got = H.solve(rhs, mu)
        for before, after in zip(kept, (H.diag, H.off, rhs)):
            assert before.tobytes() == after.tobytes()
        if N * n == 1:
            continue
        bands = np.zeros((n, N))
        bands[:, :-1] = off.T
        dl = off.ravel() if n == 1 else bands.ravel()[:-1]
        *_, x, info = real(dl.copy(), (diag + mu).T.ravel(), dl.copy(),
                           rhs.reshape(N, n).T.ravel())
        assert info == 0
        assert got.tobytes() == x.reshape(n, N).T.ravel().tobytes()
    for same, kwargs in flags:
        assert kwargs["overwrite_d"] and kwargs["overwrite_b"]
        assert kwargs["overwrite_dl"] == (n > 1)
        assert same and not kwargs.get("overwrite_du", False)
    assert len(flags) == (0 if N * n == 1 else 2)


@pytest.mark.parametrize("n", [1, 2])
def test_knot_tridiagonal_with_a_zero_last_unknown_calls_dgtsv_once(
        monkeypatch, n):
    # 2 x0 + x1 = 1 and x0 + 2 x1 = 1/2 in every column: x = (1/2, 0)
    calls = _record_dgtsv(monkeypatch)
    H = _newton.KnotTridiagonal(np.full((2, n), 2.0), np.ones((1, n)))
    x = H.solve(np.repeat([1.0, 0.5], n))
    assert x.tobytes() == np.repeat([0.5, 0.0], n).tobytes()
    assert calls == [2 * n]


@pytest.mark.parametrize("d, b, mu", [(4.0, 1.0, 0.0), (-3.0, 2.0, 0.5),
                                      (0.5, -0.0, 0.0), (2.0, 0.0, -1.0)])
def test_one_unknown_knot_tridiagonal_is_b_over_d(monkeypatch, d, b, mu):
    calls = _record_dgtsv(monkeypatch)
    H = _newton.KnotTridiagonal(np.array([[d]]), np.empty((0, 1)))
    assert H.solve(np.array([b]), mu).tobytes() \
        == np.array([b / (d + mu)]).tobytes()
    with pytest.raises(RuntimeError, match="dgtsv info 1"):
        H.solve(np.array([b]), -d)
    assert calls == []


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("N", [1, 2, 5])
def test_exactly_singular_knot_tridiagonal_raises(n, N):
    # every column but the last is well conditioned; the last is a path
    # Laplacian, whose last pivot is exactly 0 (one knot: a zero diagonal)
    diag = np.full((N, n), 3.0)
    off = np.ones((N - 1, n))
    diag[:, -1] = 2.0
    diag[[0, -1], -1] = 1.0 if N > 1 else 0.0
    off[:, -1] = -1.0
    H = _newton.KnotTridiagonal(diag, off)
    with pytest.raises(RuntimeError, match="dgtsv info"):
        H.solve(np.ones(N * n))
    with pytest.raises(RuntimeError, match="dgtsv info"):
        _padded_solve(H, np.ones(N * n), 0.0)


def test_singular_band_raises_and_newton_shifts_past_it(monkeypatch):
    # column 0 is a quadratic chain; column 1 is sum x^4 / 4 from its
    # minimizer 0, where its curvature, and so its tridiagonal, vanish
    N = 5
    r, m, c = _chain(N, 2, 7)
    r[:, 1] = 0.0

    pin = np.zeros((1, 2))

    def grad(V):  # the unknown knots of a stack of trajectories
        g = np.empty_like(V)
        g[..., 0] = m[:, 0] * (V[..., 0] - c[:, 0])
        g[..., 1] = V[..., 1] ** 3
        _newton.time_divergence(g, r * np.diff(_newton.with_pins(pin, V),
                                               axis=-2))
        return g

    def hess(V):
        main = np.column_stack([m[:, 0], 3.0 * V[:, 1] ** 2])
        return _newton.KnotTridiagonal(*_newton.band_diagonals(r, main))

    with pytest.raises(RuntimeError, match="dgtsv"):
        hess(np.zeros((N, 2))).solve(np.ones(2 * N))
    shifts = []
    real = _newton.KnotTridiagonal.solve
    monkeypatch.setattr(_newton.KnotTridiagonal, "solve",
                        lambda H, rhs, mu=0.0: shifts.append(mu)
                        or real(H, rhs, mu))
    U, res, iters, converged = _newton.pinned_solve(
        newton_solve, pin, N, None, grad, hess, np.ones(N), tol=1e-12)
    assert converged and iters >= 1
    assert shifts[0] == 0.0 and any(mu > 0.0 for mu in shifts)
    assert np.array_equal(U[:, 1], np.zeros(N + 1))
    want = np.linalg.solve(_newton.time_band(r[:, :1], m[:, :1]).toarray(),
                           m[:, 0] * c[:, 0])
    assert np.allclose(U[1:, 0], want, rtol=1e-12, atol=1e-12)


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
                      energy2=ConcaveSpec(),
                      reaction=ReactionSpec(), T=1.0, epsilon=0.2,
                      initial=u0)


def rect_dual(problem: WedProblem, N: int = 8) -> np.ndarray:
    """The dual table rect_solve minimizes at."""
    rng = np.random.default_rng(1)
    w = rng.standard_normal(problem.n_dof)
    if problem.dissipation.p == 4.0:
        w = w * (problem.initial != 0.0)
    return np.tile(w, (N + 1, 1))


def rect_solve(problem: WedProblem, N: int = 8):
    return minimize_wed(problem, rect_dual(problem, N),
                        constant_trajectory(problem.grid, problem.initial,
                                            problem.T, N))


def values_agree(problem, w, traj, ref, ref_problem=None, ref_w=None):
    """The functional's values on traj and ref agree to 1e-12 relative;
    ref is priced by ref_problem and ref_w where they are given."""
    value = wed_value_grad(problem, w, traj)[0]
    ref_value = wed_value_grad(ref_problem or problem,
                               w if ref_w is None else ref_w, ref)[0]
    return abs(value - ref_value) <= 1e-12 * abs(ref_value)


def test_2d_wed_solves_factor_symmetrically(monkeypatch):
    calls = _record_splu(monkeypatch)
    _, report = rect_solve(rect_problem(shape=(4, 3)), N=3)
    assert report.converged
    assert calls and all(kw == SYMMETRIC for kw in calls)


def test_other_solves_keep_superlu_defaults(monkeypatch):
    # the 1D golden outputs depend on the default factorization's rounding;
    # a fractional energy is no Kronecker sum, so its 1D solve factors
    calls = _record_splu(monkeypatch)
    problem = replace(heat_problem(n=6), energy1=EnergySpec(
        kind="fractional", s=0.4, gamma=0.5))
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


@pytest.mark.parametrize("grid", [line_grid(3), point_grid()],
                         ids=["a=0", "point"])
def test_uncoupled_rateind_solves_make_no_lu(monkeypatch, grid):
    # with a = 0, or on a point grid, every dof is its own chain in time
    calls = _record_splu(monkeypatch)
    t = np.linspace(0.0, 1.0, 5)
    profile = np.linspace(1.0, 0.0, grid.n_nodes)
    _, report = minimize_wed_ri(RIProblem(
        grid=grid, phi_coeffs=(0.0, 0.0, 0.5), a=0.0,
        forcing=np.outer(t, profile), T=1.0, epsilon=0.3,
        initial=np.zeros(grid.n_nodes)))
    assert report.converged and report.iterations >= 1
    assert calls == []


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
    assert values_agree(problem, rect_dual(problem), traj, ref)


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
                      energy2=ConcaveSpec(),
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
        seen.append((hess_fn(x0), grad_fn(x0[None])[0]))
        return x0, 0.0, 0, True

    monkeypatch.setattr(wed, "newton_solve", capture)
    if assembled:
        monkeypatch.setattr(wed, "energy1_modes", lambda spec, grid: None)
    minimize_wed(problem, w, Trajectory(problem.grid, problem.T, start))
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
    # long axes, whose Q numpy.fft applies; at the benchmark's spacing
    # 1/512 the system's condition number is 1.4e7, and SuperLU's
    # symmetric and default LUs of it already differ by 1.7e-12 at mu = 0
    # (LAPACK's dense solve by 3.7e-12), so the spacing is wider here
    heat_problem(n=512, spacing=1.0 / 64),
    heat_problem(n=700, boundary="dirichlet", spacing=1.0 / 64),
    square_problem("periodic", shape=(300, 4)),
], ids=["neumann", "dirichlet", "torus", "anisotropic", "C>0", "quadratic",
        "1d-neumann-512", "1d-dirichlet-700", "torus-300x4"])
def test_fast_newton_step_matches_the_symmetric_lu_step(monkeypatch,
                                                        problem, mu):
    N = 6
    fast, g = _first_newton_inputs(monkeypatch, problem, N, False)
    held, g_ref = _first_newton_inputs(monkeypatch, problem, N, True)
    grid = problem.grid
    assert isinstance(fast, _newton.FastDiagonalization)
    assert [isinstance(q, str) for q in fast.axes] == [
        n >= energies.FFT_CROSSOVER[grid.boundary] for n in grid.shape]
    # the 1D assembly takes SuperLU's defaults; the reference below is
    # the symmetric LU in every case
    assert isinstance(held, _newton.SparseHessian)
    assert held.symmetric == (grid.dim > 1)
    H = held.matrix
    assert sp.issparse(H) and np.array_equal(g, g_ref)
    assert np.allclose(fast.diagonal(), H.diagonal(), rtol=1e-14, atol=0.0)
    step = fast.solve(-g, mu)
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
    monkeypatch.setattr(wed, "energy1_modes", lambda spec, grid: None)
    ref, ref_report = minimize_wed(problem, w, init)
    assert calls and all(kw == SYMMETRIC for kw in calls)
    assert report.iterations == ref_report.iterations
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-12 * scale
    assert values_agree(problem, w, traj, ref)


def ladder_problem(nodes: int = 32, eps: float = 0.2,
                   m: float = 2.0) -> WedProblem:
    """The 2D heat problem of the benchmark ladder: m-Laplace (m=2 unless
    given) on the unit square, Neumann, a cosine along axis 0 only."""
    g = build_grid(dim=2, shape=(nodes, nodes), spacing=(1.0 / nodes,) * 2,
                   boundary="neumann", domain_kind="rectangle")
    x = g.coords()[:, 0]
    return WedProblem(grid=g, dissipation=DissipationSpec(p=2.0),
                      energy1=EnergySpec(kind="m_laplace", m=m, B=1.0,
                                         C=0.0),
                      energy2=ConcaveSpec(),
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


def line_problem(boundary: str) -> WedProblem:
    """heat_problem's data on 8 nodes of an interval with the given
    boundary, or of a periodic ring."""
    if boundary != "periodic":
        return heat_problem(n=8, boundary=boundary)
    return replace(heat_problem(n=8), grid=build_grid(
        dim=1, shape=(8,), spacing=(1.0 / 8,), boundary="periodic",
        domain_kind="torus"))


LINE_BOUNDARIES = ("neumann", "dirichlet", "periodic")


@pytest.mark.parametrize("boundary", LINE_BOUNDARIES)
def test_1d_p2_solves_make_no_splu_call(monkeypatch, boundary):
    calls = _record_splu(monkeypatch)
    problem = line_problem(boundary)
    N = 4
    w = np.tile(np.linspace(-1.0, 1.0, problem.n_dof), (N + 1, 1))
    assert isinstance(wed._constant_hessian(problem, _rest(problem, N)),
                      _newton.FastDiagonalization)
    _, report = minimize_wed(problem, w, _rest(problem, N))
    assert report.converged and report.iterations >= 1
    assert calls == []


@pytest.mark.parametrize("mu", [0.0, 0.37])
@pytest.mark.parametrize("boundary", LINE_BOUNDARIES)
def test_1d_fast_newton_step_matches_the_lu_step(monkeypatch, boundary, mu):
    N = 6
    problem = line_problem(boundary)
    fast, g = _first_newton_inputs(monkeypatch, problem, N, False)
    held, g_ref = _first_newton_inputs(monkeypatch, problem, N, True)
    assert isinstance(fast, _newton.FastDiagonalization)
    assert isinstance(held, _newton.SparseHessian) and not held.symmetric
    H = held.matrix
    assert np.array_equal(g, g_ref)
    assert np.allclose(fast.diagonal(), H.diagonal(), rtol=1e-14, atol=0.0)
    step = fast.solve(-g, mu)
    ref = splu((H + mu * sp.identity(H.shape[0])).tocsc()).solve(-g)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    assert values_agree(problem, np.repeat(w, nodes, axis=1), traj, ref,
                        line, w)


# ---------------------------------------------------------------------------
# the symmetric path factors one connected component at a time
# ---------------------------------------------------------------------------

def _record_sizes(monkeypatch) -> list:
    """Route `_newton.splu` through a recorder of (order of the matrix,
    keyword arguments)."""
    calls = []

    def recorder(A, **kwargs):
        calls.append((A.shape[0], kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(_newton, "splu", recorder)
    return calls


def _record_shifts(monkeypatch) -> list:
    """Route `_newton._factor` through a recorder of its shifts."""
    shifts = []
    real = _newton._factor

    def recorder(H, mu, symmetric):
        shifts.append(mu)
        return real(H, mu, symmetric)

    monkeypatch.setattr(_newton, "_factor", recorder)
    return shifts


def _whole_matrix_solve(H, mu, symmetric):
    """The symmetric path before the split: the solve of one splu of all
    of H + mu I."""
    Hmu = H + mu * sp.identity(H.shape[0], format="csr")
    return splu(Hmu.tocsc(), **(SYMMETRIC if symmetric else {})).solve


def band_problem(shape: tuple = (7, 5), p: float = 2.0) -> WedProblem:
    """m-Laplace (m=3, C=0.5) on a rectangle with data along axis 0 only,
    so the Hessian drops every axis-1 edge and splits into shape[1]
    identical chains. The p=4 problem starts from a bump that vanishes on
    part of the domain, where the rest Hessian has zero rows."""
    problem = rect_problem(p=p, shape=shape)
    x = problem.grid.coords()[:, 0]
    u0 = np.maximum(np.cos(np.pi * x), 0.0) if p == 4.0 \
        else 1.0 + 0.3 * np.cos(np.pi * x) + 0.1 * x
    return replace(problem, initial=u0)


def _along_axis0(problem: WedProblem, rows: np.ndarray) -> np.ndarray:
    """rows ((k, shape[0])) repeated along axis 1: (k, n_dof)."""
    return np.repeat(rows, problem.grid.shape[1], axis=1)


@pytest.mark.parametrize("mu", [0.0, 0.37])
def test_split_step_matches_the_whole_symmetric_lu_step(monkeypatch, mu):
    problem = band_problem()
    nx, ny = problem.grid.shape
    N = 6
    rng = np.random.default_rng(6)
    w = _along_axis0(problem, rng.standard_normal((N + 1, nx)))
    start = problem.initial + _along_axis0(
        problem, 0.1 * rng.standard_normal((N + 1, nx)))
    start[0] = problem.initial
    seen = []

    def capture(x0, grad_fn, hess_fn, scale, **options):
        seen.append((hess_fn(x0), grad_fn(x0[None])[0]))
        return x0, 0.0, 0, True

    monkeypatch.setattr(wed, "newton_solve", capture)
    minimize_wed(problem, w, Trajectory(problem.grid, problem.T, start))
    H, g = seen[0]
    assert isinstance(H, _newton.SparseHessian) and H.symmetric
    calls = _record_sizes(monkeypatch)
    step = H.solve(-g, mu)
    # the ny chains are identical: one factorization serves them all
    assert calls == [(nx * N, SYMMETRIC)]
    ref = _whole_matrix_solve(H.matrix, mu, True)(-g)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))
    # identical chains give identical pieces of the step
    S = step.reshape(N, nx, ny)
    assert np.array_equal(S, np.repeat(S[:, :, :1], ny, axis=2))


def test_levenberg_retry_splits_the_shifted_hessian(monkeypatch):
    problem = band_problem(p=4.0)
    nx, ny = problem.grid.shape
    N = 8
    w = _along_axis0(problem, np.random.default_rng(1).standard_normal(
        (1, nx)) * (problem.initial[::ny] != 0.0))
    w = np.tile(w, (N + 1, 1))
    init = constant_trajectory(problem.grid, problem.initial, problem.T, N)
    shifts = _record_shifts(monkeypatch)
    calls = _record_sizes(monkeypatch)
    traj, report = minimize_wed(problem, w, init)
    assert report.converged
    assert any(mu > 0.0 for mu in shifts)
    # every factorization, the shifted retries included, is of a piece
    assert calls and all(kw == SYMMETRIC for _, kw in calls)
    assert max(size for size, _ in calls) <= nx * N
    monkeypatch.setattr(_newton, "_factor", _whole_matrix_solve)
    ref, ref_report = minimize_wed(problem, w, init)
    assert report.iterations == ref_report.iterations
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-12 * scale
    assert values_agree(problem, w, traj, ref)


def test_axis_invariant_m3_solve_stays_invariant_at_every_iterate(
        monkeypatch):
    # the benchmark ladder's 16x16, N=64, m=3 problem: one ordering over
    # the whole Hessian broke the axis-1 invariance at round-off level
    nodes, N = 16, 64
    problem = ladder_problem(nodes, m=3.0)
    calls = _record_sizes(monkeypatch)
    iterates = []
    real = wed.newton_solve

    def watched(x0, grad_fn, hess_fn, scale, **options):
        def hess(x):
            iterates.append(x.copy())
            return hess_fn(x)
        return real(x0, grad_fn, hess, scale, **options)

    monkeypatch.setattr(wed, "newton_solve", watched)
    result = wed.eps_continuation(problem, [0.2, 0.1, 0.05], N)
    assert not result.aborted and len(iterates) >= 10
    assert calls and all(c == (nodes * N, SYMMETRIC) for c in calls)
    for X in iterates + [result.final.values]:
        X = X.reshape(-1, nodes, nodes)
        assert np.array_equal(X, np.repeat(X[:, :, :1], nodes, axis=2))


def test_connected_2d_hessian_makes_one_splu_per_factorization(
        monkeypatch):
    problem = rect_problem()
    shifts = _record_shifts(monkeypatch)
    calls = _record_sizes(monkeypatch)
    N = 8
    _, report = rect_solve(problem, N)
    assert report.converged and report.iterations >= 1
    assert calls == [(problem.n_dof * N, SYMMETRIC)] * len(shifts)


# ---------------------------------------------------------------------------
# each distinct factorization is made once
# ---------------------------------------------------------------------------

def _per_chain_solve(H, mu, symmetric):
    """The split path without reuse: the solve of one splu of every
    connected component of H + mu I, identical ones included."""
    from scipy.sparse.csgraph import connected_components
    Hmu = H if mu == 0.0 else H + mu * sp.identity(H.shape[0], format="csr")
    Hmu = Hmu.tocsc()
    count, labels = connected_components(Hmu, directed=False)
    pieces = [np.flatnonzero(labels == c) for c in range(count)]
    lus = [splu(Hmu[idx][:, idx].tocsc(), **(SYMMETRIC if symmetric else {}))
           for idx in pieces]

    def solve(rhs):
        x = np.empty_like(rhs)
        for idx, lu in zip(pieces, lus):
            x[idx] = lu.solve(rhs[idx])
        return x
    return solve


def test_identical_chains_share_one_lu_in_every_newton_step(monkeypatch):
    problem = band_problem()
    nx, ny = problem.grid.shape
    N = 6
    w = _along_axis0(problem, np.random.default_rng(2).standard_normal(
        (N + 1, nx)))
    init = constant_trajectory(problem.grid, problem.initial, problem.T, N)
    shifts = _record_shifts(monkeypatch)
    calls = _record_sizes(monkeypatch)
    traj, report = minimize_wed(problem, w, init)
    assert report.converged and report.iterations >= 2
    # one splu per Newton step, not one per each of the ny chains
    assert calls == [(nx * N, SYMMETRIC)] * len(shifts)
    monkeypatch.setattr(_newton, "_factor", _per_chain_solve)
    ref, ref_report = minimize_wed(problem, w, init)
    assert report.iterations == ref_report.iterations
    assert np.array_equal(traj.values, ref.values)
    assert wed_value_grad(problem, w, traj)[0] \
        == wed_value_grad(problem, w, ref)[0]


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["default", "symmetric"])
def test_new_shift_refactors_and_a_repeated_one_does_not(monkeypatch,
                                                         symmetric):
    n = 12
    H = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5),
                  np.full(n - 1, -1.0)], [-1, 0, 1], format="csr")
    rhs = np.random.default_rng(4).standard_normal(n)
    options = SYMMETRIC if symmetric else {}
    shifts = [0.0, 0.0, 1e-3, 1e-3, 1e-2, 0.0]
    refs = [splu((H + mu * sp.identity(n)).tocsc(), **options).solve(rhs)
            for mu in shifts]
    calls = _record_splu(monkeypatch)
    held = _newton.SparseHessian(H, symmetric)
    factored = []
    for mu, ref in zip(shifts, refs):
        step = held.solve(rhs, mu)
        factored.append(len(calls))
        assert np.array_equal(step, ref)
    # the Levenberg retries (a new mu) and the return to mu = 0 refactor
    assert factored == [1, 1, 2, 2, 3, 4]
    assert calls == [options] * 4


def _two_block_problem() -> tuple:
    """(x0, grad_fn, hess_fn) of a sum of two uncoupled SPD problems on 10
    unknowns each: a quadratic one, whose Hessian block is constant, and
    one with a cubic term, whose block changes with x."""
    n = 10
    A = sp.diags([np.full(n - 1, -1.0), np.linspace(3.0, 4.0, n),
                  np.full(n - 1, -1.0)], [-1, 0, 1], format="csr")
    b = np.random.default_rng(5).standard_normal(2 * n)

    def grad_fn(X):  # one row per trial point
        G = np.hstack([(A @ X[:, :n].T).T, (A @ X[:, n:].T).T]) - b
        G[:, n:] += X[:, n:] ** 3
        return G

    def hess_fn(x):
        return sp.block_diag([A, A + sp.diags(3.0 * x[n:] ** 2)],
                             format="csr")

    # at x = 0 the two blocks would be equal, and share one LU
    return np.full(2 * n, 0.5), grad_fn, hess_fn


def _block_keys(H, mu: float, symmetric: bool) -> set:
    """The bytes (column pointers, row indices, values) of every block of
    H + mu I: its connected components if symmetric, else all of it."""
    from scipy.sparse.csgraph import connected_components
    Hmu = (H + mu * sp.identity(H.shape[0], format="csr")).tocsc()
    labels = connected_components(Hmu, directed=False)[1] if symmetric \
        else np.zeros(H.shape[0], int)
    keys = set()
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        B = Hmu[idx][:, idx].tocsc()
        keys.add((B.indptr.tobytes(), B.indices.tobytes(), B.data.tobytes()))
    return keys


def _watch_lus(monkeypatch) -> list:
    """At every splu call, whether the block factored is one of the
    current H + mu I and no solve of an earlier _factor call, with the
    LUs it holds, is still alive; one entry per call."""
    import weakref
    current, made = [], []
    real = _newton._factor

    def factor(H, mu, symmetric):
        current[:] = [(H, mu, symmetric)]
        solve = real(H, mu, symmetric)
        made.append(weakref.ref(solve))
        return solve

    checked = []

    def lu(A, **kwargs):
        H, mu, symmetric = current[0]
        key = (A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes())
        checked.append(key in _block_keys(H, mu, symmetric)
                       and all(ref() is None for ref in made))
        return splu(A, **kwargs)

    monkeypatch.setattr(_newton, "_factor", factor)
    monkeypatch.setattr(_newton, "splu", lu)
    return checked


def test_lu_table_holds_no_block_of_an_earlier_matrix(monkeypatch):
    checked = _watch_lus(monkeypatch)
    x0, grad_fn, hess_fn = _two_block_problem()
    _, _, iters, converged = newton_solve(
        x0, grad_fn,
        lambda x: _newton.SparseHessian(hess_fn(x), symmetric=True),
        np.ones(x0.size), tol=1e-13)
    # both blocks at every step, each from the step's own matrix, and the
    # LUs of the step before are gone
    assert converged and iters >= 3 and checked == [True] * (2 * iters)
    # Levenberg retries, on the split symmetric path
    problem = band_problem(p=4.0)
    nx, ny = problem.grid.shape
    N = 8
    w = _along_axis0(problem, np.random.default_rng(1).standard_normal(
        (1, nx)) * (problem.initial[::ny] != 0.0))
    checked.clear()
    shifts = _record_shifts(monkeypatch)
    _, report = minimize_wed(problem, np.tile(w, (N + 1, 1)),
                             constant_trajectory(problem.grid,
                                                 problem.initial,
                                                 problem.T, N))
    assert report.converged and any(mu > 0.0 for mu in shifts)
    assert len(checked) >= 2 and all(checked)


# ---------------------------------------------------------------------------
# each sparsity pattern is planned once per solve
# ---------------------------------------------------------------------------

def _count_plans(monkeypatch) -> dict:
    """Route the two plan builders, _newton._block_plan and
    energies._tiled_pattern, through counters of their calls."""
    from wedflow import energies
    counts = {"factor": 0, "hessian": 0}
    for kind, module, name in (("factor", _newton, "_block_plan"),
                               ("hessian", energies, "_tiled_pattern")):
        def counted(*args, kind=kind, real=getattr(module, name)):
            counts[kind] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


def _pattern_changes(matrices: list) -> int:
    """How many of the CSC matrices have another pattern (shape, column
    pointers, row indices) than the one before them, the first included."""
    keys = [(A.shape, A.indptr.tobytes(), A.indices.tobytes())
            for A in matrices]
    return sum(k != before for k, before in zip(keys, [None] + keys[:-1]))


def _shifted(H, mu: float):
    return H if mu == 0.0 \
        else (H + mu * sp.identity(H.shape[0], format="csr")).tocsc()


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["default", "symmetric"])
def test_planned_factor_is_bitwise_the_unplanned(monkeypatch, symmetric):
    # Hessians of the band problem at a state constant along axis 1 (ny
    # identical chains), at another such state (the same pattern, other
    # values) and at a state that varies along both axes (one component),
    # then the first again; with and without a Levenberg shift
    problem = band_problem()
    nx, ny = problem.grid.shape
    N = 5
    rng = np.random.default_rng(8)
    split = [np.vstack([problem.initial, problem.initial + _along_axis0(
        problem, 0.2 * rng.standard_normal((N, nx)))]) for _ in range(2)]
    connected = np.vstack([problem.initial, problem.initial
                           + 0.2 * rng.standard_normal((N, problem.n_dof))])
    states = split + [connected, split[0]]
    matrices = [wed._space_time_hessian(problem, U).matrix for U in states]
    calls = [(H, mu) for mu in (0.0, 0.37) for H in matrices]
    rhs = rng.standard_normal(N * problem.n_dof)
    counts = _count_plans(monkeypatch)
    with _newton.plan_scope():
        planned = [_newton._factor(H, mu, symmetric)(rhs) for H, mu in calls]
    # a plan per run of one pattern, not one per call
    assert counts["factor"] == _pattern_changes(
        [_shifted(H, mu) for H, mu in calls]) < len(calls)
    for (H, mu), step in zip(calls, planned):
        assert step.tobytes() == _newton._factor(H, mu, symmetric)(
            rhs).tobytes()
        ref = _per_chain_solve(H, mu, True)(rhs) if symmetric \
            else splu(_shifted(H, mu).tocsc()).solve(rhs)
        assert step.tobytes() == ref.tobytes()


def test_a_new_pattern_within_a_solve_gets_a_fresh_plan(monkeypatch):
    # the band problem from a start constant along axis 1 with a field
    # that is not: the first Hessian drops every axis-1 edge and splits
    # into ny chains, the later ones are connected
    problem = band_problem()
    N = 6
    rng = np.random.default_rng(7)
    w = rng.standard_normal((N + 1, problem.n_dof))
    init = constant_trajectory(problem.grid, problem.initial, problem.T, N)
    rhs = rng.standard_normal(N * problem.n_dof)
    real_factor, real_fill = _newton._factor, wed._space_time_hessian
    factored, filled = [], []

    def factor(H, mu, symmetric):
        solve = real_factor(H, mu, symmetric)
        factored.append((H, mu, symmetric, solve(rhs)))
        return solve

    def fill(problem, U):
        H = real_fill(problem, U)
        filled.append((U, H.matrix))
        return H

    monkeypatch.setattr(_newton, "_factor", factor)
    monkeypatch.setattr(wed, "_space_time_hessian", fill)
    counts = _count_plans(monkeypatch)
    _, report = minimize_wed(problem, w, init)
    assert report.converged and report.iterations >= 3
    # the pattern changed within the solve, and held after the change
    fills = [H for _, H in filled]
    assert fills[0].nnz < fills[-1].nnz
    assert counts["hessian"] == _pattern_changes(fills) < len(fills)
    assert counts["factor"] == _pattern_changes(
        [_shifted(H, mu) for H, mu, _, _ in factored]) < len(factored)
    # each fill and step is bitwise that of a plan made for it alone
    # (outside a solve) and of the split without plans
    for U, H in filled:
        assert_same_csc(H, real_fill(problem, U).matrix)
    for H, mu, symmetric, step in factored:
        assert symmetric
        assert step.tobytes() == real_factor(H, mu, True)(rhs).tobytes()
        assert step.tobytes() == _per_chain_solve(H, mu, True)(
            rhs).tobytes()


def test_plans_go_with_their_solve(monkeypatch):
    problem = band_problem()
    N = 4
    scopes = []
    real = wed.newton_solve

    def watched(*args, **kwargs):
        plans = _newton._PLANS.get()
        scopes.append(dict(plans))
        out = real(*args, **kwargs)
        scopes.append(dict(plans))
        return out

    monkeypatch.setattr(wed, "newton_solve", watched)
    assert _newton._PLANS.get() is None
    minimize_wed(problem, np.zeros((N + 1, problem.n_dof)),
                 constant_trajectory(problem.grid, problem.initial,
                                     problem.T, N))
    # the solve held a plan of each kind, and they went when it returned
    assert scopes[0] == {} and sorted(scopes[1]) == ["factor", "hessian"]
    assert _newton._PLANS.get() is None


def _ladder_artifacts(root) -> dict:
    """The artifacts, by file name, of the benchmark ladder's 2D m = 3
    heat problem (16 x 16 nodes, N = 64, three weight levels), run in the
    new directory root."""
    root.mkdir()
    out = root / "out"
    path = root / "heat2d_16x16_m3_N64.json"
    path.write_text(json.dumps({
        "name": "heat2d_16x16_m3_N64", "family": "doubly_nonlinear",
        "grid": {"dim": 2, "shape": [16, 16], "spacing": [1.0 / 16] * 2,
                 "boundary": "neumann", "domain_kind": "rectangle"},
        "dissipation": {"p": 2.0},
        "energy": {"kind": "m_laplace", "m": 3.0, "B": 1.0, "C": 0.0},
        "initial": {"kind": "cosine", "base": 1.0, "amplitude": 0.3,
                    "mode": 1.0},
        "T": 1.0, "steps": 64, "schedule": [0.2, 0.1, 0.05], "seed": 0,
        "output_dir": str(out)}))
    assert run(path) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_a_continuation_plans_each_pattern_once(monkeypatch, tmp_path):
    # every level solves on the same grid and knots, so one plan of each
    # kind serves the whole run; with a scope per solve each level made
    # its own, and every artifact is the same byte for byte
    counts = _count_plans(monkeypatch)
    held = _ladder_artifacts(tmp_path / "held")
    assert counts == {"factor": 1, "hessian": 1}
    counts.update(factor=0, hessian=0)
    monkeypatch.setattr(wed, "plan_scope", contextlib.nullcontext)
    per_solve = _ladder_artifacts(tmp_path / "per_solve")
    assert counts == {"factor": 3, "hessian": 3}
    assert held == per_solve
    assert _newton._PLANS.get() is None


def _polish_notes(report) -> list:
    return [note for note in report.notes
            if note.startswith("longdouble_polish_steps=")]


def test_1d_ladder_heat_is_polished_to_converge_at_every_level(monkeypatch):
    # the benchmark ladder's 1D problem: n = 512, N = 64, an m = 2 energy
    # with p = 2, so every Newton step is a fast diagonalization; float64
    # stalls above 1e-10 at each level (about 1.1e-10), and the
    # extended-precision polish certifies the minimizer
    problem = heat_problem(n=512, spacing=1.0 / 512)
    calls = _record_splu(monkeypatch)
    cont = wed.eps_continuation(problem, [0.2, 0.1, 0.05], 64)
    assert calls == []
    assert not cont.aborted and len(cont.family) == 3
    for level in cont.reports:
        report, = level.inner_reports
        assert report.converged and report.gradient_norm <= 1e-10
        assert len(_polish_notes(report)) == 1
    assert cont.final.values.dtype == np.float64


def test_wed_newton_loop_computes_no_functional_value(monkeypatch):
    # the Newton gradient takes the kernel's gradient-only mode, in the
    # float64 steps and in the np.longdouble polish alike, and the report
    # holds no value: the ladder's 1D problem, which polishes after its
    # float64 steps, never computes the rate term's value
    problem = heat_problem(n=512, spacing=1.0 / 512)
    counts = count_newton(monkeypatch, wed)
    real, values = wed._dissipation_value, []
    monkeypatch.setattr(wed, "_dissipation_value", lambda p, U, dt:
                        values.append(U.dtype) or real(p, U, dt))
    _, report = minimize_wed(problem, np.zeros(problem.n_dof),
                             constant_trajectory(problem.grid,
                                                 problem.initial, problem.T,
                                                 64))
    assert report.converged and len(_polish_notes(report)) == 1
    assert report.iterations >= 2 and counts["grads"] >= 5
    assert values == []


def test_wide_newton_loop_computes_no_potential_value(monkeypatch):
    # the same for the inertial lane: over every Newton gradient, and for
    # the report, the nonlinear potential's value is never computed
    calls = []

    class Counted(wide._Parts):
        def __init__(self, problem):
            super().__init__(problem)
            g_val = self.g_val
            self.g_val = lambda U: calls.append(U.shape) or g_val(U)

    monkeypatch.setattr(wide, "_Parts", Counted)
    counts = count_newton(monkeypatch, wide)
    problem = WideWaveProblem(
        grid=line_grid(5), rho=1.0, nu=0.2,
        f_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25), lam=0.0, p_growth=4.0, T=1.0,
        epsilon=0.1, initial=np.cos(np.linspace(0.0, np.pi, 5)),
        velocity=np.linspace(0.0, 0.3, 5))
    _, report = minimize_wide(problem, 16)
    assert report.converged
    assert report.iterations >= 2 and counts["grads"] >= 3
    assert calls == []


def test_1d_ladder_heat_at_1024_knots_converges(monkeypatch):
    # 262,144 unknowns: the sparse LU of this problem took about 550 MB,
    # and float64 stalled at its first level; the fast diagonalization and
    # the polish solve it in about 1 s and 130 MB
    problem = heat_problem(n=256, spacing=1.0 / 256)
    calls = _record_splu(monkeypatch)
    cont = wed.eps_continuation(problem, [0.2, 0.1, 0.05], 1024)
    assert calls == []
    assert not cont.aborted and len(cont.family) == 3
    assert all(level.inner_reports[-1].gradient_norm <= 1e-10
               for level in cont.reports)


def test_point_grid_decay_at_4000_knots_is_polished_on_splu(monkeypatch):
    # the float64 floor grows like (eps/dt)^2: N = 4000 at eps = 0.2 stalls
    # in float64; a point grid keeps the sparse LU, and the polish reuses
    # its one factorization
    problem = scalar_decay_problem(eps=0.2)
    calls = _record_splu(monkeypatch)
    traj, rep = wed.fixed_point_solve(problem, 4000)
    report, = rep.inner_reports
    assert rep.converged and report.gradient_norm <= 1e-10
    assert len(_polish_notes(report)) == 1
    assert calls == [{}]
    assert traj.values.dtype == np.float64
    # without the polish the same solve ends flagged, at an iterate the
    # polish moved by round-off only
    monkeypatch.setattr(_newton, "_EXTENDED", False)
    stalled, rep = wed.fixed_point_solve(problem, 4000)
    report, = rep.inner_reports
    assert not rep.converged and report.gradient_norm > 1e-10
    assert report.notes == ()
    assert np.max(np.abs(traj.values - stalled.values)) <= 1e-12


def test_solves_that_converge_in_float64_are_never_polished(monkeypatch):
    def refuse(*args):
        raise AssertionError("polished a solve that converges")

    monkeypatch.setattr(_newton, "_polish", refuse)
    cont = wed.eps_continuation(heat_problem(n=16), [0.2, 0.1], 16)
    assert not cont.aborted
    assert all(rep.notes == () for level in cont.reports
               for rep in level.inner_reports)


# ---------------------------------------------------------------------------
# a Hessian that no state changes is built once and holds its LUs
# ---------------------------------------------------------------------------

def _rest(problem: WedProblem, N: int = 5) -> Trajectory:
    return constant_trajectory(problem.grid, problem.initial, problem.T, N)


@pytest.mark.parametrize("problem", [
    replace(heat_problem(n=6), energy1=EnergySpec(kind="m_laplace", m=3.0,
                                                  B=1.0, C=0.5)),
    replace(heat_problem(n=6), dissipation=DissipationSpec(p=4.0)),
    replace(heat_problem(n=6), dissipation=DissipationSpec(
        p=2.0, alpha_kind="table", table_s=np.array([-10.0, 10.0]),
        table_alpha=np.array([-10.0, 10.0]))),
], ids=["m=3", "p=4", "table"])
def test_state_dependent_hessians_are_not_held(problem):
    assert wed._constant_hessian(problem, _rest(problem)) is None


@pytest.mark.parametrize("energy", [
    EnergySpec(kind="quadratic", gamma=1.3),
    EnergySpec(kind="fractional", s=0.4, gamma=0.5),
    EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.5),
], ids=["quadratic", "fractional", "m=2"])
def test_constant_hessians_are_held(energy):
    # a Kronecker-sum energy solves by fast diagonalization in 1D and 2D;
    # on a point grid, and for the fractional energy, the fill is held
    line = replace(heat_problem(n=6), energy1=energy)
    held = wed._constant_hessian(line, _rest(line))
    if energy.kind == "fractional":
        assert isinstance(held, _newton.SparseHessian) and not held.symmetric
    else:
        assert isinstance(held, _newton.FastDiagonalization)
    point = replace(scalar_decay_problem(), energy1=energy)
    held = wed._constant_hessian(point, _rest(point))
    assert isinstance(held, _newton.SparseHessian) and not held.symmetric
    square = square_problem(energy=energy)
    held = wed._constant_hessian(square, _rest(square))
    if energy.kind == "fractional":
        # no Kronecker sum: the 2D fill is held, on the symmetric path
        assert isinstance(held, _newton.SparseHessian) and held.symmetric
    else:
        assert isinstance(held, _newton.FastDiagonalization)


@pytest.mark.parametrize("mu", [0.0, 0.37])
@pytest.mark.parametrize("problem, options", [
    (replace(heat_problem(n=6), energy1=EnergySpec(kind="fractional",
                                                   s=0.4, gamma=0.5)), {}),
    (scalar_decay_problem(), {}),
    (square_problem("robin"), SYMMETRIC),
], ids=["1d-default", "point-default", "2d-symmetric"])
def test_held_hessian_solve_is_the_lu_solve(monkeypatch, problem, options,
                                            mu):
    calls = _record_splu(monkeypatch)
    held = wed._constant_hessian(problem, _rest(problem))
    assert isinstance(held, _newton.SparseHessian)
    assert calls == []  # filled when made, factored at the first solve
    H = held.matrix
    rhs = np.random.default_rng(7).standard_normal(H.shape[0])
    ref = splu((H + mu * sp.identity(H.shape[0])).tocsc(),
               **options).solve(rhs)
    assert np.array_equal(held.solve(rhs, mu), ref)
    assert np.array_equal(held.solve(rhs, mu), ref)
    assert calls == [options]


# ---------------------------------------------------------------------------
# backtracking sweeps evaluated as stacks of trial points
# ---------------------------------------------------------------------------

def _sequential_newton(x0, grad_fn, hess_fn, scale, tol=1e-10, max_iter=100,
                       min_step=1e-12, notes=None):
    """newton_solve with one gradient row per trial step: each step
    a = 1, 1/2, 1/4, ... is evaluated and tested on its own, a trial point
    bitwise equal to the iterate included. A stall ends with newton_solve's
    extended-precision polish."""
    def grad(x):
        return grad_fn(x[None])[0]

    x = x0.copy()
    g = grad(x)
    res = float(np.max(np.abs(g / scale)))
    it = 0
    mu = 0.0
    while it < max_iter and res > tol:
        H = hess_fn(x)
        step = None
        for _ in range(8):
            try:
                step = H.solve(-g, mu)
                if np.all(np.isfinite(step)):
                    break
            except RuntimeError:
                pass
            mu = max(mu * 10.0, 1e-14 * float(np.max(np.abs(H.diagonal()))),
                     1e-300)
            step = None
        if step is None:
            break
        a = 1.0
        accepted = False
        while a >= min_step:
            gnew = grad(x + a * step)
            rnew = float(np.max(np.abs(gnew / scale)))
            if rnew <= (1.0 - 1e-4 * a) * res:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            a = min_step
            gnew = grad(x + a * step)
            rnew = float(np.max(np.abs(gnew / scale)))
            if not rnew < res:
                polished = _newton._polish(
                    grad_fn, lambda rhs: H.solve(rhs, mu), x, scale, tol)
                if polished is not None:
                    x, res, steps = polished
                    if notes is not None:
                        notes.append(f"longdouble_polish_steps={steps}")
                break
        x = x + a * step
        g = gnew
        res = rnew
        it += 1
        if accepted and a == 1.0 and mu > 0.0:
            mu = 0.0
    return x, res, it, res <= tol


def _lane_gradient(monkeypatch, module, solve) -> tuple:
    """(grad, pinned rows, N) that the lane's solver hands to pinned_solve
    on its first call: grad is the lane's gradient over the unknown
    knots."""
    seen = []
    real = module.pinned_solve

    def capture(solver, pinned, N, start, grad, hess, knot_scale, **opts):
        seen.append((grad, pinned, N))
        return real(solver, pinned, N, start, grad, hess, knot_scale, **opts)

    monkeypatch.setattr(module, "pinned_solve", capture)
    solve()
    monkeypatch.undo()
    return seen[0]


def _ri_lane(a: float):
    """One smoothing stage of a quartic-potential rate-independent
    problem, on a point (a = 0) or on a 3-node line with coupling a."""
    n = 3 if a > 0.0 else 1
    rng = np.random.default_rng(5)
    problem = RIProblem(grid=line_grid(n) if a > 0.0 else point_grid(),
                        phi_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25), a=a,
                        forcing=rng.standard_normal((7, n)), T=1.0,
                        epsilon=0.3, initial=rng.standard_normal(n))
    return lambda: minimize_wed_ri(problem, deltas=(1e-2,))


def _wed_lane(energy: EnergySpec, p: float = 2.0, N: int = 5,
              dissipation: DissipationSpec = None):
    """A minimize_wed solve on a 6-node line with a random dual field,
    under power dissipation with exponent p unless `dissipation` is
    given."""
    n = 6
    n_dof = 2 * n if energy.kind == "lv_quadratic" else n
    problem = WedProblem(grid=line_grid(n),
                         dissipation=dissipation or DissipationSpec(p=p),
                         energy1=energy, energy2=ConcaveSpec(),
                         reaction=ReactionSpec(), T=1.0, epsilon=0.2,
                         initial=1.0 + 0.3 * np.cos(np.linspace(0.0, 3.0,
                                                                n_dof)))
    w = np.random.default_rng(3).standard_normal((N + 1, n_dof))
    return lambda: minimize_wed(problem, w, constant_trajectory(
        problem.grid, problem.initial, problem.T, N))


def _wide_lane(problem):
    return lambda: minimize_wide(problem, 6)


LANES = {
    "rateind-a0": (rateind, _ri_lane(0.0)),
    "rateind-a>0": (rateind, _ri_lane(0.7)),
    "wed-m2": (wed, _wed_lane(EnergySpec(kind="m_laplace", m=2.0, B=1.0,
                                         C=0.2))),
    "wed-m3-p3": (wed, _wed_lane(EnergySpec(kind="m_laplace", m=3.0, B=1.0,
                                            C=0.5), p=3.0)),
    "wed-quadratic": (wed, _wed_lane(EnergySpec(kind="quadratic",
                                                gamma=1.3))),
    "wed-fractional": (wed, _wed_lane(EnergySpec(kind="fractional", s=0.4,
                                                 gamma=0.5))),
    "wed-lv_quadratic": (wed, _wed_lane(EnergySpec(
        kind="lv_quadratic", D1=1.0, D2=0.5, F1=0.3, F2=0.2))),
    "wed-table": (wed, _wed_lane(
        EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.2),
        dissipation=DissipationSpec(p=2.0, alpha_kind="table",
                                    table_s=np.array([-10.0, 0.0, 10.0]),
                                    table_alpha=np.array([-5.0, 0.0,
                                                          20.0])))),
    "wide-wave": (wide, _wide_lane(WideWaveProblem(
        grid=line_grid(5), rho=1.0, nu=0.2,
        f_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25), lam=0.0, p_growth=4.0, T=1.0,
        epsilon=0.1, initial=np.cos(np.linspace(0.0, np.pi, 5)),
        velocity=np.linspace(0.0, 0.3, 5)))),
    "wide-lagrangian": (wide, _wide_lane(LagrangianProblem(
        d=2, M=np.array([[2.0, 0.3], [0.3, 1.0]]), nu=0.4,
        u_kind="quadratic", Q=np.array([[1.0, 0.2], [0.2, 0.5]]), T=1.0,
        epsilon=0.1, initial=np.array([1.0, -0.5]),
        velocity=np.array([0.2, 0.1])))),
    "wide-lagrangian-poly": (wide, _wide_lane(LagrangianProblem(
        d=2, M=np.eye(2), nu=0.1, u_kind="component_poly",
        u_coeffs=(0.0, 0.0, 0.5, 0.0, 0.1), T=1.0, epsilon=0.1,
        initial=np.array([1.0, -0.5]), velocity=np.array([0.2, 0.1])))),
}


@pytest.mark.parametrize("lane", sorted(LANES))
def test_stacked_gradient_rows_are_the_single_trajectory_gradients(
        monkeypatch, lane):
    module, solve = LANES[lane]
    grad, pinned, N = _lane_gradient(monkeypatch, module, solve)
    k, n_dof = pinned.shape
    rng = np.random.default_rng(7)
    V = 1.0 + 0.5 * rng.standard_normal((7, N + 1 - k, n_dof))
    G = grad(V)
    assert G.shape == V.shape
    for row in range(V.shape[0]):
        assert np.array_equal(G[row], grad(V[row].copy()))
    # and through the front end: the flat unknowns of each trajectory
    seen = []

    def capture(x0, grad_fn, hess_fn, scale, **options):
        seen.append(grad_fn)
        return x0, 0.0, 0, True

    monkeypatch.setattr(module, "newton_solve", capture)
    _newton.pinned_solve(module.newton_solve, pinned, N, None, grad,
                         lambda U: None, np.ones(N + 1 - k))
    X = V.reshape(V.shape[0], -1)
    rows = seen[0](X)
    for row in range(X.shape[0]):
        assert np.array_equal(rows[row], seen[0](X[row:row + 1])[0])
        assert np.array_equal(rows[row], G[row].ravel())


@pytest.mark.parametrize("lane", sorted(LANES))
def test_every_lane_gradient_takes_a_longdouble_stack(monkeypatch, lane):
    # the extended-precision polish evaluates a lane's gradient on an
    # np.longdouble stack, and rounds only its result
    module, solve = LANES[lane]
    grad, pinned, N = _lane_gradient(monkeypatch, module, solve)
    k, n_dof = pinned.shape
    V = 1.0 + 0.5 * np.random.default_rng(8).standard_normal((3, N + 1 - k,
                                                               n_dof))
    G = grad(V)
    wide = grad(V.astype(np.longdouble))
    assert wide.dtype == np.longdouble and wide.shape == V.shape
    assert np.max(np.abs(wide.astype(float) - G)) \
        <= 1e-12 * np.max(np.abs(G))


# the Hessian each lane hands to newton_solve: its class, whether it is
# factored symmetrically (a SparseHessian), and whether one serves every
# iterate (a Hessian that no state changes)
LANE_HESSIANS = {
    "rateind-a0": (_newton.KnotTridiagonal, None, False),
    "rateind-a>0": (_newton.SparseHessian, False, False),
    "wed-m2": (_newton.FastDiagonalization, None, True),
    "wed-m3-p3": (_newton.SparseHessian, False, False),
    "wed-quadratic": (_newton.FastDiagonalization, None, True),
    "wed-fractional": (_newton.SparseHessian, False, True),
    "wed-lv_quadratic": (_newton.SparseHessian, False, True),
    "wed-table": (_newton.SparseHessian, False, False),
    "wide-wave": (_newton.SparseHessian, False, False),
    "wide-lagrangian": (_newton.SparseHessian, False, False),
    "wide-lagrangian-poly": (_newton.SparseHessian, False, False),
}


@pytest.mark.parametrize("lane", sorted(LANE_HESSIANS) + ["wed-2d-m3"])
def test_every_lane_hessian_solves_itself(monkeypatch, lane):
    if lane == "wed-2d-m3":
        module = wed
        solve = lambda: rect_solve(rect_problem(shape=(4, 3)), N=3)  # noqa
        kind, symmetric, held = _newton.SparseHessian, True, False
    else:
        module, solve = LANES[lane]
        kind, symmetric, held = LANE_HESSIANS[lane]
    seen = []

    def capture(x0, grad_fn, hess_fn, scale, **options):
        seen.append((hess_fn(x0), hess_fn(x0 + 0.25), x0))
        return x0, 0.0, 0, True

    monkeypatch.setattr(module, "newton_solve", capture)
    solve()
    H, other, x0 = seen[0]
    assert type(H) is kind and type(other) is kind
    assert (other is H) == held
    if symmetric is not None:
        assert H.symmetric == symmetric
    # the whole protocol newton_solve uses
    assert H.diagonal().shape == x0.shape
    step = H.solve(np.linspace(-1.0, 1.0, x0.size), 0.1)
    assert step.shape == x0.shape and np.isfinite(step).all()


def _compare_with_sequential(monkeypatch, module, solve) -> list:
    """Run solve with every newton_solve call also made by the
    sequential-sweep reference; returns [(result, reference, rows,
    calls)] per call."""
    out = []
    real = module.newton_solve

    def both(x0, grad_fn, hess_fn, scale, **options):
        rows = []

        def counted(X):
            rows.append(X.shape[0])
            return grad_fn(X)

        got = real(x0, counted, hess_fn, scale, **options)
        ref = _sequential_newton(x0, grad_fn, hess_fn, scale, **options)
        out.append((got, ref, sum(rows), len(rows)))
        return got

    monkeypatch.setattr(module, "newton_solve", both)
    solve()
    return out


@pytest.mark.parametrize("case", ["ri_ramp-stage", "heat-p4"])
def test_stacked_sweep_is_bitwise_the_sequential_sweep(monkeypatch, case):
    if case == "ri_ramp-stage":
        problem = Scenario.from_text(bundled_scenarios()["ri_ramp"]).problem
        module = rateind
        # the second smoothing stage, warm-started by the first, backtracks
        solve = lambda: minimize_wed_ri(problem, deltas=(1e-2, 1e-3))  # noqa
    else:
        problem = replace(heat_problem(n=16),
                          dissipation=DissipationSpec(p=4.0))
        module = wed
        solve = lambda: wed.eps_continuation(problem, [0.2, 0.1], 16)  # noqa
    results = _compare_with_sequential(monkeypatch, module, solve)
    assert results
    # some sweep went past the full step, in stacks of several rows
    assert any(rows > calls for _, _, rows, calls in results)
    for (x, res, iters, conv), (rx, rres, riters, rconv), _, _ in results:
        assert np.array_equal(x, rx)
        assert res == rres and iters == riters and conv == rconv


def test_sweep_after_a_damped_step_starts_with_a_stack(monkeypatch):
    # a sweep's first call is the full step alone after an accepted full
    # step (or at the first iteration), and a whole stack of trials after
    # a damped one; the solve stays bitwise the sequential sweep's
    problem = Scenario.from_text(bundled_scenarios()["ri_ramp"]).problem
    events, results = [], []
    real_backtrack = _newton._backtrack
    real = rateind.newton_solve

    def backtrack(*args):
        out = real_backtrack(*args)
        events.append(("a", out[0]))
        return out

    def watched(x0, grad_fn, hess_fn, scale, **options):
        def grad(X):
            events.append(("rows", X.shape[0]))
            return grad_fn(X)

        def hess(x):
            events.append(("hess", None))
            return hess_fn(x)

        events.append(("solve", x0.size))
        got = real(x0, grad, hess, scale, **options)
        results.append((got, _sequential_newton(x0, grad_fn, hess_fn, scale,
                                                **options)))
        return got

    monkeypatch.setattr(_newton, "_backtrack", backtrack)
    monkeypatch.setattr(rateind, "newton_solve", watched)
    minimize_wed_ri(problem, deltas=(1e-2, 1e-3, 1e-4))
    monkeypatch.undo()
    firsts = {1.0: [], "damped": []}
    batch = last = None
    for i, (kind, value) in enumerate(events):
        if kind == "solve":
            batch, last = max(1, _newton._SWEEP_ELEMENTS // value), 1.0
        elif kind == "a":
            # a rejected sweep ends in the _MIN_STEP step
            last = 1.0 if value == 1.0 else "damped"
        elif kind == "hess":
            # the first gradient call of this iteration's sweep
            rows = next(v for k, v in events[i:] if k == "rows")
            firsts[last].append(rows)
    assert batch == 10
    assert firsts[1.0] and set(firsts[1.0]) == {1}
    assert firsts["damped"] and set(firsts["damped"]) == {batch}
    for (x, res, iters, conv), (rx, rres, riters, rconv) in results:
        assert np.array_equal(x, rx)
        assert res == rres and iters == riters and conv == rconv


def test_1d_ladder_heat_evaluates_one_row_per_gradient_call(monkeypatch):
    # the benchmark ladder's 1D n = 512, N = 64 problem: 32,768 unknowns,
    # past the sweep's element budget, so every call is a single row
    problem = heat_problem(n=512, spacing=1.0 / 512)
    rows = []
    real = wed.newton_solve

    def watched(x0, grad_fn, hess_fn, scale, **options):
        def grad(X):
            rows.append(X.shape)
            return grad_fn(X)
        return real(x0, grad, hess_fn, scale, **options)

    monkeypatch.setattr(wed, "newton_solve", watched)
    wed.eps_continuation(problem, [0.2, 0.1, 0.05], 64)
    assert len(rows) > 3
    assert all(shape == (1, 512 * 64) for shape in rows)


def test_stalled_sweep_evaluates_no_trial_equal_to_the_iterate(
        monkeypatch):
    # the benchmark ladder's 1D problem at eps = 0.2: a late Newton step
    # is below the iterate's ulp, so its trial points come to be bitwise
    # the iterate; the sweep ends at the first of them, which never
    # reaches the gradient, and the result, polished after the stall, is
    # still bitwise the sequential sweep's, which evaluates them all
    problem = heat_problem(n=512, spacing=1.0 / 512)
    counts = count_newton(monkeypatch, wed)
    stalled = dict(grads=0, rows=0, repeats=0)
    real = wed.newton_solve
    results, sweeps = [], []
    real_backtrack = _newton._backtrack
    monkeypatch.setattr(_newton, "_backtrack", lambda *args: sweeps.append(
        real_backtrack(*args)) or sweeps[-1])

    def both(x0, grad_fn, hess_fn, scale, **options):
        got = real(x0, grad_fn, hess_fn, scale, **options)
        results.append((got, _sequential_newton(
            x0, *watch_repeats(grad_fn, hess_fn, stalled), scale,
            **options)))
        return got

    monkeypatch.setattr(wed, "newton_solve", both)
    wed.eps_continuation(problem, [0.2], 64)
    assert len(results) == 1
    (x, res, iters, conv), (rx, rres, riters, rconv) = results[0]
    assert np.array_equal(x, rx) and x.dtype == np.float64
    assert res == rres and iters == riters and conv == rconv
    assert conv and res <= 1e-10
    assert any(a is None for a, *_ in sweeps)
    assert stalled["repeats"] > 0
    assert counts["repeats"] == 0
    assert counts["grads"] == stalled["grads"] - stalled["repeats"]


def test_trial_equal_to_the_iterate_but_for_a_zero_sign_is_evaluated():
    calls = []

    def grad_fn(X):
        calls.append(X.copy())
        return X - 1.0

    sweep = (np.array([1.0]), np.array([1.0 - 1e-4]), 1)
    step = np.zeros(2)
    for x in (np.array([0.0, 2.0]), np.array([-0.0, 2.0])):
        g = x - 1.0
        _newton._backtrack(grad_fn, x, step, np.ones(2),
                           float(np.max(np.abs(g))), sweep)
    # +0.0 + 0.0 is the iterate's bits, -0.0 + 0.0 = +0.0 is not
    assert len(calls) == 1
    assert calls[0].shape == (1, 2) and not np.signbit(calls[0][0, 0])


@pytest.mark.parametrize("x, step", [
    ([1.0, 2.0], [1e-10, -3e-12]),      # rows past some a round to x
    ([-0.0, 1.0], [1e-320, 1e-20]),     # -0.0 + (+tiny or +0.0): never x
    ([-0.0, 1.0], [-1e-320, 1e-20]),    # underflows to -0.0: x again
    ([0.0, 1.0], [-1e-320, 1e-17]),
    ([3.0, -0.0], [0.0, 0.0]),          # every trial is x
    ([3.0, 1.0], [1.0, -1.0]),          # no trial is x
])
def test_trial_rows_equal_to_the_iterate_are_the_last_and_take_g(x, step):
    # a sweep that rejects every trial ends at its first row bitwise equal
    # to x: the rows before it are evaluated once, in the calls of the
    # sweep's schedule, and no row equal to x reaches the gradient
    x, step = np.array(x), np.array(step)
    trials = 0.5 ** np.arange(45)
    sweep = (trials, 1.0 - 1e-4 * trials, 4)
    calls = []

    def grad_fn(X):
        calls.append(X.copy())
        return np.ones_like(X)

    assert _newton._backtrack(grad_fn, x, step, np.ones(2), 0.5,
                              sweep) == (None, None, None, None)
    same = [(x + t * step).tobytes() == x.tobytes() for t in trials]
    assert same == sorted(same)   # a suffix, as the sweep assumes
    first = same.index(True) if True in same else trials.size
    evaluated = [row.tobytes() for X in calls for row in X]
    assert evaluated == [(x + t * step).tobytes() for t in trials[:first]]
    # one row, then 4 rows to a call, up to the first row equal to x
    bounds = [0, *range(1, trials.size, 4), trials.size]
    fresh = [min(hi, first) - lo for lo, hi in zip(bounds, bounds[1:])]
    assert [len(X) for X in calls] == [k for k in fresh if k > 0]
