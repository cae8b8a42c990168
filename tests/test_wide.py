"""Inertial lane: functional value and gradient, the Newton solver on the
oscillator, symmetry maps, and the conserved-quantity diagnostics."""

import numpy as np
import pytest

from wedflow import (ConfigurationError, LagrangianProblem, Trajectory,
                     RMap, WideWaveProblem, build_grid,
                     equivariance_residual, hamiltonian, hamiltonian_drift,
                     minimize_wide, reflection_permutation,
                     wide_continuation, wide_invariance_residual,
                     wide_trajectory, wide_value_grad)
from wedflow.wide import require_invariant_data

from conftest import line_grid, point_grid, same_bits


def wave_problem(n=5, eps=0.1, nu=0.2, f_coeffs=(0.0, 0.0, 0.5), lam=1.0,
                 u0=None, v0=None):
    g = line_grid(n, spacing=1.0 / (n - 1))
    x = g.coords()[:, 0]
    if u0 is None:
        u0 = 0.5 + 0.3 * np.cos(2.0 * np.pi * x / x.max())
    if v0 is None:
        v0 = np.zeros(n)
    return WideWaveProblem(grid=g, rho=1.0, nu=nu, f_coeffs=f_coeffs,
                           lam=lam, p_growth=2.0, T=1.0, epsilon=eps,
                           initial=u0, velocity=v0)


def oscillator(eps=0.05, nu=0.0):
    return LagrangianProblem(d=1, M=np.eye(1), nu=nu, u_kind="quadratic",
                             Q=np.eye(1), T=1.0, epsilon=eps,
                             initial=np.ones(1), velocity=np.zeros(1))


def planar(eps=0.05):
    return LagrangianProblem(d=2, M=np.eye(2), nu=0.1, u_kind="quadratic",
                             Q=np.eye(2), T=1.0, epsilon=eps,
                             initial=np.array([1.0, 0.25]),
                             velocity=np.array([0.0, -0.5]))


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_wave_problem_validation():
    with pytest.raises(ConfigurationError):
        wave_problem(nu=-0.1)
    with pytest.raises(ConfigurationError):
        wave_problem(eps=2.0)
    g = line_grid(5)
    with pytest.raises(ConfigurationError):
        WideWaveProblem(grid=g, rho=0.0, nu=0.0, f_coeffs=(0.0,), lam=0.0,
                        p_growth=2.0, T=1.0, epsilon=0.1,
                        initial=np.zeros(5), velocity=np.zeros(5))
    with pytest.raises(ConfigurationError):
        WideWaveProblem(grid=g, rho=1.0, nu=0.0, f_coeffs=(0.0,), lam=0.0,
                        p_growth=1.5, T=1.0, epsilon=0.1,
                        initial=np.zeros(5), velocity=np.zeros(5))
    with pytest.raises(ConfigurationError):
        wave_problem(u0=np.zeros(4))


def test_wave_curvature_declaration_is_checked():
    # F'' = 1 everywhere, so claiming a bound of 2 must fail
    with pytest.raises(ConfigurationError):
        wave_problem(f_coeffs=(0.0, 0.0, 0.5), lam=2.0)
    # an affine F has zero curvature; positive claims are rejected
    with pytest.raises(ConfigurationError):
        wave_problem(f_coeffs=(0.0, 1.0), lam=0.5)
    # honest negative bound on a concave term is accepted
    wave_problem(f_coeffs=(0.0, 0.0, -0.05), lam=-0.1)


def test_lagrangian_problem_validation():
    ok = dict(d=2, M=np.eye(2), nu=0.0, u_kind="quadratic", Q=np.eye(2),
              T=1.0, epsilon=0.1, initial=np.zeros(2), velocity=np.zeros(2))
    LagrangianProblem(**ok)
    with pytest.raises(ConfigurationError):
        LagrangianProblem(**{**ok, "M": np.array([[1.0, 0.5], [0.0, 1.0]])})
    with pytest.raises(ConfigurationError):
        LagrangianProblem(**{**ok, "M": np.diag([1.0, -1.0])})
    with pytest.raises(ConfigurationError):
        LagrangianProblem(**{**ok, "Q": np.diag([1.0, -2.0])})
    with pytest.raises(ConfigurationError):
        LagrangianProblem(**{**ok, "u_kind": "table"})
    with pytest.raises(ConfigurationError):
        LagrangianProblem(**{**ok, "u_kind": "component_poly",
                             "u_coeffs": ()})
    with pytest.raises(ConfigurationError):
        LagrangianProblem(**{**ok, "u_kind": "component_poly",
                             "u_coeffs": (0.0, 0.0, -1.0)})
    with pytest.raises(ConfigurationError):
        LagrangianProblem(**{**ok, "velocity": np.zeros(3)})



def test_wave_growth_probe_takes_a_large_exponent():
    # |s|^p overflows at p = 1e3, where the growth F = u^2/2 <= |u|^p + C
    # holds; the constants are taken from logs
    g = line_grid(5)
    WideWaveProblem(grid=g, rho=1.0, nu=0.0, f_coeffs=(0.0, 0.0, 0.5),
                    lam=0.0, p_growth=1e3, T=1.0, epsilon=0.1,
                    initial=np.linspace(0.0, 1.0, 5), velocity=np.zeros(5))


@pytest.mark.parametrize("over, field", [
    ({"u0": np.full(5, 1e200)}, "initial"),
    ({"u0": np.full(5, 1.7e308), "f_coeffs": (0.0, 1.0), "lam": 0.0},
     "initial"),
    ({"f_coeffs": (0.0, 0.0, 1e308)}, "f_coeffs"),
    ({"f_coeffs": (0.0, 0.0, 0.5, 0.0, 1e306)}, "f_coeffs"),
], ids=["initial 1e200", "initial near max", "F'' coefficient",
        "F on [-10, 10]"])
def test_wave_probe_overflow_names_the_field(over, field):
    # an overflow in the constructor's probes is a configuration error
    # naming the field at fault, not a RuntimeWarning
    with pytest.raises(ConfigurationError) as err:
        wave_problem(**over)
    assert err.value.field == field


def test_lagrangian_coefficient_overflow_names_the_field():
    with pytest.raises(ConfigurationError) as err:
        LagrangianProblem(d=2, M=np.eye(2), nu=0.0, u_kind="component_poly",
                          u_coeffs=(0.0, 0.0, 1e308), T=1.0, epsilon=0.1,
                          initial=np.zeros(2), velocity=np.zeros(2))
    assert err.value.field == "u_coeffs"

# ---------------------------------------------------------------------------
# trajectories and the functional
# ---------------------------------------------------------------------------

def test_wide_trajectory_pins_two_rows():
    problem = wave_problem()
    N = 6
    dt = problem.T / N
    vals = np.tile(problem.initial, (N + 1, 1))
    vals[1] = problem.initial + dt * problem.velocity
    traj = wide_trajectory(problem, vals)
    assert np.array_equal(traj.values, vals) and traj.steps == N
    bad = vals.copy()
    bad[1] = bad[1] + 1e-12
    with pytest.raises(ConfigurationError):
        wide_trajectory(problem, bad)


def random_wide_values(problem, N, rng):
    dt = problem.T / N
    vals = rng.standard_normal((N + 1, problem.n_dof)) * 0.4
    vals[0] = problem.initial
    vals[1] = problem.initial + dt * problem.velocity
    return vals


def direct_wide_value(problem, vals):
    # wave assembly from scratch: explicit stencils and edge sums
    N = vals.shape[0] - 1
    dt = problem.T / N
    eps = problem.epsilon
    g = problem.grid
    hd = g.cell_measure
    h = g.spacing[0]
    t = np.linspace(0.0, problem.T, N + 1)
    beta = np.exp(-t / eps)

    def F(u):
        return float(sum(c * np.sum(u ** k)
                         for k, c in enumerate(problem.f_coeffs))) * hd

    value = 0.0
    for n in range(1, N):
        acc = (vals[n + 1] - 2.0 * vals[n] + vals[n - 1]) / dt ** 2
        value += beta[n] * dt * 0.5 * eps ** 2 \
            * problem.rho * hd * float(acc @ acc)
    for n in range(1, N + 1):
        vel = (vals[n] - vals[n - 1]) / dt
        value += beta[n] * dt * 0.5 * eps * problem.nu * hd \
            * float(vel @ vel)
        dirichlet = 0.5 * float(np.sum(np.diff(vals[n]) ** 2)) * hd / h ** 2
        value += beta[n] * dt * (dirichlet + F(vals[n]))
    return value


def test_wide_value_matches_direct_sum():
    problem = wave_problem(n=5)
    rng = np.random.default_rng(6)
    vals = random_wide_values(problem, 8, rng)
    traj = wide_trajectory(problem, vals)
    lib, _ = wide_value_grad(problem, traj)
    ref = direct_wide_value(problem, vals)
    assert abs(lib - ref) <= 1e-12 * (1.0 + abs(ref))


def test_wide_gradient_matches_finite_differences():
    problem = wave_problem(n=5, f_coeffs=(0.0, 0.0, 0.5, 0.0, 0.25))
    rng = np.random.default_rng(7)
    vals = random_wide_values(problem, 8, rng)
    traj = wide_trajectory(problem, vals)
    _, grad = wide_value_grad(problem, traj)
    assert np.all(grad[0] == 0.0) and np.all(grad[1] == 0.0)
    h = 1e-6
    for idx in ((2, 0), (4, 2), (8, 4), (5, 1)):
        bump = vals.copy()
        bump[idx] += h
        up, _ = wide_value_grad(problem, wide_trajectory(problem, bump))
        bump[idx] -= 2 * h
        dn, _ = wide_value_grad(problem, wide_trajectory(problem, bump))
        fd = (up - dn) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=2e-5, abs=1e-9)


def test_wide_gradient_lagrangian_finite_differences():
    problem = LagrangianProblem(
        d=2, M=np.array([[2.0, 0.3], [0.3, 1.0]]), nu=0.1,
        u_kind="quadratic", Q=np.diag([1.0, 4.0]), T=1.0, epsilon=0.1,
        initial=np.array([0.5, -0.2]), velocity=np.array([0.1, 0.3]))
    rng = np.random.default_rng(8)
    vals = random_wide_values(problem, 6, rng)
    traj = wide_trajectory(problem, vals)
    _, grad = wide_value_grad(problem, traj)
    h = 1e-6
    for idx in ((2, 0), (3, 1), (6, 0)):
        bump = vals.copy()
        bump[idx] += h
        up, _ = wide_value_grad(problem, wide_trajectory(problem, bump))
        bump[idx] -= 2 * h
        dn, _ = wide_value_grad(problem, wide_trajectory(problem, bump))
        assert grad[idx] == pytest.approx((up - dn) / (2 * h),
                                          rel=2e-5, abs=1e-9)


def test_wide_value_refuses_two_knots():
    problem = oscillator()
    vals = np.array([[1.0], [1.0]])
    with pytest.raises(ConfigurationError):
        wide_value_grad(problem, Trajectory(point_grid(), 1.0, vals))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_oscillator_tracks_cosine():
    fam = wide_continuation(oscillator(), [0.04, 0.02], steps=100)
    t = np.linspace(0.0, 1.0, 101)
    errs = []
    for eps, traj, rep in fam:
        assert rep.converged
        errs.append(float(np.max(np.abs(traj.values[:, 0] - np.cos(t)))))
    assert errs[-1] <= 5e-2  # measured 0.0196 at eps = 0.02, 100 steps
    assert errs[-1] <= errs[0]


def test_minimize_wide_pins_rows_bitwise():
    problem = wave_problem(n=7, eps=0.08, v0=np.full(7, 0.1))
    traj, rep = minimize_wide(problem, steps=24)
    assert rep.converged
    dt = problem.T / 24
    assert np.array_equal(traj.values[0], problem.initial)
    assert np.array_equal(traj.values[1],
                          problem.initial + dt * problem.velocity)
    assert any(note.startswith("curvature_bound=")
               for note in rep.notes)


@pytest.mark.parametrize("make", [
    lambda: wave_problem(n=5, f_coeffs=(0.0, 0.0, 0.5, 0.0, 0.1)),
    lambda: LagrangianProblem(d=2, M=np.eye(2), nu=0.1,
                              u_kind="component_poly",
                              u_coeffs=(0.0, 0.0, 0.5, 0.0, 0.25), T=1.0,
                              epsilon=0.1, initial=np.array([1.0, -0.5]),
                              velocity=np.zeros(2))],
    ids=["wave", "lagrangian"])
def test_solve_computes_no_polynomial_derivative(monkeypatch, make):
    problem = make()
    P = np.polynomial.polynomial
    real, calls = P.polyder, []
    monkeypatch.setattr(P, "polyder",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    _, rep = minimize_wide(problem, steps=12)
    assert rep.converged
    assert calls == []


def test_minimize_wide_rejects_bad_init_and_steps():
    problem = oscillator()
    with pytest.raises(ConfigurationError):
        minimize_wide(problem, steps=1)
    other, _ = minimize_wide(problem, steps=12)
    with pytest.raises(ConfigurationError):
        minimize_wide(problem, steps=16, init=other)
    # the knot count fits, but the trajectory is of a d = 1 problem
    with pytest.raises(ConfigurationError, match=r"init has shape \(13, 1\)"):
        minimize_wide(planar(), steps=12, init=other)


def test_minimize_wide_rejects_init_off_the_pinned_rows():
    problem = oscillator()
    good, _ = minimize_wide(problem, steps=12)
    vals = good.values.copy()
    vals[1] += 1e-12  # the velocity row
    init = Trajectory(point_grid(), problem.T, vals)
    with pytest.raises(ConfigurationError, match="pinned rows"):
        minimize_wide(problem, steps=12, init=init)


def test_minimize_wide_builds_its_parts_once_per_solve(monkeypatch):
    from wedflow import wide
    real, calls = wide._Parts.__init__, []
    monkeypatch.setattr(wide._Parts, "__init__",
                        lambda self, p: calls.append(p) or real(self, p))
    fam = wide_continuation(oscillator(), [0.1, 0.05, 0.025], steps=16)
    assert len(fam) == 3 and len(calls) == 3


def test_wide_continuation_requires_decreasing_schedule():
    with pytest.raises(ConfigurationError):
        wide_continuation(oscillator(), [0.02, 0.04], steps=16)


# ---------------------------------------------------------------------------
# symmetry maps
# ---------------------------------------------------------------------------

def test_wide_map_validation():
    with pytest.raises(ConfigurationError):
        RMap(kind="spiral")
    with pytest.raises(ConfigurationError):
        RMap(kind="rigid")
    with pytest.raises(ConfigurationError):
        RMap(kind="lagrangian_affine",
             r=np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_affine_map_moves_states_not_velocities():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    R = RMap(kind="lagrangian_affine", r=rot, shift=np.array([1.0, 0.0]))
    u = np.array([0.5, 0.25])
    assert np.allclose(R.apply(u[None], point_grid())[0],
                       rot @ u + [1.0, 0.0])
    assert np.allclose(R.apply(u[None], point_grid(), velocity=True)[0],
                       rot @ u)
    perm = RMap(kind="rigid", permutation=np.array([2, 1, 0]))
    assert np.array_equal(perm.apply(np.arange(3.0)[None], point_grid(),
                                     velocity=True)[0],
                          [2.0, 1.0, 0.0])


def test_rotation_equivariance_planar():
    R = RMap(kind="lagrangian_affine",
             r=np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert equivariance_residual(planar(), R, steps=32) <= 1e-7


def test_wide_invariant_solve_reflection_wave():
    n = 9
    g = line_grid(n, spacing=1.0 / (n - 1))
    x = g.coords()[:, 0]
    raw = 0.5 + 0.3 * np.cos(2.0 * np.pi * x / x.max())
    u0 = 0.5 * (raw + raw[::-1])
    problem = wave_problem(n=n, u0=u0)
    R = RMap(kind="rigid", permutation=reflection_permutation(g))
    require_invariant_data(problem, R)
    traj = wide_continuation(problem, (0.1, 0.05), 32)[-1][1]
    assert wide_invariance_residual(R, traj) <= 1e-8  # measured 1.6e-12


def test_wide_invariant_solve_requires_invariant_data():
    n = 9
    g = line_grid(n, spacing=1.0 / (n - 1))
    R = RMap(kind="rigid", permutation=reflection_permutation(g))
    asym = np.linspace(0.0, 1.0, n)
    with pytest.raises(ConfigurationError):
        require_invariant_data(wave_problem(n=n, u0=asym), R)
    sym = np.ones(n)
    with pytest.raises(ConfigurationError):
        require_invariant_data(wave_problem(n=n, u0=sym, v0=asym), R)


def test_averaging_needs_convex_nonlinearity():
    problem = wave_problem(n=5, f_coeffs=(0.0, 0.0, -0.05), lam=-0.1,
                           u0=np.ones(5))
    R = RMap(kind="averaging")
    with pytest.raises(ConfigurationError):
        require_invariant_data(problem, R)


# ---------------------------------------------------------------------------
# conserved-quantity diagnostics
# ---------------------------------------------------------------------------

def test_hamiltonian_of_exact_cosine():
    problem = oscillator()
    N = 200
    t = np.linspace(0.0, 1.0, N + 1)
    vals = np.cos(t)[:, None]
    traj = Trajectory(point_grid(), 1.0, vals)
    H = hamiltonian(problem, traj)
    assert H.shape == (N - 1,)
    assert np.max(np.abs(H - 0.5)) <= 5e-3
    assert hamiltonian_drift(problem, traj) <= 5e-3


def test_hamiltonian_drift_zero_base():
    problem = oscillator()
    vals = np.zeros((9, 1))
    traj = Trajectory(point_grid(), 1.0, vals)
    assert hamiltonian_drift(problem, traj) == 0.0


@pytest.mark.parametrize("make", [
    lambda: wave_problem(n=6, nu=0.3, f_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25)),
    lambda: LagrangianProblem(d=2, M=np.array([[2.0, 0.3], [0.3, 1.0]]),
                              nu=0.1, u_kind="quadratic",
                              Q=np.array([[1.0, 0.2], [0.2, 3.0]]), T=1.0,
                              epsilon=0.1, initial=np.array([1.0, 0.25]),
                              velocity=np.array([0.0, -0.5])),
    lambda: LagrangianProblem(d=2, M=np.eye(2), nu=0.1,
                              u_kind="component_poly",
                              u_coeffs=(0.0, 0.0, 0.5, 0.0, 0.25), T=1.0,
                              epsilon=0.1, initial=np.array([1.0, -0.5]),
                              velocity=np.zeros(2))],
    ids=["wave", "quadratic", "component_poly"])
def test_hamiltonian_reproduces_the_knot_loop_bit_for_bit(make):
    from wedflow.wide import _Parts
    problem = make()
    N = 9
    vals = random_wide_values(problem, N, np.random.default_rng(4))
    parts = _Parts(problem)
    dt = problem.T / N
    ref = np.empty(N - 1)
    for n in range(1, N):
        v = (vals[n + 1] - vals[n - 1]) / (2.0 * dt)
        pot = 0.5 * float(vals[n] @ (parts.S @ vals[n])) \
            + parts.g_val(vals[n])
        ref[n - 1] = 0.5 * float(v @ (parts.M @ v)) + pot
    traj = Trajectory(parts.grid, problem.T, vals)
    assert np.array_equal(hamiltonian(problem, traj), ref)


# ---------------------------------------------------------------------------
# whole-trajectory kernel against the knot-by-knot assembly
# ---------------------------------------------------------------------------

def _knot_loop_reference(problem, vals):
    """Value, gradient and Hessian assembled knot by knot, with every sum in
    the order the array kernel has to reproduce bit for bit (the wave
    solutions are ill-conditioned enough to show any other rounding)."""
    import scipy.sparse as sp
    from wedflow.energies import graph_laplacian
    N = vals.shape[0] - 1
    nd = vals.shape[1]
    dt = problem.T / N
    eps = problem.epsilon
    hd = problem.grid.cell_measure
    M = sp.identity(nd, format="csr") * (problem.rho * hd)
    D = sp.identity(nd, format="csr") * (problem.nu * hd)
    S = graph_laplacian(problem.grid, 1.0)
    beta = np.exp(-np.linspace(0.0, problem.T, N + 1) / eps)
    w_acc = beta[1:N] * dt * 0.5 * eps ** 2
    w_vel = beta[1:] * dt * 0.5 * eps
    w_pot = beta[1:] * dt
    acc = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / dt ** 2
    vel = np.diff(vals, axis=0) / dt
    value = 0.0
    grad = np.zeros_like(vals)
    for k in range(N - 1):
        Ma = M @ acc[k]
        value += w_acc[k] * float(acc[k] @ Ma)
        c = 2.0 * w_acc[k] / dt ** 2
        grad[k] += c * Ma
        grad[k + 1] -= 2.0 * c * Ma
        grad[k + 2] += c * Ma
    for k in range(N):
        Dv = D @ vel[k]
        value += w_vel[k] * float(vel[k] @ Dv)
        c = 2.0 * w_vel[k] / dt
        grad[k + 1] += c * Dv
        grad[k] -= c * Dv
        un = vals[k + 1]
        Su = S @ un
        value += w_pot[k] * (0.5 * float(un @ Su) + problem.force_value(un))
        grad[k + 1] += w_pot[k] * (Su + problem.force_grad(un))
    grad[:2] = 0.0
    blocks = [[None] * (N - 1) for _ in range(N - 1)]
    stencil = {}
    for n in range(1, N):
        c = 2.0 * w_acc[n - 1] / dt ** 4
        for i, si in ((n - 1, 1.0), (n, -2.0), (n + 1, 1.0)):
            for j, sj in ((n - 1, 1.0), (n, -2.0), (n + 1, 1.0)):
                if i >= 2 and j >= 2:
                    key = (i - 2, j - 2)
                    stencil[key] = stencil.get(key, 0.0) + c * si * sj
    for (i, j), c in stencil.items():
        blocks[i][j] = c * M
    for n in range(1, N + 1):
        c = 2.0 * w_vel[n - 1] / dt ** 2
        for i, si in ((n - 1, -1.0), (n, 1.0)):
            for j, sj in ((n - 1, -1.0), (n, 1.0)):
                if i >= 2 and j >= 2:
                    blocks[i - 2][j - 2] = blocks[i - 2][j - 2] \
                        + c * si * sj * D
    for n in range(2, N + 1):
        blocks[n - 2][n - 2] = blocks[n - 2][n - 2] + w_pot[n - 1] * (
            S + sp.diags(problem.force_hess_diag(vals[n])))
    return value, grad, sp.bmat(blocks, format="csc")


@pytest.mark.parametrize("N", [2, 3, 9])
def test_kernel_reproduces_the_knot_loop_bit_for_bit(monkeypatch, N):
    from wedflow import wide
    problem = wave_problem(n=6, nu=0.3, f_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25))
    rng = np.random.default_rng(12)
    vals = random_wide_values(problem, N, rng)
    value, grad = wide_value_grad(problem, wide_trajectory(problem, vals))
    ref_value, ref_grad, ref_hess = _knot_loop_reference(problem, vals)
    assert value == ref_value and np.array_equal(grad, ref_grad)

    captured = {}

    def capture(x0, grad_fn, hess_fn, scale, **kwargs):
        captured["H"] = hess_fn(vals[2:].ravel())
        return x0, 0.0, 0, True

    monkeypatch.setattr(wide, "newton_solve", capture)
    minimize_wide(problem, N)
    H, R = captured["H"].matrix, ref_hess
    H.sort_indices()
    R.sort_indices()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(H, attr), getattr(R, attr))


_FAMILIES = {
    "wave": lambda: wave_problem(n=6, nu=0.3,
                                 f_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25)),
    "lagrangian-quadratic": lambda: LagrangianProblem(
        d=2, M=np.array([[2.0, 0.3], [0.3, 1.0]]), nu=0.4,
        u_kind="quadratic", Q=np.array([[1.0, 0.2], [0.2, 0.5]]), T=1.0,
        epsilon=0.1, initial=np.array([1.0, -0.5]),
        velocity=np.array([0.2, 0.1])),
    "lagrangian-poly": lambda: LagrangianProblem(
        d=2, M=np.eye(2), nu=0.1, u_kind="component_poly",
        u_coeffs=(0.0, 0.0, 0.5, 0.0, 0.1), T=1.0, epsilon=0.1,
        initial=np.array([1.0, -0.5]), velocity=np.array([0.2, 0.1])),
}


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble],
                         ids=["float64", "longdouble"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_gradient_only_kernel_keeps_every_gradient_bit(family, dtype):
    """value=False, the Newton gradient's mode (np.longdouble in the
    polish), gives the gradient of the value-and-gradient call byte for
    byte, on one knot array and on a stack of them."""
    from wedflow.wide import _Parts, _wide_kernel
    problem = _FAMILIES[family]()
    parts = _Parts(problem)
    N = 7
    rng = np.random.default_rng(13)
    U = np.stack([random_wide_values(problem, N, rng) for _ in range(3)])
    U[1, 4, 0] = -0.0
    for X in (U[0], U):
        X = X.astype(dtype)
        full_value, full = _wide_kernel(parts, X)
        value, grad = _wide_kernel(parts, X, value=False)
        assert value is None and full_value is not None
        assert grad.dtype == dtype and grad.shape == X.shape
        assert same_bits(grad, full)


def _scipy_hessian(problem, N, V):
    """The Newton Hessian at the unknown knots V by the scipy chain that
    minimize_wide's direct CSC fill replaced, kept verbatim as its
    oracle: three kron bands, the stiffness and the potential blocks
    scaled per knot, summed and converted to CSC."""
    import scipy.sparse as sp
    from wedflow.energies import polyval
    from wedflow.wide import _knot_weights, _Parts
    parts = _Parts(problem)
    if isinstance(problem, WideWaveProblem):
        g_hess = lambda U: sp.diags(problem.force_hess_diag(U).ravel())
    elif problem.u_kind == "quadratic":
        g_hess = lambda U: sp.kron(
            sp.identity(U.shape[0]), sp.csr_matrix(problem.Q))
    else:
        g_hess = lambda U: sp.diags(
            polyval(U, problem._u_der[1]).ravel())

    def _unknown_band(*diagonals):
        offsets = range(len(diagonals))
        return sp.diags([*diagonals, *diagonals[1:]],
                        [*offsets, *(-o for o in offsets[1:])],
                        format="csr")[2:, 2:]

    dt = problem.T / N
    nd = problem.n_dof
    beta, w_acc, w_vel, w_pot = _knot_weights(problem, N)
    c = np.zeros(N + 2)
    c[1:N] = 2.0 * w_acc / dt ** 4
    v = np.zeros(N + 2)
    v[1:N + 1] = 2.0 * w_vel / dt ** 2
    k = np.arange(N + 1)
    linear = (sp.kron(_unknown_band(c[k - 1] + 4.0 * c[k] + c[k + 1],
                                    -2.0 * c[:N] - 2.0 * c[1:N + 1],
                                    c[1:N]), parts.M, format="csr")
              + sp.kron(_unknown_band(v[k], -v[1:N + 1]), parts.D,
                        format="csr")
              + sp.kron(_unknown_band(v[k + 1]), parts.D, format="csr"))
    pot_rows = sp.diags(np.repeat(w_pot[1:], nd))
    stiffness = sp.kron(sp.identity(N - 1), parts.S, format="csr")
    pot = pot_rows @ (stiffness + g_hess(V))
    return (linear + pot).tocsc()


_FILLED = {**_FAMILIES,
           "wave-undamped": lambda: wave_problem(
               n=6, nu=0.0, f_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25)),
           # exp(-t/eps) underflows from t = 7/9 at N = 9: whole columns
           # of exact zeros, which the chain drops
           "wave-underflow": lambda: wave_problem(n=4, eps=1e-3),
           "lagrangian-poly-coupled-mass": lambda: LagrangianProblem(
               d=3, M=np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0],
                                [0.0, 0.0, 1.5]]),
               nu=0.2, u_kind="component_poly",
               u_coeffs=(0.0, 0.0, 0.5, 0.0, 0.1), T=1.0, epsilon=0.1,
               initial=np.array([1.0, -0.5, 0.2]),
               velocity=np.array([0.2, 0.1, 0.0]))}


@pytest.mark.parametrize("N", [2, 3, 9])
@pytest.mark.parametrize("family", sorted(_FILLED))
def test_hessian_fill_is_the_scipy_chain_bit_for_bit(monkeypatch, family,
                                                     N):
    """minimize_wide's Hessian, filled straight into CSC arrays, has the
    scipy chain's pattern, values and dtypes, its dropped exact zeros
    included."""
    from wedflow import wide
    problem = _FILLED[family]()
    V = random_wide_values(problem, N, np.random.default_rng(14))[2:]
    captured = []

    def capture(x0, grad_fn, hess_fn, scale, **kwargs):
        captured.append(hess_fn(V.ravel()).matrix)
        captured.append(hess_fn(np.zeros_like(V).ravel()).matrix)
        return x0, 0.0, 0, True

    monkeypatch.setattr(wide, "newton_solve", capture)
    minimize_wide(problem, N)
    for H, R in zip(captured, (_scipy_hessian(problem, N, V),
                               _scipy_hessian(problem, N, 0.0 * V))):
        assert type(H) is type(R) and H.shape == R.shape
        for attr in ("indptr", "indices", "data"):
            x, y = getattr(H, attr), getattr(R, attr)
            assert x.dtype == y.dtype and np.array_equal(x, y)
