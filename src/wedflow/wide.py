"""Inertial weighted functionals: the semilinear wave equation on a 1D
grid and finite-dimensional mechanics with a mass matrix.

The functional weighs squared discrete acceleration by eps^2, so its
minimizers approximate the hyperbolic flow as eps shrinks. Trajectories
pin two slots: u_0 = u0 and u_1 = u0 + dt * v0 (the first divided
difference equals the initial velocity). Quadrature is knot-centered:
the acceleration at knot n uses the three-point second difference and the
weight exp(-t_n/eps); the velocity and potential terms at knot n carry
the same knot weight.

No rearrangement or truncation maps appear here on purpose: comparison
principles fail for the wave equation, and the admissible class is too
smooth for nonsmooth reordering anyway. The symmetry maps are RMaps: node
permutations, directional averaging (convex nonlinearity only), and
affine state maps r u + shift with orthogonal r.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .grids import ConfigurationError, Grid, Trajectory, build_grid
from .energies import (_rowdot, _rowmul, _sequential_sum, graph_laplacian,
                       polyders, polyval)
from ._newton import SparseHessian, newton_solve, pinned_solve, with_pins
from .qualitative import RMap, invariance_residual, require_invariant
from .wed import MinimizeReport, continuation


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WideWaveProblem:
    """rho u_tt + nu u_t - Laplace u + F'(u) = 0 on a 1D grid.

    F is polynomial (ascending coefficients) with declared curvature lower
    bound lam (F'' >= lam on the sampled range) and growth exponent
    p_growth >= 2; both declarations are sample-checked at construction.
    """

    grid: Grid
    rho: float
    nu: float
    f_coeffs: tuple
    lam: float
    p_growth: float
    T: float
    epsilon: float
    initial: np.ndarray
    velocity: np.ndarray
    _f_der: tuple = field(init=False, repr=False)  # polyders(f_coeffs)

    def __post_init__(self):
        if self.grid.dim != 1:
            raise ConfigurationError("wave problems are 1D here", "grid")
        if not self.rho > 0:
            raise ConfigurationError("density rho must be positive", "rho")
        if self.nu < 0:
            raise ConfigurationError("damping nu must be nonnegative", "nu")
        if self.p_growth < 2:
            raise ConfigurationError("growth exponent must be >= 2",
                                     "p_growth")
        if not (0 < self.epsilon < self.T):
            raise ConfigurationError("eps must lie in (0, T)", "epsilon")
        object.__setattr__(self, "f_coeffs",
                           tuple(float(c) for c in self.f_coeffs))
        if not self.f_coeffs:
            raise ConfigurationError("F needs at least one coefficient",
                                     "f_coeffs")
        object.__setattr__(self, "_f_der", polyders(self.f_coeffs))
        for name in ("initial", "velocity"):
            v = np.asarray(getattr(self, name), dtype=float).ravel()
            if v.size != self.grid.n_nodes or not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite, one per "
                                         "node", name)
            object.__setattr__(self, name, v)
        # curvature and growth declarations, probed on a wide sample
        r = 10.0 * (1.0 + float(np.max(np.abs(self.initial))))
        s = np.linspace(-r, r, 257)
        if len(self.f_coeffs) > 2:
            d2 = polyval(s, self._f_der[1])
            if np.min(d2) < self.lam - 1e-9:
                raise ConfigurationError(
                    "F'' falls below the declared bound lam on samples",
                    "f_coeffs")
        elif self.lam > 1e-12:
            raise ConfigurationError("an affine F has no curvature lam > 0",
                                     "f_coeffs")
        fs = polyval(s, self.f_coeffs)
        dfs = polyval(s, self._f_der[0])
        pc = self.p_growth / (self.p_growth - 1.0)
        big = np.abs(s) ** self.p_growth
        c1 = np.max((big - fs) / (1.0 + big))
        c2 = np.max(np.abs(dfs) ** pc / (1.0 + big))
        if not (np.isfinite(c1) and np.isfinite(c2)):
            raise ConfigurationError("growth constants are not finite",
                                     "f_coeffs")

    @property
    def n_dof(self) -> int:
        return self.grid.n_nodes

    def force_value(self, u: np.ndarray) -> float:
        return np.sum(polyval(u, self.f_coeffs), axis=-1) \
            * self.grid.cell_measure

    def force_grad(self, u: np.ndarray) -> np.ndarray:
        return polyval(u, self._f_der[0]) \
            * self.grid.cell_measure

    def force_hess_diag(self, u: np.ndarray) -> np.ndarray:
        return polyval(u, self._f_der[1]) * self.grid.cell_measure


@dataclass(frozen=True, eq=False)
class LagrangianProblem:
    """M u_tt + nu u_t + grad U(u) = 0 in R^d.

    U is either "quadratic" (0.5 u^T Q u, Q symmetric positive
    semidefinite) or "component_poly" (a convex polynomial summed over
    components). Convexity is probed on random segments.
    """

    d: int
    M: Optional[np.ndarray]  # None: the identity
    nu: float
    u_kind: str
    T: float
    epsilon: float
    initial: np.ndarray
    velocity: np.ndarray
    Q: Optional[np.ndarray] = None
    u_coeffs: tuple = ()
    _u_der: tuple = field(init=False, repr=False,
                          default=None)  # polyders(u_coeffs)

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension must be positive", "d")
        M = np.eye(self.d) if self.M is None \
            else np.asarray(self.M, dtype=float)
        if M.shape != (self.d, self.d) or not np.allclose(M, M.T):
            raise ConfigurationError("mass matrix must be symmetric d x d",
                                     "M")
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ConfigurationError("mass matrix must be positive definite",
                                     "M")
        object.__setattr__(self, "M", M)
        if self.nu < 0:
            raise ConfigurationError("damping nu must be nonnegative", "nu")
        if not (0 < self.epsilon < self.T):
            raise ConfigurationError("eps must lie in (0, T)", "epsilon")
        if self.u_kind not in ("quadratic", "component_poly"):
            raise ConfigurationError(f"unknown potential kind {self.u_kind!r}",
                                     "u_kind")
        if self.u_kind == "quadratic":
            Q = np.eye(self.d) if self.Q is None \
                else np.asarray(self.Q, dtype=float)
            if Q.shape != (self.d, self.d) or not np.allclose(Q, Q.T):
                raise ConfigurationError("Q must be symmetric d x d", "Q")
            if np.min(np.linalg.eigvalsh(Q)) < -1e-12:
                raise ConfigurationError("quadratic potential must be convex",
                                         "Q")
            object.__setattr__(self, "Q", Q)
        else:
            c = tuple(float(x) for x in self.u_coeffs)
            if len(c) < 1:
                raise ConfigurationError("component_poly needs coefficients",
                                         "u_coeffs")
            object.__setattr__(self, "u_coeffs", c)
            object.__setattr__(self, "_u_der", polyders(c))
            s = np.linspace(-20, 20, 257)
            if len(c) > 2 and np.min(polyval(s, self._u_der[1])) < -1e-12:
                raise ConfigurationError("potential is not convex on samples",
                                         "u_coeffs")
        for name in ("initial", "velocity"):
            v = np.asarray(getattr(self, name), dtype=float).ravel()
            if v.size != self.d or not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be a finite d-vector",
                                         name)
            object.__setattr__(self, name, v)

    @property
    def n_dof(self) -> int:
        return self.d

    def pot_value(self, u: np.ndarray) -> float:
        if self.u_kind == "quadratic":
            return 0.5 * _rowdot(u, self.pot_grad(u))
        return np.sum(polyval(u, self.u_coeffs), axis=-1)

    def pot_grad(self, u: np.ndarray) -> np.ndarray:
        if self.u_kind == "quadratic":
            return np.matmul(self.Q, u[..., None])[..., 0]
        return polyval(u, self._u_der[0])


WideProblem = Union[WideWaveProblem, LagrangianProblem]


# ---------------------------------------------------------------------------
# Uniform view of the two problem families
# ---------------------------------------------------------------------------

class _Parts:
    """Mass/damping/stiffness matrices and the nonlinear term, reduced to
    one interface so the functional and solver are written once. g_val,
    g_grad and g_hess act on a stack of states, one per row; g_hess is
    the block diagonal of the row Hessians."""

    def __init__(self, problem: WideProblem):
        self.problem = problem
        if isinstance(problem, WideWaveProblem):
            n = problem.n_dof
            hd = problem.grid.cell_measure
            self.M = sp.identity(n, format="csr") * (problem.rho * hd)
            self.D = sp.identity(n, format="csr") * (problem.nu * hd)
            L = graph_laplacian(problem.grid, 1.0)
            self.S = L if L is not None \
                else sp.csr_matrix((n, n))
            self.g_val = problem.force_value
            self.g_grad = problem.force_grad
            self.g_hess = lambda U: sp.diags(
                problem.force_hess_diag(U).ravel())
            self.lam = problem.lam
            self.ncomp = 1
        else:
            d = problem.d
            self.M = sp.csr_matrix(problem.M)
            self.D = sp.identity(d, format="csr") * problem.nu
            self.S = sp.csr_matrix((d, d))
            self.g_val = problem.pot_value
            self.g_grad = problem.pot_grad
            if problem.u_kind == "quadratic":
                self.g_hess = lambda U: sp.kron(
                    sp.identity(U.shape[0]), sp.csr_matrix(problem.Q))
            else:
                self.g_hess = lambda U: sp.diags(
                    polyval(U, problem._u_der[1]).ravel())
            self.lam = 0.0
            self.ncomp = d
        self.grid = _state_grid(problem)


# the grid of every Lagrangian state: the components take the nodes' place
_POINT_GRID = build_grid(dim=1, shape=(1,), spacing=(1.0,),
                         boundary="neumann", domain_kind="point")


def _state_grid(problem: WideProblem) -> Grid:
    return problem.grid if isinstance(problem, WideWaveProblem) \
        else _POINT_GRID


def _pinned_rows(problem: WideProblem, dt: float) -> np.ndarray:
    return np.stack([problem.initial, problem.initial + dt * problem.velocity])


def _knot_weights(problem: WideProblem, N: int) -> tuple:
    """(beta at every knot, acceleration, velocity and potential weights)."""
    dt = problem.T / N
    eps = problem.epsilon
    beta = np.exp(-np.linspace(0.0, problem.T, N + 1) / eps)
    return (beta, beta[1:N] * dt * 0.5 * eps ** 2, beta[1:] * dt * 0.5 * eps,
            beta[1:] * dt)


def _unknown_band(*diagonals) -> sp.spmatrix:
    """Symmetric band over all knots 0..N, from its main and upper
    diagonals, cut to the unknown knots 2..N."""
    offsets = range(len(diagonals))
    return sp.diags([*diagonals, *diagonals[1:]],
                    [*offsets, *(-o for o in offsets[1:])],
                    format="csr")[2:, 2:]


def _wide_kernel(parts: _Parts, U: np.ndarray,
                 value: bool = True) -> tuple[float, np.ndarray]:
    """Value and gradient (zero in both pinned slots) of the functional on
    the whole knot array U, or one value and gradient per knot array of a
    (k, N+1, n_dof) stack, row for row the bits of the single call. The
    value adds every acceleration term, then the velocity and potential
    terms knot by knot, as a running sum would.

    The value is read by wide_value_grad and by the report of
    minimize_wide; the Newton gradient of minimize_wide, the
    extended-precision polish's included, passes value=False, which
    leaves the value out (None, and parts.g_val uncalled) and computes the
    gradient with the same operations, so with the same bits."""
    problem = parts.problem
    N = U.shape[-2] - 1
    dt = problem.T / N
    _, w_acc, w_vel, w_pot = _knot_weights(problem, N)
    # knot n = 1..N-1
    acc = (U[..., 2:, :] - 2.0 * U[..., 1:-1, :] + U[..., :-2, :]) / dt ** 2
    vel = np.diff(U, axis=-2) / dt                      # knot n = 1..N
    V = U[..., 1:, :]
    Ma = _rowmul(parts.M, acc)
    Dv = _rowmul(parts.D, vel)
    Su = _rowmul(parts.S, V)
    val = None
    if value:
        vel_pot = np.stack([
            w_vel * _rowdot(vel, Dv),
            w_pot * (0.5 * _rowdot(V, Su) + parts.g_val(V))], axis=-1)
        val = _sequential_sum(np.zeros(U.shape[:-2]), np.concatenate(
            [w_acc * _rowdot(acc, Ma), vel_pot.reshape(*U.shape[:-2], -1)],
            axis=-1))
    ga = (2.0 * w_acc / dt ** 2)[:, None] * Ma
    gv = (2.0 * w_vel / dt)[:, None] * Dv
    # each knot's row collects its terms in the order of the knot-by-knot
    # accumulation this replaces
    grad = np.zeros_like(U)
    grad[..., 2:, :] += ga
    grad[..., 1:-1, :] -= 2.0 * ga
    grad[..., :-2, :] += ga
    grad[..., 1:, :] += gv
    grad[..., 1:, :] += w_pot[:, None] * (Su + parts.g_grad(V))
    grad[..., :-1, :] -= gv
    grad[..., :2, :] = 0.0
    return val, grad


def wide_trajectory(problem: WideProblem, values: np.ndarray) -> Trajectory:
    grid = _state_grid(problem)
    u0, u1 = _pinned_rows(problem, problem.T / (values.shape[0] - 1))
    if not (np.array_equal(values[0], u0) and np.array_equal(values[1], u1)):
        raise ConfigurationError(
            "rows 0 and 1 must pin the state and velocity")
    return Trajectory(grid, problem.T, values, pinned_initial=u0,
                      pinned_velocity=problem.velocity.copy(),
                      ncomp=problem.n_dof // grid.n_nodes)


def wide_value_grad(problem: WideProblem,
                    traj: Trajectory) -> tuple[float, np.ndarray]:
    """Weighted inertia + damping + potential along the trajectory, and
    the euclidean gradient (zero in both pinned slots)."""
    if traj.steps < 2:
        raise ConfigurationError("need at least 3 time knots")
    wide_trajectory(problem, traj.values)  # checks the pinned rows
    return _wide_kernel(_Parts(problem), traj.values)


def minimize_wide(problem: WideProblem, steps: int,
                  init: Optional[Trajectory] = None
                  ) -> tuple[Trajectory, MinimizeReport]:
    """Newton solve over the unpinned knots u_2..u_N, to a scaled residual
    of 1e-10 in at most 120 iterations. The engine's
    curvature fallback covers nonconvex (lambda < 0) nonlinearities; the
    declared curvature bound is recorded in the report notes."""
    N = steps
    if N < 2:
        raise ConfigurationError("need at least 3 time knots")
    dt = problem.T / N
    parts = _Parts(problem)
    nd = problem.n_dof
    eps = problem.epsilon
    beta, w_acc, w_vel, w_pot = _knot_weights(problem, N)

    # Knot n's acceleration and velocity weights c_n, v_n (zero outside
    # 1..N-1 and 1..N) couple knots through the stencils (1, -2, 1) and
    # (-1, 1). Each entry adds its terms in the order of the knot-by-knot
    # assembly this replaces: wave Hessians are ill-conditioned enough for
    # the solution to show any other rounding.
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

    def hess(V: np.ndarray) -> SparseHessian:
        pot = pot_rows @ (stiffness + parts.g_hess(V))
        return SparseHessian((linear + pot).tocsc())

    # row scale tracks the dominant stiffness of each knot's gradient row
    # (inertia grows like eps^2/dt^3), so the scaled residual is relative
    minf, dinf, sinf = (float(abs(A).max()) if A.nnz else 0.0
                        for A in (parts.M, parts.D, parts.S))
    hd = parts.grid.cell_measure
    knot_mag = (dt * (sinf + hd) + 8.0 * eps ** 2 * minf / dt ** 3
                + 4.0 * eps * dinf / dt)
    notes = [f"curvature_bound={repr(parts.lam)}"]
    pinned = _pinned_rows(problem, dt)
    U, res, iters, conv = pinned_solve(
        newton_solve, pinned, N, None if init is None else init.values,
        lambda V: _wide_kernel(parts, with_pins(pinned, V),
                               value=False)[1][..., 2:, :],
        hess,
        np.maximum(beta[2:] * knot_mag, 1e-300), tol=1e-10, max_iter=120,
        notes=notes)
    traj = wide_trajectory(problem, U)
    value, _ = _wide_kernel(parts, U)
    rep = MinimizeReport(iterations=iters, value=value, gradient_norm=res,
                         converged=conv, notes=tuple(notes))
    return traj, rep


def wide_continuation(problem: WideProblem, schedule: Sequence[float],
                      steps: int) -> list:
    """Warm-started solves along a decreasing eps schedule; returns
    [(eps, trajectory, report)], ending at the first level that did not
    converge."""
    return continuation(
        lambda eps, warm: minimize_wide(replace(problem, epsilon=eps), steps,
                                        init=warm),
        schedule, problem.T)


# ---------------------------------------------------------------------------
# Symmetry maps and invariance
# ---------------------------------------------------------------------------

# bound again so that perfbench's tracer times inertial residuals apart
wide_invariance_residual = invariance_residual


def require_invariant_data(problem: WideProblem, R: RMap) -> None:
    """Raise ConfigurationError unless R fits the problem's state and
    leaves its initial state and velocity exactly invariant; averaging
    additionally requires a convex nonlinearity."""
    grid = _state_grid(problem)
    require_invariant(R, grid, problem.initial)
    require_invariant(R, grid, problem.velocity, "initial velocity", True)
    if R.kind == "averaging" and isinstance(problem, WideWaveProblem) \
            and problem.lam < 0:
        raise ConfigurationError("averaging requires a convex nonlinearity")


def wide_invariant_solve(problem: WideProblem, R: RMap, steps: int,
                         schedule: Optional[Sequence[float]] = None
                         ) -> tuple[Trajectory, float]:
    """Solve and report sup_t |Ru(t) - u(t)|, for data that passes
    require_invariant_data."""
    require_invariant_data(problem, R)
    if schedule is None:
        schedule = (problem.epsilon,)
    fam = wide_continuation(problem, schedule, steps)
    traj = fam[-1][1]
    return traj, wide_invariance_residual(R, traj)


def equivariance_residual(problem: WideProblem, R: RMap,
                          steps: int) -> float:
    """max over knots of |R(solve(u0, v0)) - solve(Ru0, Rv0)|; zero when
    the map commutes with the discrete system."""
    t1, _ = minimize_wide(problem, steps)
    mapped = replace(
        problem, initial=R.apply(problem.initial[None], t1.grid)[0],
        velocity=R.apply(problem.velocity[None], t1.grid, velocity=True)[0])
    t2, _ = minimize_wide(mapped, steps)
    return float(np.max(np.abs(R.apply(t1.values, t1.grid) - t2.values)))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def hamiltonian(problem: WideProblem, traj: Trajectory) -> np.ndarray:
    """0.5 u' M u' + potential per interior knot (centered velocity).
    A diagnostic for the conservative small-eps limit, not a guarantee."""
    parts = _Parts(problem)
    dt = problem.T / traj.steps
    U = traj.values
    v = (U[2:] - U[:-2]) / (2.0 * dt)
    Ui = U[1:-1]
    pot = 0.5 * _rowdot(Ui, (parts.S @ Ui.T).T) + parts.g_val(Ui)
    return 0.5 * _rowdot(v, (parts.M @ v.T).T) + pot


def hamiltonian_drift(problem: WideProblem, traj: Trajectory) -> float:
    H = hamiltonian(problem, traj)
    base = abs(H[0])
    if base == 0.0:
        return float(np.max(H) - np.min(H))
    return float((np.max(H) - np.min(H)) / base)
