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
smooth for nonsmooth reordering anyway. The symmetry maps are node
permutations, directional averaging (convex nonlinearity only), and
affine state maps r u + v with orthogonal r.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .grids import ConfigurationError, Grid, Trajectory, build_grid
from .energies import graph_laplacian
from ._newton import newton_solve
from .wed import MinimizeReport, continuation


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

def _poly_val(coeffs, s):
    return np.polynomial.polynomial.polyval(s, coeffs)


def _poly_der(coeffs, order):
    c = np.polynomial.polynomial.polyder(coeffs, order)
    return c if np.ndim(c) else np.array([float(c)])


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

    def __post_init__(self):
        if self.grid.dim != 1:
            raise ConfigurationError("wave problems are 1D here")
        if not self.rho > 0:
            raise ConfigurationError("density rho must be positive")
        if self.nu < 0:
            raise ConfigurationError("damping nu must be nonnegative")
        if self.p_growth < 2:
            raise ConfigurationError("growth exponent must be >= 2")
        if not (0 < self.epsilon < self.T):
            raise ConfigurationError("eps must lie in (0, T)")
        object.__setattr__(self, "f_coeffs",
                           tuple(float(c) for c in self.f_coeffs))
        for name in ("initial", "velocity"):
            v = np.asarray(getattr(self, name), dtype=float).ravel()
            if v.size != self.grid.n_nodes or not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite, one per node")
            object.__setattr__(self, name, v)
        # curvature and growth declarations, probed on a wide sample
        r = 10.0 * (1.0 + float(np.max(np.abs(self.initial))))
        s = np.linspace(-r, r, 257)
        if len(self.f_coeffs) > 2:
            d2 = _poly_val(_poly_der(self.f_coeffs, 2), s)
            if np.min(d2) < self.lam - 1e-9:
                raise ConfigurationError(
                    "declared curvature bound fails on samples")
        elif self.lam > 1e-12:
            raise ConfigurationError("affine F cannot have positive curvature")
        fs = _poly_val(self.f_coeffs, s)
        dfs = _poly_val(_poly_der(self.f_coeffs, 1), s)
        pc = self.p_growth / (self.p_growth - 1.0)
        big = np.abs(s) ** self.p_growth
        c1 = np.max((big - fs) / (1.0 + big))
        c2 = np.max(np.abs(dfs) ** pc / (1.0 + big))
        if not (np.isfinite(c1) and np.isfinite(c2)):
            raise ConfigurationError("growth constants are not finite")

    @property
    def n_dof(self) -> int:
        return self.grid.n_nodes

    def force_value(self, u: np.ndarray) -> float:
        return float(np.sum(_poly_val(self.f_coeffs, u))) \
            * self.grid.cell_measure

    def force_grad(self, u: np.ndarray) -> np.ndarray:
        return _poly_val(_poly_der(self.f_coeffs, 1), u) \
            * self.grid.cell_measure

    def force_hess_diag(self, u: np.ndarray) -> np.ndarray:
        if len(self.f_coeffs) <= 2:
            return np.zeros_like(u)
        return _poly_val(_poly_der(self.f_coeffs, 2), u) \
            * self.grid.cell_measure


@dataclass(frozen=True, eq=False)
class LagrangianProblem:
    """M u_tt + nu u_t + grad U(u) = 0 in R^d.

    U is either "quadratic" (0.5 u^T Q u, Q symmetric positive
    semidefinite) or "component_poly" (a convex polynomial summed over
    components). Convexity is probed on random segments.
    """

    d: int
    M: np.ndarray
    nu: float
    u_kind: str
    T: float
    epsilon: float
    initial: np.ndarray
    velocity: np.ndarray
    Q: Optional[np.ndarray] = None
    u_coeffs: tuple = ()

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension must be positive")
        M = np.asarray(self.M, dtype=float)
        if M.shape != (self.d, self.d) or not np.allclose(M, M.T):
            raise ConfigurationError("mass matrix must be symmetric d x d")
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ConfigurationError("mass matrix must be positive definite")
        object.__setattr__(self, "M", M)
        if self.nu < 0:
            raise ConfigurationError("damping nu must be nonnegative")
        if not (0 < self.epsilon < self.T):
            raise ConfigurationError("eps must lie in (0, T)")
        if self.u_kind not in ("quadratic", "component_poly"):
            raise ConfigurationError(f"unknown potential kind {self.u_kind!r}")
        if self.u_kind == "quadratic":
            Q = np.eye(self.d) if self.Q is None \
                else np.asarray(self.Q, dtype=float)
            if Q.shape != (self.d, self.d) or not np.allclose(Q, Q.T):
                raise ConfigurationError("Q must be symmetric d x d")
            if np.min(np.linalg.eigvalsh(Q)) < -1e-12:
                raise ConfigurationError("quadratic potential must be convex")
            object.__setattr__(self, "Q", Q)
        else:
            c = tuple(float(x) for x in self.u_coeffs)
            if len(c) < 1:
                raise ConfigurationError("component_poly needs coefficients")
            object.__setattr__(self, "u_coeffs", c)
            s = np.linspace(-20, 20, 257)
            if len(c) > 2 and np.min(_poly_val(_poly_der(c, 2), s)) < -1e-12:
                raise ConfigurationError("potential is not convex on samples")
        for name in ("initial", "velocity"):
            v = np.asarray(getattr(self, name), dtype=float).ravel()
            if v.size != self.d or not np.all(np.isfinite(v)):
                raise ConfigurationError(f"{name} must be a finite d-vector")
            object.__setattr__(self, name, v)

    @property
    def n_dof(self) -> int:
        return self.d

    def pot_value(self, u: np.ndarray) -> float:
        if self.u_kind == "quadratic":
            return 0.5 * float(u @ (self.Q @ u))
        return float(np.sum(_poly_val(self.u_coeffs, u)))

    def pot_grad(self, u: np.ndarray) -> np.ndarray:
        if self.u_kind == "quadratic":
            return self.Q @ u
        return _poly_val(_poly_der(self.u_coeffs, 1), u)

    def pot_hess(self, u: np.ndarray) -> np.ndarray:
        if self.u_kind == "quadratic":
            return self.Q
        if len(self.u_coeffs) <= 2:
            return np.zeros((self.d, self.d))
        return np.diag(_poly_val(_poly_der(self.u_coeffs, 2), u))


WideProblem = Union[WideWaveProblem, LagrangianProblem]


# ---------------------------------------------------------------------------
# Uniform view of the two problem families
# ---------------------------------------------------------------------------

class _Parts:
    """Mass/damping/stiffness matrices and the nonlinear term, reduced to
    one interface so the functional and solver are written once."""

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
            self.g_hess = lambda u: sp.diags(problem.force_hess_diag(u))
            self.lam = problem.lam
            self.grid = problem.grid
            self.ncomp = 1
        else:
            d = problem.d
            self.M = sp.csr_matrix(problem.M)
            self.D = sp.identity(d, format="csr") * problem.nu
            self.S = sp.csr_matrix((d, d))
            self.g_val = problem.pot_value
            self.g_grad = problem.pot_grad
            self.g_hess = lambda u: sp.csr_matrix(problem.pot_hess(u))
            self.lam = 0.0
            self.grid = build_grid(dim=1, shape=(1,), spacing=(1.0,),
                                   boundary="neumann", domain_kind="point")
            self.ncomp = d


def _pinned_rows(problem: WideProblem, dt: float) -> tuple:
    u0 = problem.initial
    u1 = u0 + dt * problem.velocity
    return u0, u1


def wide_trajectory(problem: WideProblem, values: np.ndarray) -> Trajectory:
    parts = _Parts(problem)
    N = values.shape[0] - 1
    dt = problem.T / N
    u0, u1 = _pinned_rows(problem, dt)
    if not (np.array_equal(values[0], u0) and np.array_equal(values[1], u1)):
        raise ConfigurationError(
            "rows 0 and 1 must pin the state and velocity")
    return Trajectory(parts.grid, problem.T, values, pinned_initial=u0,
                      pinned_velocity=problem.velocity.copy(),
                      ncomp=parts.ncomp)


def wide_value_grad(problem: WideProblem,
                    traj: Trajectory) -> tuple[float, np.ndarray]:
    """Weighted inertia + damping + potential along the trajectory, and
    the euclidean gradient (zero in both pinned slots)."""
    N = traj.steps
    if N < 2:
        raise ConfigurationError("need at least 3 time knots")
    dt = problem.T / N
    parts = _Parts(problem)
    u0, u1 = _pinned_rows(problem, dt)
    U = traj.values
    if not (np.array_equal(U[0], u0) and np.array_equal(U[1], u1)):
        raise ConfigurationError("trajectory does not pin u0, v0")
    eps = problem.epsilon
    beta = np.exp(-np.linspace(0.0, problem.T, N + 1) / eps)
    acc = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / dt ** 2   # knot n = 1..N-1
    vel = np.diff(U, axis=0) / dt                      # knot n = 1..N
    w_acc = beta[1:N] * dt * 0.5 * eps ** 2
    w_vel = beta[1:] * dt * 0.5 * eps
    w_pot = beta[1:] * dt

    value = 0.0
    grad = np.zeros_like(U)
    for k in range(N - 1):                             # knot k+1
        Ma = parts.M @ acc[k]
        value += w_acc[k] * float(acc[k] @ Ma)
        c = 2.0 * w_acc[k] / dt ** 2
        grad[k] += c * Ma
        grad[k + 1] -= 2.0 * c * Ma
        grad[k + 2] += c * Ma
    for k in range(N):                                 # knot k+1
        Dv = parts.D @ vel[k]
        value += w_vel[k] * float(vel[k] @ Dv)
        c = 2.0 * w_vel[k] / dt
        grad[k + 1] += c * Dv
        grad[k] -= c * Dv
        un = U[k + 1]
        Su = parts.S @ un
        value += w_pot[k] * (0.5 * float(un @ Su) + parts.g_val(un))
        grad[k + 1] += w_pot[k] * (Su + parts.g_grad(un))
    grad[0] = 0.0
    grad[1] = 0.0
    return value, grad


def minimize_wide(problem: WideProblem, steps: int,
                  init: Optional[Trajectory] = None,
                  gtol: float = 1e-10,
                  max_iter: int = 120) -> tuple[Trajectory, MinimizeReport]:
    """Newton solve over the unpinned knots u_2..u_N. The engine's
    curvature fallback covers nonconvex (lambda < 0) nonlinearities; the
    declared curvature bound is recorded in the report notes."""
    N = steps
    if N < 2:
        raise ConfigurationError("need at least 3 time knots")
    dt = problem.T / N
    parts = _Parts(problem)
    nd = problem.n_dof
    u0, u1 = _pinned_rows(problem, dt)
    eps = problem.epsilon
    beta = np.exp(-np.linspace(0.0, problem.T, N + 1) / eps)
    w_acc = beta[1:N] * dt * 0.5 * eps ** 2
    w_vel = beta[1:] * dt * 0.5 * eps
    w_pot = beta[1:] * dt

    def full(x: np.ndarray) -> np.ndarray:
        return np.vstack([u0[None, :], u1[None, :], x.reshape(N - 1, nd)])

    def grad_fn(x: np.ndarray) -> np.ndarray:
        _, g = wide_value_grad(problem, _traj_nocheck(parts, problem,
                                                      full(x)))
        return g[2:].ravel()

    def hess_fn(x: np.ndarray) -> sp.spmatrix:
        U = full(x)
        blocks = [[None] * (N - 1) for _ in range(N - 1)]
        # acceleration stencils couple knots (n-1, n, n+1), n = 1..N-1
        stencil = {}
        for n in range(1, N):
            c = 2.0 * w_acc[n - 1] / dt ** 4
            for (i, si) in ((n - 1, 1.0), (n, -2.0), (n + 1, 1.0)):
                for (j, sj) in ((n - 1, 1.0), (n, -2.0), (n + 1, 1.0)):
                    if i >= 2 and j >= 2:
                        key = (i - 2, j - 2)
                        stencil[key] = stencil.get(key, 0.0) + c * si * sj
        for (i, j), c in stencil.items():
            blk = c * parts.M
            blocks[i][j] = blk if blocks[i][j] is None else blocks[i][j] + blk
        # velocity differences couple (n-1, n), n = 1..N
        for n in range(1, N + 1):
            c = 2.0 * w_vel[n - 1] / dt ** 2
            for i, si in ((n - 1, -1.0), (n, 1.0)):
                for j, sj in ((n - 1, -1.0), (n, 1.0)):
                    if i >= 2 and j >= 2:
                        blk = c * si * sj * parts.D
                        blocks[i - 2][j - 2] = blk \
                            if blocks[i - 2][j - 2] is None \
                            else blocks[i - 2][j - 2] + blk
        # potential terms are knot-local
        for n in range(2, N + 1):
            blk = w_pot[n - 1] * (parts.S + parts.g_hess(U[n]))
            k = n - 2
            blocks[k][k] = blk if blocks[k][k] is None \
                else blocks[k][k] + blk
        return sp.bmat(blocks, format="csc")

    if init is None:
        X = np.tile(u1, (N - 1, 1)).ravel()
    else:
        if init.steps != N:
            raise ConfigurationError("init has the wrong number of knots")
        X = init.values[2:].ravel()
    # row scale tracks the dominant stiffness of each knot's gradient row
    # (inertia grows like eps^2/dt^3), so the scaled residual is relative
    minf = float(np.max(np.abs(parts.M.toarray())))
    dinf = float(np.max(np.abs(parts.D.toarray()))) if parts.D.nnz else 0.0
    sinf = float(np.max(np.abs(parts.S.toarray()))) if parts.S.nnz else 0.0
    hd = parts.grid.cell_measure
    knot_mag = (dt * (sinf + hd) + 8.0 * eps ** 2 * minf / dt ** 3
                + 4.0 * eps * dinf / dt)
    scale = np.repeat(np.maximum(beta[2:] * knot_mag, 1e-300), nd)
    X, res, iters, conv = newton_solve(X, grad_fn, hess_fn, scale,
                                       tol=gtol, max_iter=max_iter)
    traj = wide_trajectory(problem, full(X))
    value, _ = wide_value_grad(problem, traj)
    rep = MinimizeReport(iterations=iters, value=value, gradient_norm=res,
                         converged=conv,
                         notes=(f"curvature_bound={repr(parts.lam)}",))
    return traj, rep


def _traj_nocheck(parts: _Parts, problem: WideProblem,
                  values: np.ndarray) -> Trajectory:
    return Trajectory(parts.grid, problem.T, values,
                      pinned_initial=values[0], ncomp=parts.ncomp)


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

@dataclass(frozen=True)
class WideMap:
    """kind "rigid" or "translation" (node permutations of the wave grid),
    "averaging" (spatial mean; convex nonlinearity required), or
    "lagrangian_affine" (u -> r u + shift, r orthogonal)."""

    kind: str
    permutation: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    shift: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("rigid", "translation", "averaging",
                             "lagrangian_affine"):
            raise ConfigurationError(f"unknown wide map kind {self.kind!r}")
        if self.kind in ("rigid", "translation") and self.permutation is None:
            raise ConfigurationError("permutation map needs a permutation")
        if self.kind == "lagrangian_affine":
            r = np.asarray(self.r, dtype=float)
            if not np.allclose(r.T @ r, np.eye(r.shape[0]), atol=1e-12):
                raise ConfigurationError("affine map needs orthogonal r")
            object.__setattr__(self, "r", r)

    def apply_state(self, vec: np.ndarray) -> np.ndarray:
        if self.kind in ("rigid", "translation"):
            return vec[np.asarray(self.permutation, dtype=int)]
        if self.kind == "averaging":
            return np.full_like(vec, vec.mean())
        out = self.r @ vec
        if self.shift is not None:
            out = out + np.asarray(self.shift, dtype=float)
        return out

    def apply_velocity(self, vec: np.ndarray) -> np.ndarray:
        # shifts act on positions only; velocities see the linear part
        if self.kind == "lagrangian_affine":
            return self.r @ vec
        return self.apply_state(vec)


def wide_invariance_residual(R: WideMap, traj: Trajectory) -> float:
    worst = 0.0
    for row in traj.values:
        worst = max(worst, float(np.max(np.abs(R.apply_state(row) - row))))
    return worst


def wide_invariant_solve(problem: WideProblem, R: WideMap, steps: int,
                         schedule: Optional[Sequence[float]] = None
                         ) -> tuple[Trajectory, float]:
    """Solve and report sup_t |Ru(t) - u(t)|. Requires exactly invariant
    initial state and velocity; averaging additionally requires a convex
    nonlinearity."""
    u0, v0 = problem.initial, problem.velocity
    if not np.array_equal(R.apply_state(u0), u0):
        raise ConfigurationError("initial state is not invariant under R")
    if not np.array_equal(R.apply_velocity(v0), v0):
        raise ConfigurationError("initial velocity is not invariant under R")
    if R.kind == "averaging" and isinstance(problem, WideWaveProblem) \
            and problem.lam < 0:
        raise ConfigurationError("averaging requires a convex nonlinearity")
    if schedule is None:
        schedule = (problem.epsilon,)
    fam = wide_continuation(problem, schedule, steps)
    traj = fam[-1][1]
    return traj, wide_invariance_residual(R, traj)


def equivariance_residual(problem: WideProblem, R: WideMap,
                          steps: int) -> float:
    """max over knots of |R(solve(u0, v0)) - solve(Ru0, Rv0)|; zero when
    the map commutes with the discrete system."""
    t1, _ = minimize_wide(problem, steps)
    mapped = replace(problem,
                     initial=R.apply_state(problem.initial),
                     velocity=R.apply_velocity(problem.velocity))
    t2, _ = minimize_wide(mapped, steps)
    moved = np.stack([R.apply_state(row) for row in t1.values])
    return float(np.max(np.abs(moved - t2.values)))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def hamiltonian(problem: WideProblem, traj: Trajectory) -> np.ndarray:
    """0.5 u' M u' + potential per interior knot (centered velocity).
    A diagnostic for the conservative small-eps limit, not a guarantee."""
    parts = _Parts(problem)
    N = traj.steps
    dt = problem.T / N
    U = traj.values
    H = np.empty(N - 1)
    for n in range(1, N):
        v = (U[n + 1] - U[n - 1]) / (2.0 * dt)
        pot = 0.5 * float(U[n] @ (parts.S @ U[n])) + parts.g_val(U[n])
        H[n - 1] = 0.5 * float(v @ (parts.M @ v)) + pot
    return H


def hamiltonian_drift(problem: WideProblem, traj: Trajectory) -> float:
    H = hamiltonian(problem, traj)
    base = abs(H[0])
    if base == 0.0:
        return float(np.max(H) - np.min(H))
    return float((np.max(H) - np.min(H)) / base)
