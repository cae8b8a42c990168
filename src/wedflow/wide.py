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
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .grids import (ConfigurationError, Grid, Trajectory, build_grid,
                    count, float_array, horizon, number)
from .energies import (_rowdot, _rowmul, _sequential_sum, graph_laplacian,
                       polynomial, polyval, probe_polyvals)
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
    _f_der: tuple = field(init=False, repr=False)  # polynomial(f_coeffs)[1]

    def __post_init__(self):
        horizon(self.T, self.epsilon)
        if self.grid.dim != 1:
            raise ConfigurationError("wave problems are 1D here", "grid")
        number(self.rho, "rho", above=0.0)
        number(self.nu, "nu", at_least=0.0)
        number(self.p_growth, "p_growth", at_least=2.0)
        number(self.lam, "lam")
        c, der = polynomial(self.f_coeffs, "f_coeffs")
        object.__setattr__(self, "f_coeffs", c)
        object.__setattr__(self, "_f_der", der)
        for name in ("initial", "velocity"):
            object.__setattr__(self, name, float_array(
                getattr(self, name), name, self.grid.n_nodes))
        # curvature and growth declarations, probed on a wide sample, which
        # the initial state widens
        r = 10.0 * (1.0 + float(np.max(np.abs(self.initial))))
        s, (fs, dfs, d2) = probe_polyvals((self.f_coeffs, *self._f_der), r,
                                          ("f_coeffs", "initial"))
        if len(self.f_coeffs) > 2:
            if np.min(d2) < self.lam - 1e-9:
                raise ConfigurationError(
                    "F'' falls below the declared bound lam on samples",
                    "f_coeffs")
        elif self.lam > 1e-12:
            raise ConfigurationError("an affine F has no curvature lam > 0",
                                     "f_coeffs")
        # the growth constants max (|s|^p - F) / (1 + |s|^p) and
        # max |F'|^p' / (1 + |s|^p), from logs: |s|^p overflows at a
        # large p where both constants are finite
        pc = self.p_growth / (self.p_growth - 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            log_w = -np.logaddexp(0.0, self.p_growth * np.log(np.abs(s)))
            w = np.exp(log_w)  # 1 / (1 + |s|^p)
            c1 = np.max((1.0 - w) - fs * w)
            c2 = np.max(np.exp(pc * np.log(np.abs(dfs)) + log_w))
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
    components).
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
                          default=None)  # polynomial(u_coeffs)[1]

    def __post_init__(self):
        horizon(self.T, self.epsilon)
        d = count(self.d, "d")
        object.__setattr__(self, "d", d)
        # the states first: a d they do not have builds no d x d matrix
        for name in ("initial", "velocity"):
            object.__setattr__(self, name,
                               float_array(getattr(self, name), name, d))
        M = _symmetric(self.M, d, "M")
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ConfigurationError("mass matrix must be positive definite",
                                     "M")
        object.__setattr__(self, "M", M)
        number(self.nu, "nu", at_least=0.0)
        if self.u_kind not in ("quadratic", "component_poly"):
            raise ConfigurationError(f"unknown potential kind {self.u_kind!r}",
                                     "u_kind")
        # the argument the kind does not read is checked all the same
        Q = _symmetric(self.Q, d, "Q")
        if self.u_kind == "quadratic":
            float_array(self.u_coeffs, "u_coeffs", (None,))
            if np.min(np.linalg.eigvalsh(Q)) < -1e-12:
                raise ConfigurationError("quadratic potential must be convex",
                                         "Q")
            object.__setattr__(self, "Q", Q)
        else:
            c, der = polynomial(self.u_coeffs, "u_coeffs")
            object.__setattr__(self, "u_coeffs", c)
            object.__setattr__(self, "_u_der", der)
            _, (d2,) = probe_polyvals(der[1:], 20.0, ("u_coeffs", "u_coeffs"))
            if len(c) > 2 and np.min(d2) < -1e-12:
                raise ConfigurationError("potential is not convex on samples",
                                         "u_coeffs")

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


def _symmetric(A, d: int, field: str) -> np.ndarray:
    """A as a finite symmetric d x d array, the identity for None."""
    A = np.eye(d) if A is None else float_array(A, field, (d, d))
    # np.allclose(A, A.T)'s test, without its overhead: A is finite
    if not np.all(np.abs(A - A.T) <= 1e-8 + 1e-5 * np.abs(A.T)):
        raise ConfigurationError(f"{field} must be symmetric", field)
    return A


# ---------------------------------------------------------------------------
# Uniform view of the two problem families
# ---------------------------------------------------------------------------

class _Parts:
    """Mass/damping/stiffness matrices and the nonlinear term, reduced to
    one interface so the functional and solver are written once. g_val
    and g_grad act on a stack of states, one per row. The potential's
    Hessian at a state is the block G: its pattern is G's, and its values
    are G's own where g_curv is None (the constant Q of `quadratic`), else
    the diagonal g_curv gives per state (F'' h^d of waves, U'' of
    `component_poly`)."""

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
            self.G = sp.identity(n, format="csr")
            self.g_curv = problem.force_hess_diag
            self.lam = problem.lam
        else:
            d = problem.d
            self.M = sp.csr_matrix(problem.M)
            self.D = sp.identity(d, format="csr") * problem.nu
            self.S = sp.csr_matrix((d, d))
            self.g_val = problem.pot_value
            self.g_grad = problem.pot_grad
            if problem.u_kind == "quadratic":
                self.G, self.g_curv = sp.csr_matrix(problem.Q), None
            else:
                self.G = sp.identity(d, format="csr")
                self.g_curv = partial(polyval, c=problem._u_der[1])
            self.lam = 0.0
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


def _block_entries(A, nd: int) -> tuple:
    """The stored entries of the nd x nd CSR block A: their column-major
    keys l nd + k (row k, column l) in ascending order, and their values,
    each closed by a sentinel (key nd^2, value 0.0)."""
    keys = A.indices * np.int64(nd) + np.repeat(np.arange(nd),
                                                np.diff(A.indptr))
    order = np.argsort(keys)
    return np.append(keys[order], nd * nd), np.append(A.data[order], 0.0)


def _band_columns(N: int, *diagonals) -> np.ndarray:
    """The symmetric band over knots 0..N with the given main and upper
    diagonals, seen from the unknown knots 2..N: row o + 2 holds, for
    each column knot, the band entry of the row knot o = -2..2 away
    (zero beyond the band; entries off the unknowns are never read)."""
    out = np.zeros((5, N - 1))
    for o, diag in enumerate(diagonals):
        diag = np.append(diag, np.zeros(o))
        out[2 + o] = diag[2:]
        out[2 - o] = diag[2 - o:N + 1 - o]
    return out


def _hessian_fill(parts: _Parts, N: int, w_acc: np.ndarray,
                  w_vel: np.ndarray, w_pot: np.ndarray):
    """The Newton Hessian of the functional over the unknown knots 2..N,
    as a callback of those knots V ((N-1, n_dof)) that fills its CSC
    arrays directly.

    Knot n's acceleration and velocity weights c_n, v_n couple knots
    through the stencils (1, -2, 1) and (-1, 1), so the block of row
    knot r and column knot c is, with o = r - c, acc_o M + vel_o D +
    vel'_o D + [o = 0] w_pot (S + G(V_c)): M reaches |o| <= 2, D |o| <= 1,
    S and G only the diagonal blocks. One template lists a column
    block's entries in CSC order (for each column l, the offsets o =
    -2..2 and each offset's union pattern of rows), and the column
    blocks tile it. Each entry adds its terms in the order of the scipy
    chain this replaces, ((acc M + vel D) + vel' D) + w_pot (S + G), and
    the exact zeros are dropped, as that chain's conversions and sums
    dropped them: wave Hessians are ill-conditioned enough for the
    solution to show any other rounding, so every matrix is bitwise the
    chain's, with its int32 indices. The constant part, the row indices
    and the column pointers are made once per call, from arrays of the
    matrix's size, and shared read-only by every Hessian of the solve;
    a step adds the potential blocks and drops any exact zeros."""
    nd = parts.problem.n_dof
    K = N - 1
    dt = parts.problem.T / N
    c = np.zeros(N + 2)
    c[1:N] = 2.0 * w_acc / dt ** 4
    v = np.zeros(N + 2)
    v[1:N + 1] = 2.0 * w_vel / dt ** 2
    k = np.arange(N + 1)
    bands = (_band_columns(N, c[k - 1] + 4.0 * c[k] + c[k + 1],
                           -2.0 * c[:N] - 2.0 * c[1:N + 1], c[1:N]),
             _band_columns(N, v[k], -v[1:N + 1]),
             _band_columns(N, v[k + 1]))
    blocks = [_block_entries(X, nd)
              for X in (parts.M, parts.D, parts.S, parts.G)]
    reach = (2, 1, 0, 0)
    offs = np.arange(-2, 3, dtype=np.int32)
    unions = [np.unique(np.concatenate([b[0][:-1] for b, r in
                                        zip(blocks, reach) if abs(o) <= r]))
              for o in offs]
    offs = np.repeat(offs, [u.size for u in unions])
    keys = np.concatenate(unions)
    col, row = np.divmod(keys, nd)
    order = np.lexsort((row, offs, col))
    offs, keys, col, row = offs[order], keys[order], col[order], row[order]
    # each template entry's index into each block's entries, the
    # sentinel where the block has none or does not reach
    at = []
    for (bkeys, _), r in zip(blocks, reach):
        pos = np.searchsorted(bkeys, keys)
        at.append(np.where((np.abs(offs) <= r) & (bkeys[pos] == keys), pos,
                           bkeys.size - 1))
    # column block b holds the rows of block b + o; the (K, template)
    # arrays below are the matrix's size, so few are alive at once
    block = np.arange(K, dtype=np.int32)[:, None] + offs
    valid = (block >= 0) & (block < K)
    rows = (block * np.int32(nd) + row.astype(np.int32))[valid]
    del block
    linear = bands[0][offs + 2].T * blocks[0][1][at[0]]
    linear += bands[1][offs + 2].T * blocks[1][1][at[1]]
    linear += bands[2][offs + 2].T * blocks[1][1][at[1]]
    linear = linear[valid]
    # every column has an entry: M's diagonal, at o = 0
    indptr = np.zeros(K * nd + 1, np.int32)
    np.cumsum(np.add.reduceat(valid, np.searchsorted(col, np.arange(nd)),
                              axis=1, dtype=np.int32), out=indptr[1:])
    # the diagonal blocks' entries, in the order of the values' array
    diag = offs == 0
    diag_at = (np.cumsum(valid, dtype=np.int32) - 1).reshape(K, -1)[:, diag]
    diag_at = diag_at.ravel()
    s_diag, g_at = blocks[2][1][at[2][diag]], at[3][diag]
    w = w_pot[1:, None]

    def hess(V: np.ndarray) -> SparseHessian:
        g = blocks[3][1][None] if parts.g_curv is None \
            else np.append(parts.g_curv(V), np.zeros((K, 1)), axis=1)
        data = linear.copy()
        data[diag_at] += (w * (s_diag + g[:, g_at])).ravel()
        keep = data != 0.0
        if keep.all():
            H = sp.csc_matrix((data, rows, indptr), shape=(K * nd, K * nd))
        else:
            kept = np.zeros(data.size + 1, np.int32)
            np.cumsum(keep, out=kept[1:])
            H = sp.csc_matrix((data[keep], rows[keep], kept[indptr]),
                              shape=(K * nd, K * nd))
        return SparseHessian(H)
    return hess


def _wide_kernel(parts: _Parts, U: np.ndarray,
                 value: bool = True) -> tuple[float, np.ndarray]:
    """Value and gradient (zero in both pinned slots) of the functional on
    the whole knot array U, or one value and gradient per knot array of a
    (k, N+1, n_dof) stack, row for row the bits of the single call. The
    value adds every acceleration term, then the velocity and potential
    terms knot by knot, as a running sum would.

    The value is read by wide_value_grad; the Newton gradient of
    minimize_wide, the extended-precision polish's included, passes
    value=False, which leaves the value out (None, and parts.g_val
    uncalled) and computes the gradient with the same operations, so with
    the same bits."""
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
    return Trajectory(grid, problem.T, values)


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
    of 1e-10 in at most 120 iterations. Each step's Hessian is filled
    straight into CSC arrays (_hessian_fill), with the bits of the scipy
    kron chain it replaced, and factored by splu. The engine's
    curvature fallback covers nonconvex (lambda < 0) nonlinearities; the
    declared curvature bound is recorded in the report notes."""
    N = count(steps, "steps", at_least=2)
    dt = problem.T / N
    parts = _Parts(problem)
    eps = problem.epsilon
    beta, w_acc, w_vel, w_pot = _knot_weights(problem, N)

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
        _hessian_fill(parts, N, w_acc, w_vel, w_pot),
        np.maximum(beta[2:] * knot_mag, 1e-300), tol=1e-10, max_iter=120,
        notes=notes)
    return wide_trajectory(problem, U), MinimizeReport(
        iterations=iters, gradient_norm=res, converged=conv,
        notes=tuple(notes))


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
