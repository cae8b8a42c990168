"""Trajectory functional for gradient-flow type evolutions: assembly,
minimization over pinned trajectories, the fixed-point loop closing the
nonpotential terms, continuation in the weight parameter, and residual
diagnostics against the limiting evolution system.

Discretization. Time derivative: backward difference. Writing
beta_n = e^{-t_n/eps} and q = e^{-dt/eps}, slice n of the functional value

    a_n * sum_i A(rate_n) h^d  +  b_n * [phi1(u_n) - h^d <w_n, u_n>]

uses b_n = beta_n dt for the potential terms and, for the dissipation,
a_n = eps * W_n / dt with W_n the EXACT integral of the weight over
(t_{n-1}, t_n], i.e. a_n = c0 * eps * beta_n * dt, c0 = eps(e^{dt/eps}-1)/dt.
A common factor across both terms cancels from stationarity, so the ratio
c0 is the entire scheme: with c0 = 1 (pure knot weight everywhere) the
discrete minimizer carries a first-order defect O(dt/eps)(w - dphi1) that a
sup-norm comparison with the limiting evolution can see; the exact-integral
ratio removes it (effective rate factor [sinh(x)/x]^2, x = dt/2eps).

Newton steps. With p = 2 the rate term's curvature is a_n h^d/dt^2 at
every node, so the space-time Hessian over knots 1..N is
kron(diag(b), K) + kron(T_a, I), T_a the tridiagonal of that curvature
and K the energy Hessian. Where K is constant and a Kronecker sum over
the axes of a 1D or 2D grid (energies.energy1_modes), minimize_wed never
assembles it: every step is a space-time fast diagonalization
(_newton.FastDiagonalization). Every other problem assembles the sparse
Hessian as a _newton.SparseHessian, which factors itself (see there for
which factorization, and why point grids stay off the fast
diagonalization): one per Newton step, or, where no state changes it
(_constant_hessian), one per weight level of fixed_point_solve. The
assembly fills CSC arrays from a one-knot template cached per grid
(energies.energy1_hessian) with the floating-point operations, in their
order, of the scipy chain b (kron(I, D)^T diag(w) kron(I, D) + diag(d))
+ T it replaced, so every Hessian, LU and step is bitwise that chain's.
A solve that stalls above its tolerance in float64 is polished with an
extended-precision gradient (_newton._polish) and says so in its
MinimizeReport.notes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._newton import (FastDiagonalization, SparseHessian, newton_solve,
                      pinned_solve, plan_scope, time_divergence, with_pins)
from .energies import (ConcaveSpec, DissipationSpec, EnergySpec,
                       ReactionSpec, A_eval, _rowdot, _sequential_sum,
                       alpha_eval, alpha_prime, energy1_hessian,
                       energy1_modes, energy1_value_grad,
                       energy2_value_grad, p_conjugate, reaction_eval)
from .grids import (ConfigurationError, Grid, Trajectory,
                    constant_trajectory, float_array, horizon)


@dataclass(frozen=True, eq=False)
class WedProblem:
    """Everything defining one evolution: rate potential, convex energy,
    concave perturbation, reaction, horizon, weight, initial state and
    fixed source.

    initial is the flat dof vector (length n_nodes, or 2*n_nodes for the
    two-species reaction kind). forcing, the fixed source, is a nodal
    density: None (no source), one vector of n_dof values, or one row of
    them per time knot (see source_rows).
    """

    grid: Grid
    dissipation: DissipationSpec
    energy1: EnergySpec
    energy2: ConcaveSpec
    reaction: ReactionSpec
    T: float
    epsilon: float
    initial: np.ndarray
    forcing: Optional[np.ndarray] = None

    def __post_init__(self):
        horizon(self.T, self.epsilon)
        two = self.energy1.kind == "lv_quadratic"
        if self.reaction.kind == "lotka_volterra" and not two:
            raise ConfigurationError("a lotka_volterra reaction needs the "
                                     "lv_quadratic energy", "reaction")
        n = self.grid.n_nodes * (2 if two else 1)
        object.__setattr__(self, "initial",
                           float_array(self.initial, "initial", n))
        if self.forcing is not None:
            f = float_array(self.forcing, "forcing")
            if f.ndim not in (1, 2) or f.shape[-1] != n:
                raise ConfigurationError(
                    f"forcing must be {n} values or rows of them", "forcing")
            object.__setattr__(self, "forcing", f)

    @property
    def n_dof(self) -> int:
        return self.initial.size


@dataclass
class MinimizeReport:
    iterations: int
    gradient_norm: float
    converged: bool
    notes: tuple = ()


@dataclass
class FixedPointReport:
    outer_iterations: int
    residual_history: list
    converged: bool
    inner_reports: list


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _weights(eps: float, T: float, N: int):
    """(a, b): dissipation and potential weights per slice n = 1..N, made
    once per (eps, T, N) and read-only, as every kernel, value and Hessian
    call of a solve reads them."""
    dt = T / N
    t = np.linspace(0.0, T, N + 1)
    beta = np.exp(-t / eps)
    b = beta[1:] * dt
    c0 = eps * np.expm1(dt / eps) / dt
    a = c0 * eps * b
    a.flags.writeable = b.flags.writeable = False
    return a, b


def default_eps_schedule(T: float, N: int) -> list:
    """Geometric schedule, ratio 1/2, from min(T/5, 0.2) down to the floor
    max(2*dt, 1e-3, T/700); the floor is appended as the final entry."""
    dt = T / N
    floor = max(2.0 * dt, 1e-3, T / 700.0)
    out = []
    e = min(T / 5.0, 0.2)
    while e > floor * (1.0 + 1e-12):
        out.append(e)
        e *= 0.5
    out.append(floor)
    return out


# ---------------------------------------------------------------------------
# Functional value / gradient
# ---------------------------------------------------------------------------

def _check_w(w: np.ndarray, N: int, n_dof: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = np.tile(w, (N + 1, 1))
    if w.shape != (N + 1, n_dof):
        raise ConfigurationError(
            f"dual field shape {w.shape} != {(N + 1, n_dof)}")
    return w


def _dissipation_value(problem: WedProblem, U: np.ndarray, dt: float):
    """The weighted rate term of the functional on the trajectory U, or
    one per trajectory of a (k, N+1, n_dof) stack."""
    a, _ = _weights(problem.epsilon, problem.T, U.shape[-2] - 1)
    rates = np.diff(U, axis=-2) / dt
    return np.sum(a[:, None] * A_eval(problem.dissipation, rates),
                  axis=(-2, -1)) * problem.grid.cell_measure


def _kernel_plan(problem: WedProblem, w: np.ndarray, N: int,
                 dt: float) -> tuple:
    """What _wed_kernel reads of the weights and the dual table w on every
    call of a solve, found once: ((a/dt) and b as columns, hd w over knots
    1..N or None where every entry of it is +0.0, whether alpha is the
    identity)."""
    a, b = _weights(problem.epsilon, problem.T, N)
    hdw = problem.grid.cell_measure * w[1:] \
        if np.ascontiguousarray(w[1:]).view(np.int64).any() else None
    spec = problem.dissipation
    return ((a / dt)[:, None], b[:, None], hdw,
            spec.alpha_kind == "power" and spec.p == 2.0)


def _wed_kernel(problem: WedProblem, w: np.ndarray, U: np.ndarray,
                dt: float, value: bool = True, plan: Optional[tuple] = None
                ) -> tuple[float, np.ndarray]:
    """Value and gradient (zero in the pinned row 0) of the functional on
    the whole trajectory U ((N+1, n_dof)) for the dual table w, or one
    value and gradient per trajectory of a (k, N+1, n_dof) stack, row for
    row the bits of the single call. The value adds the slice terms in
    time order, as a running sum would.

    The value is read by wed_value_grad; the Newton gradient of
    minimize_wed, the extended-precision polish's included, passes
    value=False, which leaves the value out (None) and computes the
    gradient with the same operations, so with the same bits.

    The gradient of knot n is b_n (g1_n - hd w_n) + flux_n - flux_{n+1},
    with flux = ((a/dt) alpha(rate)) hd, and only its live passes run.
    plan, internal, is _kernel_plan's, which minimize_wed makes once per
    solve (without it, each call makes its own). It leaves out hd w where
    w is +0.0 at every knot 1..N (x - (+0.0) is x, -0.0 and NaN
    included), and the copy alpha(v) = v at p = 2; the flux and b products
    are taken in place on fresh arrays (a product commutes bit for bit),
    and the gradient rows are written straight into the output, whose
    pinned row alone is zeroed. The energy's gradient leaves out its own
    dead terms (energies.energy1_value_grad). So every gradient row has
    the bits of the all-terms form for a finite U, and a row that is not
    finite stays so, so no line-search or polish decision changes."""
    N = U.shape[-2] - 1
    hd = problem.grid.cell_measure
    a_dt, b, hdw, identity = plan if plan is not None \
        else _kernel_plan(problem, w, N, dt)
    V = U[..., 1:, :]
    flux = np.subtract(V, U[..., :-1, :])
    flux /= dt
    if not identity:
        flux = alpha_eval(problem.dissipation, flux)
    flux *= a_dt
    flux *= hd
    v1, g1 = energy1_value_grad(problem.energy1, problem.grid,
                                V.reshape(-1, V.shape[-1]), value=value)
    val = _sequential_sum(_dissipation_value(problem, U, dt),
                          b[:, 0] * (v1.reshape(V.shape[:-1])
                                     - hd * _rowdot(w[1:], V))) \
        if value else None
    grad = np.empty_like(U)
    grad[..., 0, :] = 0.0
    G = grad[..., 1:, :]
    g1 = g1.reshape(V.shape)
    if hdw is None:
        np.multiply(g1, b, out=G)
    else:
        np.subtract(g1, hdw, out=G)
        G *= b
    time_divergence(G, flux)
    return val, grad


def wed_value_grad(problem: WedProblem, w: np.ndarray,
                   traj: Trajectory) -> tuple[float, np.ndarray]:
    """Value and euclidean gradient (trajectory-shaped, zero in the pinned
    slot 0) of the weighted trajectory functional for a fixed dual field w.
    w is a nodal density table of shape (N+1, n_dof); row 0 is unused."""
    U = traj.values
    return _wed_kernel(problem, _check_w(w, traj.steps, U.shape[1]), U,
                       traj.dt)


# ---------------------------------------------------------------------------
# Inner minimization
# ---------------------------------------------------------------------------

def _space_time_hessian(problem: WedProblem, U: np.ndarray) -> SparseHessian:
    """The Hessian of the functional over knots 1..N at the trajectory U
    ((N+1, n_dof)): the CSC matrix of energy1_hessian, grouped as the
    recorded artifacts were computed, factored symmetrically on grids of
    dimension >= 2 (see _newton.SparseHessian)."""
    N = U.shape[0] - 1
    dt = problem.T / N
    a, b = _weights(problem.epsilon, problem.T, N)
    r = a[:, None] * (alpha_prime(problem.dissipation, np.diff(U, axis=0)
                                  / dt) * problem.grid.cell_measure / dt ** 2)
    return SparseHessian(energy1_hessian(problem.energy1, problem.grid, U[1:],
                                         b, r),
                         symmetric=problem.grid.dim > 1)


def _constant_hessian(problem: WedProblem, init: Trajectory):
    """The Hessian of minimize_wed over trajectories of init's knots, for
    every state, where it does not depend on the state; None where it
    does. That takes power dissipation with p = 2, whose rate curvature
    is 1 everywhere, and an energy whose Hessian has no state in it:
    quadratic, fractional, lv_quadratic, or m_laplace with m = 2 (|d|^0
    and |u|^0 are 1, NaN and 0 included).
    - Where energies.energy1_modes gives the energy Hessian K as a
      Kronecker sum over the axes of a 1D or 2D grid, it is the
      FastDiagonalization of kron(diag(b), K) + kron(T_a, I), from the
      closed-form trigonometric modes of each uniform axis (no
      eigensolver): a dense Q below energies.FFT_CROSSOVER nodes (256
      neumann and periodic, 640 dirichlet, where the numpy.fft transform
      pair became no slower than the dense products at 64 and at 512
      states per transform), numpy.fft transforms at or above it. Point grids
      keep the sparse LU: on benchmark variants 2, 3 and 5 of
      `scalar_decay` the fast diagonalization moved the `reports.json`
      leaf `euler_lagrange/interior_max`, the O(1) residual of the wrong
      weight level, by 3.5e-12, over the 1e-12 refactor oracle (see
      _newton.SparseHessian).
    - Else it is the SparseHessian at init, which holds its LUs. The fill
      at any other state is bitwise this one, so every LU and step is
      that of a fill per Newton step."""
    if problem.dissipation.alpha_kind != "power" \
            or problem.dissipation.p != 2.0:
        return None
    modes = energy1_modes(problem.energy1, problem.grid)
    if modes is not None:
        dt = problem.T / init.steps
        a, b = _weights(problem.epsilon, problem.T, init.steps)
        return FastDiagonalization(
            b, a * (problem.grid.cell_measure / dt ** 2), modes)
    spec = problem.energy1
    if spec.kind == "m_laplace" and spec.m != 2.0:
        return None
    return _space_time_hessian(problem, init.values)


def minimize_wed(problem: WedProblem, w, init: Trajectory,
                 max_iter: int = 120, *, _hessian=None
                 ) -> tuple[Trajectory, MinimizeReport]:
    """Minimize the functional at fixed dual field w over trajectories
    pinned at problem.initial, from init, whose row 0 must be bitwise
    problem.initial (_newton.pinned_solve checks it). Newton with the exact
    Hessian, globalized by scaled-residual backtracking; termination on the
    row-scaled gradient max-norm 1e-10 (rows weighted by b_n so the
    tolerance is uniform in time). At every Newton step the Hessian is
    filled into CSC arrays by energy1_hessian (b_k per knot and the time
    band), a SparseHessian that factors itself, except where
    _constant_hessian applies: then one Hessian serves every step, a fast
    diagonalization (no Hessian is assembled) or one SparseHessian whose LUs
    are made once. _hessian, internal, is that Hessian built by the caller,
    fixed_point_solve, once for all its calls of a weight level; without it
    the call builds its own. A solve that stalls in float64 and converges
    under the extended-precision polish (see _newton.newton_solve) reports
    that residual as its gradient norm and "longdouble_polish_steps=<k>" in
    its notes."""
    N = init.steps
    w = _check_w(w, N, problem.n_dof)
    dt = problem.T / N
    _, b = _weights(problem.epsilon, problem.T, N)
    held = _constant_hessian(problem, init) if _hessian is None else _hessian
    pinned = problem.initial[None]
    plan = _kernel_plan(problem, w, N, dt)

    def grad(V):
        return _wed_kernel(problem, w, with_pins(pinned, V), dt,
                           value=False, plan=plan)[1][..., 1:, :]

    def hess(V):
        return held if held is not None \
            else _space_time_hessian(problem, with_pins(pinned, V))

    notes = []
    U, res, iters, conv = pinned_solve(
        newton_solve, pinned, N, init.values, grad, hess,
        b * problem.grid.cell_measure, tol=1e-10, max_iter=max_iter,
        notes=notes)
    return Trajectory(problem.grid, problem.T, U), MinimizeReport(
        iters, res, conv, tuple(notes))


# ---------------------------------------------------------------------------
# Fixed point loop, continuation
# ---------------------------------------------------------------------------

def source_rows(problem: WedProblem, knots: int) -> np.ndarray:
    """The fixed source at each of knots time knots, a read-only
    (knots, n_dof) view (zeros without a forcing); ConfigurationError
    naming the forcing unless it has one row or knots rows."""
    f = np.zeros(problem.n_dof) if problem.forcing is None \
        else problem.forcing
    if f.ndim == 2 and f.shape[0] not in (1, knots):
        raise ConfigurationError(
            f"forcing has {f.shape[0]} rows, expected 1 or {knots} (one "
            f"per time knot)", "forcing")
    return np.broadcast_to(f, (knots, problem.n_dof))


def dual_field(problem: WedProblem, traj) -> np.ndarray:
    """w = (gradient of the concave part)/h^d + forcing + reaction at
    every slice: the nodal-density dual closing the nonpotential terms.
    traj is a Trajectory, or the values of a stack of trajectories
    ((k, knots, n_dof)), whose fields are row for row the bits of one
    call per trajectory."""
    U = traj.values if isinstance(traj, Trajectory) else traj
    n_nodes = problem.grid.n_nodes
    _, g2 = energy2_value_grad(problem.energy2, problem.grid,
                               U.reshape(-1, U.shape[-1]))
    w = g2.reshape(U.shape) / problem.grid.cell_measure
    w += source_rows(problem, U.shape[-2])
    if problem.reaction.kind == "lotka_volterra":
        fu, fv = reaction_eval(problem.reaction,
                               (U[..., :n_nodes], U[..., n_nodes:]))
        w += np.concatenate([fu, fv], axis=-1)
    return w


def _traj_norm(problem: WedProblem, diff: np.ndarray, dt: float) -> float:
    p = problem.dissipation.p
    hd = problem.grid.cell_measure
    return float((np.sum(np.abs(diff) ** p) * hd * dt) ** (1.0 / p))


def fixed_point_solve(problem: WedProblem, steps: int,
                      init: Optional[Trajectory] = None,
                      project: Optional[Callable] = None
                      ) -> tuple[Trajectory, FixedPointReport]:
    """Damped iteration u <- (1-theta) u + theta S(u), where S minimizes
    the functional with the dual field frozen at u. The damping starts at
    0.5 and doubles after every monotone residual decrease; the loop stops
    once the trajectory norm of the update is at most 1e-10, or after 200
    outer iterations. It has converged only if it stopped on the update
    and the inner solve of that last outer iteration converged: an inner
    solve that makes no step returns its start, and so an update of 0,
    without a fixed point of S. `project` (when given) maps each outer
    iterate before the dual field is evaluated; it is how solution classes
    closed under a map are enforced. init, if given, must have steps + 1
    knots.

    The Hessian of a problem that _constant_hessian covers is the same in
    every outer iteration, so the loop builds it once, from init, and
    every minimize_wed of the loop solves with it: one fill and one
    factorization for the whole weight level (more only for a Levenberg
    shift). It is dropped when the call returns, so no level's LUs
    outlive it."""
    if init is not None and init.steps != steps:
        raise ConfigurationError("init has the wrong number of knots")
    u = init if init is not None else constant_trajectory(
        problem.grid, problem.initial, problem.T, steps)
    dt = problem.T / steps
    inner_reports = []
    history = []
    # without a reaction or a concave part the dual field is the forcing
    if problem.reaction.kind == "none" and problem.energy2.concave_q is None \
            and project is None:
        w = dual_field(problem, u)
        out, rep = minimize_wed(problem, w, u)
        inner_reports.append(rep)
        return out, FixedPointReport(1, [0.0], rep.converged, inner_reports)
    theta = 0.5
    converged = False
    held = _constant_hessian(problem, u)
    for _ in range(200):
        u_eval = project(u) if project is not None else u
        w = dual_field(problem, u_eval)
        s, rep = minimize_wed(problem, w, u_eval, _hessian=held)
        inner_reports.append(rep)
        new_vals = (1.0 - theta) * u_eval.values + theta * s.values
        res = _traj_norm(problem, new_vals - u.values, dt)
        history.append(res)
        u = Trajectory(problem.grid, problem.T, new_vals)
        if res <= 1e-10:
            # a fixed point of S only where S was solved
            converged = rep.converged
            break
        if len(history) >= 2 and history[-1] < history[-2]:
            theta = min(1.0, 2.0 * theta)
    if project is not None:
        u = project(u)
    return u, FixedPointReport(len(history) if history else 1, history,
                               converged, inner_reports)


@dataclass
class ContinuationResult:
    family: list           # (eps, Trajectory) per converged schedule entry
    final: Trajectory
    reports: list
    aborted: bool = False


@dataclass
class PairReport:
    """One weight level of an ordered pair: the lattice value audit, and
    whether both member solves converged."""
    audit: dict
    converged: bool


def check_schedule(schedule, T: float) -> list:
    """The weight schedule as a list of floats; ConfigurationError naming
    `schedule` unless it is nonempty, strictly decreasing and in (0, T)."""
    schedule = float_array(schedule, "schedule", (None,)).tolist()
    if not schedule:
        raise ConfigurationError("empty continuation schedule", "schedule")
    if any(e2 >= e1 for e1, e2 in zip(schedule, schedule[1:])):
        raise ConfigurationError("schedule must decrease strictly", "schedule")
    if any(not 0.0 < e < T for e in schedule):
        raise ConfigurationError("entries must lie in (0, T)", "schedule")
    return schedule


def continuation(level_solve: Callable, schedule, T: float) -> list:
    """The weight continuation shared by every solver family.

    level_solve(eps, warm) returns (state, report), where warm is the state
    of the previous level (None at the first). The schedule must pass
    check_schedule. Returns [(eps, state, report)] in schedule order,
    ending at the first level whose report has not converged. Every
    level runs in one _newton.plan_scope, so a sparsity pattern that
    repeats across levels is planned once per continuation."""
    schedule = check_schedule(schedule, T)
    levels = []
    warm = None
    with plan_scope():
        for eps in schedule:
            warm, report = level_solve(eps, warm)
            levels.append((eps, warm, report))
            if not report.converged:
                break
    return levels


def eps_continuation(problem: WedProblem, schedule, steps: int,
                     project: Optional[Callable] = None
                     ) -> ContinuationResult:
    """Solve along a strictly decreasing weight schedule with warm starts;
    the last converged trajectory is the causal-limit candidate."""
    levels = continuation(
        lambda eps, warm: fixed_point_solve(
            replace(problem, epsilon=eps), steps, init=warm, project=project),
        schedule, problem.T)
    family = [(eps, traj) for eps, traj, rep in levels if rep.converged]
    final = family[-1][1] if family else levels[-1][1]
    return ContinuationResult(family, final, [rep for *_, rep in levels],
                              aborted=len(family) < len(levels))


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------

def _stationarity_terms(problem: WedProblem, traj: Trajectory) -> tuple:
    """(xi, dphi1/h^d - w) at slices 1..N, the rate-potential gradient
    alpha(rate) and the potential part of every stationarity residual."""
    xi = alpha_eval(problem.dissipation, np.diff(traj.values, axis=0)
                    / traj.dt)
    _, g1 = energy1_value_grad(problem.energy1, problem.grid,
                               traj.values[1:])
    return xi, g1 / problem.grid.cell_measure - dual_field(problem, traj)[1:]


def euler_lagrange_residual(problem: WedProblem, traj: Trajectory) -> dict:
    """Weight-eliminated stationarity residual per slice.

    Interior rows: c0 (eps/dt)(xi_n - q xi_{n+1}) + dphi1(u_n)/h^d - w_n,
    terminal row: c0 (eps/dt) xi_N + dphi1(u_N)/h^d - w_N, where xi is
    the rate-potential gradient alpha(rate) and w the self-consistent dual
    field. All rows are nodal densities, so the norms are O(1) numbers."""
    dt = traj.dt
    eps = problem.epsilon
    q = np.exp(-dt / eps)
    c0 = eps * np.expm1(dt / eps) / dt
    xi, potential = _stationarity_terms(problem, traj)
    rows = c0 * (eps / dt) * xi + potential
    rows[:-1] -= c0 * (eps / dt) * q * xi[1:]
    per_time = np.max(np.abs(rows), axis=1)
    return {"per_time": per_time,
            "interior_max": float(per_time[:-1].max()) if traj.steps > 1
            else 0.0,
            "terminal": float(np.max(np.abs(xi[-1]))),
            "max": float(per_time.max())}


def strong_solution_residual(traj: Trajectory, problem: WedProblem) -> float:
    """Residual of the unweighted evolution system, alpha(rate) + dphi1/h^d
    - w, in the dual-exponent space-time norm. The causal-limit metric."""
    pc = p_conjugate(problem.dissipation.p)
    xi, potential = _stationarity_terms(problem, traj)
    total = traj.dt * problem.grid.cell_measure \
        * np.sum(np.abs(xi + potential) ** pc)
    return float(total ** (1.0 / pc))


def reference_solve(problem: WedProblem, steps: int) -> Trajectory:
    """Independent implicit-Euler oracle: each step minimizes
    dt psi((v-u)/dt) + phi1(v) - phi2(v) - h^d <f(u), v> (f the forcing
    plus the reaction at the previous state) with a
    quasi-Newton library call, sharing no code path with minimize_wed.
    scipy.optimize is imported here, by its only user, so that importing
    the package (and every `wedflow` command) does not pay for it."""
    from scipy.optimize import minimize as scipy_minimize

    N = steps
    dt = problem.T / N
    hd = problem.grid.cell_measure
    n_nodes = problem.grid.n_nodes
    source = source_rows(problem, N + 1)
    vals = np.empty((N + 1, problem.n_dof))
    vals[0] = problem.initial
    for n in range(1, N + 1):
        prev = vals[n - 1]
        f = source[n]
        if problem.reaction.kind == "lotka_volterra":
            fu, fv = reaction_eval(problem.reaction,
                                   (prev[:n_nodes], prev[n_nodes:]))
            f = f + np.concatenate([fu, fv])

        def objective(v):
            rate = (v - prev) / dt
            val = dt * float(np.sum(A_eval(problem.dissipation, rate))) * hd
            g = alpha_eval(problem.dissipation, rate) * hd
            v1, g1 = energy1_value_grad(problem.energy1, problem.grid, v)
            v2, g2 = energy2_value_grad(problem.energy2, problem.grid, v)
            val += v1 - v2 - hd * float(f @ v)
            g = g + g1 - g2 - hd * f
            return val, g

        res = scipy_minimize(objective, prev, jac=True, method="L-BFGS-B",
                             options={"maxiter": 500, "ftol": 1e-16,
                                      "gtol": 1e-12})
        vals[n] = res.x
    return Trajectory(problem.grid, problem.T, vals)
