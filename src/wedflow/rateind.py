"""Rate-independent evolution: weighted functionals over piecewise
constant trajectories whose dissipation is the total variation.

States jump between knots and the variation term pays |jump| with the
exponential weight evaluated where the jump happens. The convention here
is right-continuous steps: the jump between u_{n-1} and u_n happens at
t_{n-1}, so it pays eps * exp(-t_{n-1}/eps) and the potential integral
over (t_{n-1}, t_n] sees the post-jump state u_n. Both pieces of the
functional are then exact integrals of the step interpolant, and the
stationarity system reproduces the unit activation threshold of the
continuous problem at every step size. (Weighting jumps at the right
knot instead shifts the threshold by the factor (eps/dt)(1-exp(-dt/eps)),
which wrecks the small-eps limit on coarse grids.)

The nonsmooth |.| is handled by a vanishing smoothing parameter: each
stage replaces |v| by sqrt(v^2 + delta^2) - delta and polishes with the
damped Newton engine, warm-starting the next stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .grids import (ConfigurationError, Grid, Trajectory,
                    trajectory_to_csv)
from .energies import (_rowdot, _rowmul, _sequential_sum, graph_laplacian,
                       polyders, polyval)
from ._newton import (KnotTridiagonal, SparseHessian, band_diagonals,
                      newton_solve, pinned_solve, time_band,
                      time_divergence)
from .wed import MinimizeReport, continuation
from .comparison import ordered_pair_levels, ordering_margin

DELTA_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


# ---------------------------------------------------------------------------
# Problem and trajectory containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RIProblem:
    """Smooth convex node potential (polynomial, ascending coefficients),
    optional quadratic coupling a >= 0 across grid edges, time-dependent
    linear forcing h, and the weight scale eps."""

    grid: Grid
    phi_coeffs: tuple
    a: float
    forcing: np.ndarray     # (N+1, n_nodes)
    T: float
    epsilon: float
    initial: np.ndarray
    # coefficients of phi's first and second derivatives and the coupling
    # Laplacian, computed once; None where the term vanishes identically
    _d1_coeffs: Optional[np.ndarray] = field(init=False, repr=False,
                                             default=None)
    _d2_coeffs: Optional[np.ndarray] = field(init=False, repr=False,
                                             default=None)
    _lap: Optional[sp.spmatrix] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        f = np.asarray(self.forcing, dtype=float)
        if f.ndim != 2 or f.shape[1] != self.grid.n_nodes or f.shape[0] < 2:
            raise ConfigurationError("forcing must be (N+1, n_nodes), N >= 1",
                                     "forcing")
        if not np.all(np.isfinite(f)):
            raise ConfigurationError("forcing must be finite", "forcing")
        object.__setattr__(self, "forcing", f)
        u0 = np.asarray(self.initial, dtype=float).ravel()
        if u0.size != self.grid.n_nodes:
            raise ConfigurationError("initial state size mismatch", "initial")
        if not np.all(np.isfinite(u0)):
            raise ConfigurationError("initial state must be finite", "initial")
        object.__setattr__(self, "initial", u0)
        try:
            a = float(self.a)
        except (TypeError, ValueError):
            raise ConfigurationError(f"coupling a must be a number, "
                                     f"not {self.a!r}", "a")
        if not (np.isfinite(a) and a >= 0):
            raise ConfigurationError("coupling a must be finite and "
                                     "nonnegative", "a")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_lap", graph_laplacian(self.grid, a))
        if not (np.isfinite(self.T) and self.T > 0):
            raise ConfigurationError("horizon T must be positive", "T")
        if not (0 < self.epsilon < self.T):
            raise ConfigurationError("eps must lie in (0, T)", "epsilon")
        try:
            c = np.asarray(self.phi_coeffs, dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError(f"phi_coeffs must be numbers, "
                                     f"not {self.phi_coeffs!r}", "phi_coeffs")
        if c.ndim != 1 or c.size < 1:
            raise ConfigurationError("phi_coeffs must be a 1D list of "
                                     "coefficients", "phi_coeffs")
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("phi_coeffs must be finite", "phi_coeffs")
        object.__setattr__(self, "phi_coeffs", tuple(float(x) for x in c))
        d1, d2 = polyders(c)
        object.__setattr__(self, "_d1_coeffs", d1)
        object.__setattr__(self, "_d2_coeffs", d2)
        # convexity probe on a generous sample range
        r = 10.0 * (1.0 + np.max(np.abs(u0)) + np.max(np.abs(f)))
        s = np.linspace(-r, r, 257)
        if np.min(self._phi_d2(s)) < -1e-12:
            raise ConfigurationError("node potential is not convex on samples",
                                     "phi_coeffs")

    @property
    def steps(self) -> int:
        return self.forcing.shape[0] - 1

    def _phi_d2(self, s: np.ndarray) -> np.ndarray:
        return polyval(s, self._d2_coeffs)

    def phi_tilde(self, s: np.ndarray) -> np.ndarray:
        return polyval(s, self.phi_coeffs)

    def phi_tilde_d1(self, s: np.ndarray) -> np.ndarray:
        return polyval(s, self._d1_coeffs)


@dataclass(frozen=True, eq=False)
class RITrajectory(Trajectory):
    """A step trajectory of the rate-independent lane: its values must be
    finite."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("trajectory values must be finite")

    def jump_magnitudes(self) -> np.ndarray:
        """psi(u_n - u_{n-1}) per knot; knot 0 carries no jump."""
        hd = self.grid.cell_measure
        jm = np.zeros(self.steps + 1)
        jm[1:] = np.sum(np.abs(np.diff(self.values, axis=0)), axis=1) * hd
        return jm

    def to_csv(self) -> str:
        return trajectory_to_csv(
            self, column=("jump_magnitude", self.jump_magnitudes()))


# ---------------------------------------------------------------------------
# Energy phi(t, u) and the weighted functional
# ---------------------------------------------------------------------------

def ri_energy(problem: RIProblem, u: np.ndarray, n_slice: int) -> float:
    """phi(t_n, u) = Sum phi~(u_i) h^d + (a/2)|grad u|^2 - <h_n, u> h^d;
    u may be a stack of states (rows) with n_slice their knots, an index
    array or a slice of the forcing's rows."""
    hd = problem.grid.cell_measure
    val = np.sum(problem.phi_tilde(u), axis=-1) * hd
    if problem._lap is not None:
        val += 0.5 * _rowdot(u, (problem._lap @ u.T).T)
    val -= hd * _rowdot(problem.forcing[n_slice], u)
    return val


def ri_energy_grad(problem: RIProblem, u: np.ndarray,
                   n_slice: int) -> np.ndarray:
    """The gradient of ri_energy in u (a state or a stack of states, with
    any leading axes); row for row the bits of the single-state call."""
    hd = problem.grid.cell_measure
    g = problem.phi_tilde_d1(u) * hd
    if problem._lap is not None:
        g = g + _rowmul(problem._lap, u)
    return g - hd * problem.forcing[n_slice]


def _ri_weights(eps: float, T: float, N: int):
    """(jump weights, potential weights, terminal weight) per step: the
    jump into u_n pays at t_{n-1}, and the potential integral over the
    following interval is exact."""
    t = np.linspace(0.0, T, N + 1)
    beta = np.exp(-t / eps)
    return eps * beta[:-1], eps * (beta[:-1] - beta[1:]), beta[-1]


def _knot_count(problem: RIProblem, traj: RITrajectory) -> int:
    """The trajectory's N, which must be the forcing's."""
    if traj.steps != problem.steps:
        raise ConfigurationError("trajectory and forcing disagree on N")
    return traj.steps


def wed_ri_value(problem: RIProblem, traj: RITrajectory) -> float:
    """Terminal energy + weighted variation + weighted energy integral."""
    N = _knot_count(problem, traj)
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    U = traj.values
    # added knot by knot, jump before energy, as a running sum would
    terms = np.column_stack([
        jw * traj.jump_magnitudes()[1:],
        pw * ri_energy(problem, U[1:], slice(1, None))])
    return _sequential_sum(tw * ri_energy(problem, U[N], N), terms.ravel())


# ---------------------------------------------------------------------------
# Minimization (smoothed variation + damped Newton per stage)
# ---------------------------------------------------------------------------

def _sigma(v: np.ndarray, delta: float) -> np.ndarray:
    """v / sqrt(v^2 + delta^2), the smoothed |v|'s derivative, computed in
    place on the one fresh array v * v."""
    q = v * v
    q += delta * delta
    np.sqrt(q, out=q)
    return np.divide(v, q, out=q)


def _rho(v: np.ndarray, delta: float) -> np.ndarray:
    """delta^2 / (v^2 + delta^2)^1.5, the smoothed |v|'s curvature,
    computed in place on the one fresh array v * v."""
    q = v * v
    q += delta * delta
    q **= 1.5
    return np.divide(delta * delta, q, out=q)


def minimize_wed_ri(problem: RIProblem,
                    init: Optional[RITrajectory] = None,
                    deltas: Sequence[float] = DELTA_SCHEDULE) -> tuple:
    """Smoothing continuation over the variation term, one Newton solve
    per smoothing stage to a scaled residual of 1e-9 in at most 200
    iterations; deltas, the smoothing stages, must be finite and positive,
    and there must be at least one. Returns the trajectory and a
    MinimizeReport whose gradient norm is the row-scaled stationarity
    residual at the final smoothing stage. Without coupling
    (a = 0 or a point grid) every node is its own chain in time and each
    Newton step is one LAPACK tridiagonal solve (_newton.KnotTridiagonal);
    with a > 0 the Hessian is block tridiagonal and is factored by splu
    (_newton.SparseHessian).

    The Newton callbacks compute the jumps once per call into one fresh
    array, and build the potential term, the flux sigma jw h^d and the
    curvature rho jw h^d in place, each on one array, with the operations
    of the whole-trajectory formula in its order; so they have its bits,
    on float64 stacks and on the np.longdouble stacks of the polish."""
    deltas = _check_deltas(deltas)
    N = problem.steps
    hd = problem.grid.cell_measure
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    # pw with the terminal weight folded into the last knot
    pwt = pw.copy()
    pwt[-1] += tw
    lap = None if problem._lap is None \
        else sp.kron(sp.diags(pwt), problem._lap, format="csc")
    # bound once per solve: the closures run thousands of times
    pwt_col, jw_col = pwt[:, None], jw[:, None]
    work = hd * problem.forcing[1:]
    u0 = problem.initial

    # The callbacks see the unknown knots V (knots 1..N; a trajectory's,
    # or a stack of them, each acting on its own) and return their rows.
    # x *= c has the bits of c * x: IEEE multiplication and addition
    # commute.
    def jumps(V: np.ndarray) -> np.ndarray:
        # u_n - u_{n-1}, u_0 the pinned row: np.diff of the trajectory
        J = np.empty_like(V)
        np.subtract(V[..., 1:, :], V[..., :-1, :], out=J[..., 1:, :])
        np.subtract(V[..., 0, :], u0, out=J[..., 0, :])
        return J

    def grad(V: np.ndarray, delta: float) -> np.ndarray:
        # pwt (phi~'(V) h^d + L V - h^d h_n), the ri_energy_grad terms
        g = problem.phi_tilde_d1(V)
        g *= hd
        if problem._lap is not None:
            g += _rowmul(problem._lap, V)
        g -= work
        g *= pwt_col
        flux = _sigma(jumps(V), delta)
        flux *= jw_col
        flux *= hd
        time_divergence(g, flux)
        return g

    def hess(V: np.ndarray, delta: float) -> KnotTridiagonal | SparseHessian:
        r = _rho(jumps(V), delta)
        r *= jw_col
        r *= hd
        main = problem._phi_d2(V)
        main *= pwt_col
        main *= hd
        if lap is None:
            return KnotTridiagonal(*band_diagonals(r, main))
        return SparseHessian((time_band(r, main) + lap).tocsc())

    U = None if init is None else init.values
    total_iters = 0
    res = np.inf
    converged = True
    notes = []
    for delta in deltas:
        U, res, iters, ok = pinned_solve(
            newton_solve, u0[None], N, U,
            lambda V: grad(V, delta), lambda V: hess(V, delta), jw * hd,
            tol=1e-9, max_iter=200, notes=notes)
        total_iters += iters
        converged = converged and ok
    traj = RITrajectory(problem.grid, problem.T, U)
    return traj, MinimizeReport(iterations=total_iters, gradient_norm=res,
                                converged=converged, notes=tuple(notes))


def _check_deltas(deltas) -> tuple:
    """The smoothing stages as floats; ConfigurationError naming `deltas`
    unless there is at least one and each is finite and positive."""
    try:
        out = tuple(float(d) for d in deltas)
    except (TypeError, ValueError):
        out = ()
    if not out or not all(np.isfinite(d) and d > 0.0 for d in out):
        raise ConfigurationError(
            f"deltas must be one or more finite, positive smoothing "
            f"parameters, not {deltas!r}", "deltas")
    return out


def sign_condition(problem: RIProblem, traj: RITrajectory) -> dict:
    """Backward-substituted subgradient certificate.

    Solves the per-knot stationarity system for the multiplier sigma_n in
    the variation subdifferential and reports the worst violation of the
    two membership conditions: |sigma| <= 1 everywhere, and the
    complementarity |jump| (1 - sigma sign(jump)) = 0 (sigma must sit at
    the matching endpoint wherever the node actually moves). The second
    quantity is jump-weighted, so vanishing jumps cannot trip it."""
    N = _knot_count(problem, traj)
    hd = problem.grid.cell_measure
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    U = traj.values
    grads = ri_energy_grad(problem, U[1:], slice(1, None))
    # jw_n sigma_n h^d balances the potential pull of every later knot
    pull = pw[:, None] * grads
    pull[-1] += tw * grads[-1]
    sigma = -np.cumsum(pull[::-1], axis=0)[::-1] / (jw[:, None] * hd)
    j = np.diff(U, axis=0)
    rest = max(float(np.max(np.abs(sigma))) - 1.0, 0.0)
    comp = max(float(np.max(np.abs(j) * (1.0 - sigma * np.sign(j)))), 0.0)
    return {"worst_violation": max(rest, comp), "rest_excess": rest,
            "complementarity": comp, "sigma": sigma}


# ---------------------------------------------------------------------------
# Energetic-solution residuals
# ---------------------------------------------------------------------------

@dataclass
class EnergeticReport:
    stability: float
    balance: float
    stability_left: float
    per_knot_balance: np.ndarray
    probes: int


def energetic_residuals(traj: RITrajectory, problem: RIProblem,
                        probe_count: int = 30) -> EnergeticReport:
    """Global stability against single-node probes and the energy balance
    with the time-dependent work term.

    Stability probes each knot state against w = u + s e_i over a log
    range of both signs: violation (phi(u) - phi(w) - psi(w-u))^+, with
    phi(w) - phi(u) = h^d[phi~(u_i+s) - phi~(u_i)] + s(Lu)_i + s^2 L_ii/2
    - s h^d h_i. The knot energy uses the forcing at the knot's own time
    (the state right after the jump); the variant pairing the pre-jump
    forcing is reported alongside. The balance accumulates the variation
    plus the trapezoid work increment <h_n - h_{n-1}, (u_n + u_{n-1})/2>
    h^d, exact for step interpolants resting or sliding at unit rate."""
    N = _knot_count(problem, traj)
    if probe_count < 1:
        raise ConfigurationError("probe_count must be at least 1")
    hd = problem.grid.cell_measure
    U = traj.values
    logs = np.logspace(-3, 1, probe_count)
    s = np.concatenate([-logs, logs])[:, None, None]
    # phi(w) - phi(u) + psi(w - u) per probe, knot and node, less the
    # forcing term, which each variant pairs with its own knots
    rise = hd * (problem.phi_tilde(U + s) - problem.phi_tilde(U) + np.abs(s))
    if problem._lap is not None:
        rise += s * (problem._lap @ U.T).T \
            + 0.5 * s * s * problem._lap.diagonal()

    def stab(m: np.ndarray) -> float:
        # m[n] is the knot whose forcing knot n's energy pairs with
        return max(float(np.max(s * hd * problem.forcing[m] - rise)), 0.0)

    knots = np.arange(N + 1)
    energy = ri_energy(problem, U, knots)
    work = hd * _rowdot(np.diff(problem.forcing, axis=0),
                        0.5 * (U[1:] + U[:-1]))
    balance = energy + np.cumsum(traj.jump_magnitudes()) - energy[0] \
        + np.cumsum(np.concatenate(([0.0], work)))
    return EnergeticReport(stability=stab(knots),
                           balance=float(np.max(np.abs(balance))),
                           stability_left=stab(np.maximum(knots - 1, 0)),
                           per_knot_balance=balance,
                           probes=2 * probe_count)


# ---------------------------------------------------------------------------
# Ordered pairs and continuation
# ---------------------------------------------------------------------------

@dataclass
class OrderedRIPair:
    u: RITrajectory
    v: RITrajectory
    audits: list
    ordering_margin: float
    converged: bool = True   # every member solve of every level converged


def ordered_ri_minimizers(problem: RIProblem, u0: np.ndarray,
                          v0: np.ndarray,
                          schedule: Optional[Sequence[float]] = None,
                          u_levels: Sequence = ()) -> OrderedRIPair:
    """Minimize from both ordered states, swap for the componentwise
    lattice pair at each weight level, warm-start the next level.
    u_levels are the `ri_continuation` levels of the problem itself, if
    already solved (see `comparison.ordered_pair_levels`)."""
    levels = ordered_pair_levels(
        problem, np.asarray(u0, dtype=float).ravel(),
        np.asarray(v0, dtype=float).ravel(), schedule,
        lambda p, warm: minimize_wed_ri(p, init=warm), wed_ri_value,
        problem.steps, u_levels)
    tu, tv = levels[-1][1]
    return OrderedRIPair(u=tu, v=tv,
                         audits=[rep.audit for *_, rep in levels],
                         ordering_margin=ordering_margin(tu, tv),
                         converged=levels[-1][2].converged)


def ri_continuation(problem: RIProblem,
                    schedule: Sequence[float]) -> list:
    """Warm-started solves along a decreasing weight schedule; returns
    [(eps, trajectory, report)] in schedule order, ending at the first
    level that did not converge."""
    return continuation(
        lambda eps, warm: minimize_wed_ri(replace(problem, epsilon=eps),
                                          init=warm),
        schedule, problem.T)
