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
which wrecks the small-eps limit on coarse grids; `_ri_weights` keeps the
alternative around for refinement studies.)

The nonsmooth |.| is handled by a vanishing smoothing parameter: each
stage replaces |v| by sqrt(v^2 + delta^2) - delta and polishes with the
damped Newton engine, warm-starting the next stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .grids import ConfigurationError, Grid
from .energies import graph_laplacian
from ._newton import newton_solve
from .wed import MinimizeReport, PairReport, continuation

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

    def __post_init__(self):
        f = np.asarray(self.forcing, dtype=float)
        if f.ndim != 2 or f.shape[1] != self.grid.n_nodes or f.shape[0] < 2:
            raise ConfigurationError("forcing must be (N+1, n_nodes), N >= 1")
        if not np.all(np.isfinite(f)):
            raise ConfigurationError("forcing must be finite")
        object.__setattr__(self, "forcing", f)
        u0 = np.asarray(self.initial, dtype=float).ravel()
        if u0.size != self.grid.n_nodes:
            raise ConfigurationError("initial state size mismatch")
        object.__setattr__(self, "initial", u0)
        if self.a < 0:
            raise ConfigurationError("coupling a must be nonnegative")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ConfigurationError("horizon T must be positive")
        if not (0 < self.epsilon < self.T):
            raise ConfigurationError("eps must lie in (0, T)")
        c = np.asarray(self.phi_coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ConfigurationError("phi_coeffs must be a 1D coefficient list")
        object.__setattr__(self, "phi_coeffs", tuple(float(x) for x in c))
        # convexity probe on a generous sample range
        r = 10.0 * (1.0 + np.max(np.abs(u0)) + np.max(np.abs(f)))
        s = np.linspace(-r, r, 257)
        if np.min(self._phi_d2(s)) < -1e-12:
            raise ConfigurationError("node potential is not convex on samples")

    @property
    def steps(self) -> int:
        return self.forcing.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def _phi_d2(self, s: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(
            s, np.polynomial.polynomial.polyder(self.phi_coeffs, 2)) \
            if len(self.phi_coeffs) > 2 else np.zeros_like(s)

    def phi_tilde(self, s: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(s, self.phi_coeffs)

    def phi_tilde_d1(self, s: np.ndarray) -> np.ndarray:
        if len(self.phi_coeffs) < 2:
            return np.zeros_like(s)
        return np.polynomial.polynomial.polyval(
            s, np.polynomial.polynomial.polyder(self.phi_coeffs, 1))


@dataclass(frozen=True)
class RITrajectory:
    grid: Grid
    T: float
    values: np.ndarray      # (N+1, n_nodes)
    pinned_initial: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.n_nodes:
            raise ConfigurationError("trajectory shape must be (N+1, n_nodes)")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("trajectory values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        pin = np.asarray(self.pinned_initial, dtype=float).ravel()
        if not np.array_equal(vals[0], pin):
            raise ConfigurationError("knot 0 must equal the pinned state")
        object.__setattr__(self, "pinned_initial", pin)

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def jump_magnitudes(self) -> np.ndarray:
        """psi(u_n - u_{n-1}) per knot; knot 0 carries no jump."""
        hd = self.grid.cell_measure
        jm = np.zeros(self.steps + 1)
        jm[1:] = np.sum(np.abs(np.diff(self.values, axis=0)), axis=1) * hd
        return jm

    def variation(self) -> float:
        return float(np.sum(self.jump_magnitudes()))

    def to_csv(self) -> str:
        jm = self.jump_magnitudes()
        lines = ["t,node_index,value,jump_magnitude"]
        for n, t in enumerate(self.times):
            for i in range(self.grid.n_nodes):
                lines.append(f"{repr(float(t))},{i},"
                             f"{repr(float(self.values[n, i]))},"
                             f"{repr(float(jm[n]))}")
        return "\n".join(lines) + "\n"


def psi_value(grid: Grid, v: np.ndarray) -> float:
    """The 1-homogeneous dissipation Sum |v_i| h^d."""
    return float(np.sum(np.abs(v)) * grid.cell_measure)


# ---------------------------------------------------------------------------
# Energy phi(t, u) and the weighted functional
# ---------------------------------------------------------------------------

def _laplacian(problem: RIProblem) -> Optional[sp.spmatrix]:
    return graph_laplacian(problem.grid, problem.a)


def ri_energy(problem: RIProblem, u: np.ndarray, n_slice: int,
              lap: Optional[sp.spmatrix] = None) -> float:
    """phi(t_n, u) = Sum phi~(u_i) h^d + (a/2)|grad u|^2 - <h_n, u> h^d."""
    hd = problem.grid.cell_measure
    val = float(np.sum(problem.phi_tilde(u))) * hd
    if lap is None:
        lap = _laplacian(problem)
    if lap is not None:
        val += 0.5 * float(u @ (lap @ u))
    val -= hd * float(problem.forcing[n_slice] @ u)
    return val


_UNSET = object()


def ri_energy_grad(problem: RIProblem, u: np.ndarray, n_slice: int,
                   lap=_UNSET) -> np.ndarray:
    hd = problem.grid.cell_measure
    g = problem.phi_tilde_d1(u) * hd
    if lap is _UNSET:
        lap = _laplacian(problem)
    if lap is not None:
        g = g + lap @ u
    return g - hd * problem.forcing[n_slice]


def _ri_weights(eps: float, T: float, N: int,
                convention: str = "cadlag"):
    """(jump weights, potential weights, terminal weight) per step.

    cadlag: the jump into u_n pays at t_{n-1}; the potential integral over
    the following interval is exact. right_knot: both pay at t_n with a
    flat dt quadrature (kept for step-refinement comparisons only)."""
    t = np.linspace(0.0, T, N + 1)
    beta = np.exp(-t / eps)
    if convention == "cadlag":
        jw = eps * beta[:-1]
        pw = eps * (beta[:-1] - beta[1:])
    elif convention == "right_knot":
        jw = eps * beta[1:]
        pw = beta[1:] * (T / N)
    else:
        raise ConfigurationError(f"unknown weight convention {convention!r}")
    return jw, pw, beta[-1]


def wed_ri_value(problem: RIProblem, traj: RITrajectory,
                 convention: str = "cadlag") -> float:
    """Terminal energy + weighted variation + weighted energy integral."""
    N = traj.steps
    if N != problem.steps:
        raise ConfigurationError("trajectory and forcing disagree on N")
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N, convention)
    lap = _laplacian(problem)
    U = traj.values
    value = tw * ri_energy(problem, U[N], N, lap)
    for n in range(1, N + 1):
        value += jw[n - 1] * psi_value(problem.grid, U[n] - U[n - 1])
        value += pw[n - 1] * ri_energy(problem, U[n], n, lap)
    return value


# ---------------------------------------------------------------------------
# Minimization (smoothed variation + damped Newton per stage)
# ---------------------------------------------------------------------------

def _sigma(v: np.ndarray, delta: float) -> np.ndarray:
    return v / np.sqrt(v * v + delta * delta)


def _rho(v: np.ndarray, delta: float) -> np.ndarray:
    return delta * delta / (v * v + delta * delta) ** 1.5


def minimize_wed_ri(problem: RIProblem,
                    init: Optional[RITrajectory] = None,
                    deltas: Sequence[float] = DELTA_SCHEDULE,
                    tol: float = 1e-9,
                    max_iter: int = 200) -> tuple:
    """Smoothing continuation over the variation term. Returns the
    trajectory and a MinimizeReport whose gradient norm is the row-scaled
    stationarity residual at the final smoothing stage."""
    N = problem.steps
    nn = problem.grid.n_nodes
    hd = problem.grid.cell_measure
    u0 = problem.initial
    if init is None:
        X = np.tile(u0, (N, 1)).ravel()
    else:
        if init.steps != N:
            raise ConfigurationError("init has the wrong number of knots")
        X = init.values[1:].ravel()
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    lap = _laplacian(problem)
    scale = np.repeat(jw * max(hd, 1e-300), nn)

    def unknowns_to_full(x: np.ndarray) -> np.ndarray:
        return np.vstack([u0[None, :], x.reshape(N, nn)])

    # pw with the terminal weight folded into the last knot
    pwt = pw.copy()
    pwt[-1] += tw

    def _energy_grads(U: np.ndarray) -> np.ndarray:
        """Rows n=1..N of the state-energy gradient, all knots at once."""
        tail = U[1:]
        g = problem.phi_tilde_d1(tail) * hd - hd * problem.forcing[1:]
        if lap is not None:
            g = g + (lap @ tail.T).T
        return g

    def grad_fn(x: np.ndarray, delta: float) -> np.ndarray:
        U = unknowns_to_full(x)
        jumps = np.diff(U, axis=0)
        sig = _sigma(jumps, delta)
        g = pwt[:, None] * _energy_grads(U)
        g += jw[:, None] * sig * hd
        g[:-1] -= jw[1:, None] * sig[1:] * hd
        return g.ravel()

    def hess_fn(x: np.ndarray, delta: float) -> sp.spmatrix:
        U = unknowns_to_full(x)
        jumps = np.diff(U, axis=0)
        r = jw[:, None] * _rho(jumps, delta) * hd
        main = pwt[:, None] * problem._phi_d2(U[1:]) * hd + r
        main[:-1] += r[1:]
        bands = [main.ravel()]
        offsets = [0]
        if N > 1:
            off = -r[1:].ravel()
            bands += [off, off]
            offsets += [-nn, nn]
        H = sp.diags(bands, offsets, shape=(N * nn, N * nn), format="csc")
        if lap is not None:
            H = H + sp.kron(sp.diags(pwt), lap, format="csc")
        return H

    total_iters = 0
    res = np.inf
    converged = True
    for delta in deltas:
        X, res, iters, ok = newton_solve(
            X, lambda x: grad_fn(x, delta), lambda x: hess_fn(x, delta),
            scale, tol=tol, max_iter=max_iter)
        total_iters += iters
        converged = converged and ok
    traj = RITrajectory(problem.grid, problem.T, unknowns_to_full(X),
                        pinned_initial=u0)
    value = wed_ri_value(problem, traj)
    report = MinimizeReport(iterations=total_iters, value=value,
                            gradient_norm=res, converged=converged)
    return traj, report


def sign_condition(problem: RIProblem, traj: RITrajectory) -> dict:
    """Backward-substituted subgradient certificate.

    Solves the per-knot stationarity system for the multiplier sigma_n in
    the variation subdifferential and reports the worst violation of the
    two membership conditions: |sigma| <= 1 everywhere, and the
    complementarity |jump| (1 - sigma sign(jump)) = 0 (sigma must sit at
    the matching endpoint wherever the node actually moves). The second
    quantity is jump-weighted, so vanishing jumps cannot trip it."""
    N = traj.steps
    nn = problem.grid.n_nodes
    hd = problem.grid.cell_measure
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    lap = _laplacian(problem)
    U = traj.values
    jumps = np.diff(U, axis=0)
    sigma = np.zeros((N, nn))
    rest = 0.0
    comp = 0.0
    for n in range(N, 0, -1):
        rhs = pw[n - 1] * ri_energy_grad(problem, U[n], n, lap)
        if n == N:
            rhs = rhs + tw * ri_energy_grad(problem, U[N], N, lap)
        else:
            rhs = rhs - jw[n] * sigma[n] * hd
        sigma[n - 1] = -rhs / (jw[n - 1] * hd)
        j = jumps[n - 1]
        rest = max(rest, float(np.max(np.abs(sigma[n - 1])) - 1.0))
        comp = max(comp, float(np.max(
            np.abs(j) * (1.0 - sigma[n - 1] * np.sign(j)))))
    worst = max(max(rest, 0.0), comp)
    return {"worst_violation": worst, "rest_excess": max(rest, 0.0),
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

    def to_json(self) -> str:
        return json.dumps({
            "stability": repr(float(self.stability)),
            "balance": repr(float(self.balance)),
            "stability_left": repr(float(self.stability_left)),
            "probes": self.probes,
        }, indent=2, sort_keys=True)


def energetic_residuals(traj: RITrajectory, problem: RIProblem,
                        probe_count: int = 30) -> EnergeticReport:
    """Global stability against single-node probes and the energy balance
    with the time-dependent work term.

    Stability probes each knot state against w = u + s e_i over a log
    range of both signs: violation (phi(u) - phi(w) - psi(w-u))^+. The
    knot energy uses the forcing at the knot's own time (the state right
    after the jump); the variant pairing the pre-jump forcing is reported
    alongside. The balance accumulates the variation plus the trapezoid
    work increment <h_n - h_{n-1}, (u_n + u_{n-1})/2> h^d, which is exact
    for step interpolants resting or sliding at unit rate."""
    N = traj.steps
    nn = problem.grid.n_nodes
    hd = problem.grid.cell_measure
    lap = _laplacian(problem)
    U = traj.values
    svals = np.concatenate([-np.logspace(-3, 1, probe_count),
                            np.logspace(-3, 1, probe_count)])

    def stab(shift_left: bool) -> float:
        worst = 0.0
        for n in range(N + 1):
            m = max(n - 1, 0) if shift_left else n
            base = ri_energy(problem, U[n], m, lap)
            for i in range(nn):
                for s in svals:
                    w = U[n].copy()
                    w[i] += s
                    viol = base - ri_energy(problem, w, m, lap) \
                        - abs(s) * hd
                    worst = max(worst, viol)
        return worst

    jm = traj.jump_magnitudes()
    balance = np.zeros(N + 1)
    acc_var = 0.0
    acc_work = 0.0
    e0 = ri_energy(problem, U[0], 0, lap)
    for n in range(N + 1):
        if n > 0:
            acc_var += jm[n]
            dh = problem.forcing[n] - problem.forcing[n - 1]
            acc_work += hd * float(dh @ (0.5 * (U[n] + U[n - 1])))
        balance[n] = ri_energy(problem, U[n], n, lap) + acc_var \
            - e0 + acc_work
    return EnergeticReport(stability=float(stab(False)),
                           balance=float(np.max(np.abs(balance))),
                           stability_left=float(stab(True)),
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
                          schedule: Optional[Sequence[float]] = None
                          ) -> OrderedRIPair:
    """Minimize from both ordered states, swap for the componentwise
    lattice pair at each weight level, warm-start the next level."""
    u0 = np.asarray(u0, dtype=float).ravel()
    v0 = np.asarray(v0, dtype=float).ravel()
    if np.any(u0 > v0):
        raise ConfigurationError("initial states are not ordered (u0 <= v0)")
    if schedule is None:
        schedule = (problem.epsilon,)

    def level(eps, warm):
        warm_u, warm_v = warm or (None, None)
        pu = replace(problem, epsilon=eps, initial=u0)
        pv = replace(problem, epsilon=eps, initial=v0)
        tu, rep_u = minimize_wed_ri(pu, init=warm_u)
        tv, rep_v = minimize_wed_ri(pv, init=warm_v)
        meet = RITrajectory(problem.grid, problem.T,
                            np.minimum(tu.values, tv.values),
                            pinned_initial=u0)
        join = RITrajectory(problem.grid, problem.T,
                            np.maximum(tu.values, tv.values),
                            pinned_initial=v0)
        iu, iv = rep_u.value, rep_v.value
        im = wed_ri_value(pu, meet)
        ij = wed_ri_value(pv, join)
        audit = {"epsilon": eps, "value_u": iu, "value_v": iv,
                 "value_meet": im, "value_join": ij,
                 "meet_excess": im - iu, "join_excess": ij - iv}
        return (meet, join), PairReport(
            audit, rep_u.converged and rep_v.converged)

    levels = continuation(level, schedule, problem.T)
    tu, tv = levels[-1][1]
    return OrderedRIPair(u=tu, v=tv,
                         audits=[rep.audit for *_, rep in levels],
                         ordering_margin=float(np.min(tv.values - tu.values)),
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
