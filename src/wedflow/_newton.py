"""Damped Newton iteration and the front end the trajectory solvers share.

The objective values here span many orders of magnitude across the time
horizon (the weight decays like e^{-t/eps}), so line searches on the raw
objective are numerically blind to improvements in the tail. The
globalization below backtracks on the ROW-SCALED residual max-norm
instead: each gradient row is divided by its weight scale, making the
acceptance test scale-free. Termination uses the same scaled norm.

Front end. Every lane minimizes over whole trajectories U ((N+1, n_dof))
whose first k rows are pinned (k = 2 in the inertial lane, else 1).
`pinned_solve` holds the shared plumbing (unknown knots, start, row scale,
`with_pins`) and takes the solver as an argument, so each lane's calls go
through its own module binding of `newton_solve`. `time_divergence` and
`time_band` are the backward-difference time coupling of the first-order
lanes, and `FastDiagonalization` is the Hessian of that coupling plus a
constant Kronecker-sum energy Hessian, solved without a factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grids import ConfigurationError


def newton_solve(x0: np.ndarray, grad_fn, hess_fn, scale: np.ndarray,
                 tol: float = 1e-10, max_iter: int = 100,
                 min_step: float = 1e-12, symmetric: bool = False):
    """Minimize a smooth convex objective given by its gradient and Hessian
    callbacks. Returns (x, scaled_residual, iterations, converged).

    grad_fn(x) -> flat gradient; hess_fn(x) -> sparse SPD(ish) Hessian
    or a FastDiagonalization; scale -> positive per-row weights for the
    residual norm. A Levenberg shift mu, raised only when a solve fails
    or is not finite, is added to the Hessian's diagonal.

    The linear solver follows from the Hessian. A FastDiagonalization
    (what `minimize_wed` passes on 2D grids with p = 2 and a
    state-independent, Kronecker-sum energy Hessian) solves without
    assembling or factoring anything. Every other Hessian is factored by
    `splu`. symmetric=True factors it as a symmetric matrix: a minimum
    degree ordering of A^T + A, diagonal pivots only, SuperLU's symmetric
    mode. `minimize_wed` asks for it on grids of dimension >= 2, whose
    space-time Hessians are SPD and whose factorization dominates the
    solve: on a 32x32 grid with N=16 the fill drops from 94x to 41x and
    the factor time by about 3.6x. The other solves (1D and point grids,
    `rateind`, `wide`) keep SuperLU's defaults (COLAMD, partial
    pivoting): their outputs sit at the round-off floor, where another
    solver moves them by more than the 1e-12 refactor oracle. The `wide`
    Hessians are badly conditioned (5e15 at the first level of
    `wide_oscillator`), and the `wave_pulse` trajectory moved by 2.8e-10;
    in 1D and `rateind` solves a point-grid Euler-Lagrange residual moved
    by 3.6e-12 under the symmetric factorization. 1D grids stay off the
    fast diagonalization for the same reason: on one input variant of the
    benchmark ladder's 512-node heat problem it moved the Euler-Lagrange
    interior residual from 1.1225e-10 to 1.1372e-10.
    """
    lu_options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True)) if symmetric else {}
    x = x0.copy()
    g = grad_fn(x)
    res = float(np.max(np.abs(g / scale)))
    it = 0
    mu = 0.0  # Levenberg shift, raised only on factorization trouble
    while it < max_iter and res > tol:
        H = hess_fn(x)
        step = None
        for _ in range(8):
            try:
                step = _shifted_solve(H, mu, -g, lu_options)
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
            gnew = grad_fn(x + a * step)
            rnew = float(np.max(np.abs(gnew / scale)))
            if rnew <= (1.0 - 1e-4 * a) * res:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            # take the smallest damped step anyway; progress may be below
            # the acceptance threshold but the iteration must not cycle.
            # A NaN residual is no progress either.
            a = min_step
            gnew = grad_fn(x + a * step)
            rnew = float(np.max(np.abs(gnew / scale)))
            if not rnew < res:
                break
        x = x + a * step
        g = gnew
        res = rnew
        it += 1
        if accepted and a == 1.0 and mu > 0.0:
            mu = 0.0
    return x, res, it, res <= tol


def _shifted_solve(H, mu: float, rhs: np.ndarray, lu_options: dict):
    """(H + mu I)^{-1} rhs: fast diagonalization for a FastDiagonalization,
    else a sparse LU with the given SuperLU options."""
    if isinstance(H, FastDiagonalization):
        return H.solve(rhs, mu)
    Hmu = H if mu == 0.0 else H + mu * sp.identity(H.shape[0], format="csr")
    return splu(Hmu.tocsc(), **lu_options).solve(rhs)


class FastDiagonalization:
    """The SPD space-time Hessian kron(diag(b), K) + kron(T, I) over knots
    1..N of a first-order lane with a state-independent energy Hessian K
    and rate curvature r (one per knot, the same at every node); T is the
    tridiagonal of time_band(r). With K = Q diag(lam) Q^T and Q the
    Kronecker product of per-axis orthogonal matrices (energies.
    energy1_modes), a solve is a transform of the right-hand side into
    the eigenbasis, one N x N tridiagonal solve b lam_j + T per mode j,
    and the transform back: the space-time fast diagonalization of Lynch,
    Rice & Thomas 1964 in the form of Maday & Ronquist 2008. Nothing of
    size (N n)^2 is ever formed."""

    def __init__(self, b: np.ndarray, r: np.ndarray, modes: tuple):
        self.b = b
        self.axes, self.lam, self.kdiag = modes
        self.tdiag = r.copy()
        self.tdiag[:-1] += r[1:]
        self.toff = -r[1:]

    def diagonal(self) -> np.ndarray:
        return (self.b[:, None] * self.kdiag.ravel()
                + self.tdiag[:, None]).ravel()

    def _transform(self, X: np.ndarray, inverse: bool) -> np.ndarray:
        """Q^T (or Q, if inverse) applied to every knot's state of the
        (N, *grid shape) array X, one axis at a time."""
        for a, Q in enumerate(self.axes, start=1):
            X = np.swapaxes(np.swapaxes(X, a, -1) @ (Q.T if inverse else Q),
                            a, -1)
        return X

    def solve(self, rhs: np.ndarray, mu: float = 0.0) -> np.ndarray:
        """(H + mu I)^{-1} rhs for the flat knot-major rhs: a batched
        Thomas sweep over the modes, stable without pivoting because each
        mode's matrix is diagonally dominant."""
        N = self.b.size
        Y = self._transform(rhs.reshape(N, *self.lam.shape), False)
        Y = Y.reshape(N, -1).copy()
        diag = self.b[:, None] * self.lam.ravel() + self.tdiag[:, None] + mu
        upper = np.empty_like(Y)  # the eliminated superdiagonal / pivot
        pivot = diag[0]
        for n in range(1, N):
            upper[n - 1] = self.toff[n - 1] / pivot
            Y[n - 1] /= pivot
            pivot = diag[n] - self.toff[n - 1] * upper[n - 1]
            Y[n] -= self.toff[n - 1] * Y[n - 1]
        Y[N - 1] /= pivot
        for n in range(N - 2, -1, -1):
            Y[n] -= upper[n] * Y[n + 1]
        return self._transform(Y.reshape(N, *self.lam.shape), True).ravel()


def pinned_solve(solver, pinned: np.ndarray, N: int, start, grad, hess,
                 knot_scale: np.ndarray, **options):
    """Minimize over the trajectories U ((N+1, n_dof)) whose first rows
    are `pinned` ((k, n_dof)); options go to `solver`. start is None (each
    unknown knot starts at the last pinned row) or an (N+1, n_dof) array.
    grad(U) is the whole-trajectory gradient, hess(U) the Hessian over the
    knots k..N. Returns (U, scaled_residual, iterations, converged)."""
    k, n_dof = pinned.shape
    if start is None:
        x0 = np.tile(pinned[-1], (N + 1 - k, 1)).ravel()
    elif start.shape[0] != N + 1:
        raise ConfigurationError("init has the wrong number of knots")
    else:
        x0 = start[k:].ravel()

    x, res, iters, conv = solver(
        x0, lambda x: grad(with_pins(pinned, x))[k:].ravel(),
        lambda x: hess(with_pins(pinned, x)), np.repeat(knot_scale, n_dof),
        **options)
    return with_pins(pinned, x), res, iters, conv


def with_pins(pinned: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The trajectory whose rows are `pinned`, then the flat unknowns x."""
    return np.vstack([pinned, x.reshape(-1, pinned.shape[1])])


def time_divergence(g: np.ndarray, flux: np.ndarray) -> None:
    """Knot n of g ((N, n_dof), knots 1..N) gains flux_n - flux_{n+1},
    flux_n being the rate term's derivative in u_n - u_{n-1}."""
    g += flux
    g[:-1] -= flux[1:]


def time_band(r: np.ndarray, main=0.0) -> sp.dia_matrix:
    """DIA Hessian over knots 1..N of a rate term with curvature r
    ((N, n_dof)) in u_n - u_{n-1}, added to the diagonal `main`."""
    n_dof = r.shape[1]
    diag = main + r
    diag[:-1] += r[1:]
    off = -r[1:].ravel()
    return sp.diags([diag.ravel(), off, off], [0, -n_dof, n_dof],
                    shape=(r.size, r.size))
