"""Damped Newton iteration and the front end the trajectory solvers share.

The objective values here span many orders of magnitude across the time
horizon (the weight decays like e^{-t/eps}), so line searches on the raw
objective are numerically blind to improvements in the tail. The
globalization below backtracks on the ROW-SCALED residual max-norm
instead: each gradient row is divided by its weight scale, making the
acceptance test scale-free. Termination uses the same scaled norm.

Stacked sweeps. The gradient callback maps a stack of points ((k, m),
one per row) to their gradients. A backtracking sweep evaluates the full
step as one row and, after a rejection, its next trials a/2, a/4, ... a
few rows to a call (see newton_solve). Every gradient kernel acts row for
row and the max-norm is exact, so each row carries the bits a call of its
own would, and the accepted step, residual and iterate are those of the
one-trial-at-a-time sweep. A sweep ends at its first trial point bitwise
equal to the iterate, which cannot pass (see _backtrack).

Hessians. newton_solve asks a Hessian for two things: `solve(rhs, mu)`,
(H + mu I)^{-1} rhs, raising RuntimeError on an exactly singular system,
and `diagonal()`. Three classes provide them. `SparseHessian` is a sparse
matrix factored by `splu`: the CSC space-time Hessian of
`energies.energy1_hessian` for the parabolic lane, `time_band` plus the
coupling Laplacian for the coupled rate-independent lane, and the banded
Hessian of the inertial lane. `KnotTridiagonal` is one tridiagonal per dof
column solved by LAPACK, for lanes that do not couple dofs in space (the
uncoupled rate-independent lane). `FastDiagonalization` is the time
coupling plus a constant Kronecker-sum energy Hessian on a 1D or 2D grid,
whose per-mode tridiagonals are one `KnotTridiagonal`.

Front end. Every lane minimizes over whole trajectories U ((N+1, n_dof))
whose first k rows are pinned (k = 2 in the inertial lane, else 1).
`pinned_solve` holds the shared plumbing (unknown knots, start, row scale)
and takes the solver as an argument, so each lane's calls go through its
own module binding of `newton_solve`. A lane's callbacks see and return
only the unknown knots k..N; a lane that needs the whole trajectory builds
it with `with_pins`. `time_divergence`, `band_diagonals` and `time_band`
are the backward-difference time coupling of the first-order lanes.

Extended-precision polish. Where the float64 iteration stalls above its
tolerance (the _MIN_STEP fallback makes no progress), `_polish` refines
the stalled iterate with the gradient in np.longdouble and the float64
Hessian solve, so a minimizer whose float64 gradient cannot be evaluated
below the tolerance is still certified (Moler 1967). A solve that
converges in float64 never enters it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu

from .grids import ConfigurationError


def newton_solve(x0: np.ndarray, grad_fn, hess_fn, scale: np.ndarray,
                 tol: float = 1e-10, max_iter: int = 100,
                 notes: list | None = None):
    """Minimize a smooth convex objective given by its gradient and Hessian
    callbacks. Returns (x, scaled_residual, iterations, converged).

    grad_fn(X) -> the gradient at each row of the stack X ((k, m)), as a
    (k, m) stack; hess_fn(x) -> the Hessian at the flat x, a
    SparseHessian, KnotTridiagonal or FastDiagonalization (see the module
    docstring); scale -> positive per-row weights for the residual norm.
    A Levenberg shift mu, raised only when a solve fails or is not finite,
    is added to the Hessian's diagonal. notes, if given, is a list to
    which a polished solve (see below) appends
    "longdouble_polish_steps=<k>"; nothing else is appended.

    The line search backtracks a = 1, 1/2, 1/4, ... down to _MIN_STEP and
    takes the first step whose scaled residual falls below
    (1 - 1e-4 a) times the current one. The full step is one gradient
    row, so an iteration that accepts it makes one one-row call. After a
    rejection the next trials go max(1, B // m) rows to a call, for the
    element budget B = _SWEEP_ELEMENTS. The budget bounds the extra memory
    of a call and the trials evaluated past the accepted one; a problem of
    more than B / 2 unknowns keeps one row per call, and so the gradient
    calls of the one-trial-at-a-time sweep. The result is bitwise that
    sweep's: each trial point is x + a step, row for row; every gradient
    kernel is elementwise along the trajectory or sums each entry over the
    same terms in the same order whatever the number of rows; the max-norm
    of a row is exact; and the rows are tested in order, so the first to
    pass is the step the sweep accepts. A trial point bitwise equal to x,
    a step below the iterate's ulp, has the residual res, which fails the
    test: the sweep ends there (see _backtrack), and the _MIN_STEP
    fallback counts it as no progress without evaluating it.

    Where even the _MIN_STEP step makes no progress, the float64
    iteration has stalled, and the iterate goes to _polish: the gradient
    is taken in np.longdouble, the step is the float64 solve with the
    stalled step's Hessian and shift (a SparseHessian holds the
    factorization of that shift, so nothing is factored again), and the
    iterate stays in np.longdouble for at most _POLISH_STEPS steps. If its
    scaled residual in extended precision reaches tol, the solve returns
    the float64 rounding of that iterate and that residual, converged, and
    notes the polish; otherwise the stall is returned as before,
    unconverged. The float64 floor is the rounding of the gradient, not of
    the iterate: the benchmark's 512-node, N = 64 heat problem stalls at
    1.12e-10 against tol 1e-10, and 1-ulp perturbations of its iterate
    give 6.7-7.5e-10 in float64, while one polish step reaches 5.5e-14 at
    each of its three weight levels. A point-grid scalar decay with
    N = 4000 at eps = 0.2 (a floor growing like (eps/dt)^2) converges the
    same way. Where np.longdouble is no wider than float64
    (eps >= 1e-18), the polish is skipped and the flag stands.

    Each Newton step asks hess_fn for its Hessian once and solves with it
    once per Levenberg try. The step's Hessian, with any LUs it holds, is
    dropped when the next step's replaces it, before that one is solved
    with; a Hessian that the caller holds across steps and calls (see
    wed._constant_hessian) keeps the factorization of its last mu (see
    SparseHessian).
    """
    x = x0.copy()
    g = grad_fn(x[None])[0]
    res = float(np.max(np.abs(g / scale)))
    it = 0
    mu = 0.0  # Levenberg shift, raised only on factorization trouble
    # the sweep's steps 1, 1/2, 1/4, ... down to _MIN_STEP, their sufficient
    # decrease factors, and the trial rows per call after the full step
    trials = []
    a = 1.0
    while a >= _MIN_STEP:
        trials.append(a)
        a *= 0.5
    trials = np.array(trials)
    sweep = (trials, 1.0 - 1e-4 * trials, max(1, _SWEEP_ELEMENTS // x.size))
    while it < max_iter and res > tol:
        H = hess_fn(x)
        step = None
        for _ in range(8):
            try:
                step = H.solve(-g, mu)
                if np.isfinite(step).all():
                    break
            except RuntimeError:
                pass
            mu = max(mu * 10.0, 1e-14 * float(np.max(np.abs(H.diagonal()))),
                     1e-300)
            step = None
        if step is None:
            break
        a, xnew, gnew, rnew = _backtrack(grad_fn, x, step, scale, res, sweep)
        accepted = a is not None
        if not accepted:
            # take the smallest damped step anyway; progress may be below
            # the acceptance threshold but the iteration must not cycle.
            # A NaN residual, or a step that leaves x as it is, is no
            # progress either.
            a = _MIN_STEP
            xnew = x + a * step
            rnew = res
            if xnew.tobytes() != x.tobytes():
                gnew = grad_fn(xnew[None])[0]
                rnew = float(np.max(np.abs(gnew / scale)))
            if not rnew < res:
                polished = _polish(grad_fn, lambda rhs: H.solve(rhs, mu), x,
                                   scale, tol)
                if polished is not None:
                    x, res, steps = polished
                    if notes is not None:
                        notes.append(f"longdouble_polish_steps={steps}")
                break
        x = xnew
        g = gnew
        res = rnew
        it += 1
        if accepted and a == 1.0 and mu > 0.0:
            mu = 0.0
    return x, res, it, res <= tol


def _polish(grad_fn, solve, x: np.ndarray, scale: np.ndarray,
            tol: float):
    """Newton refinement of a stalled float64 iterate x with the gradient
    in extended precision (Moler 1967): X <- X + solve(-g(X)), X and g(X)
    in np.longdouble, and solve the float64 solve of the stalled step's
    Hessian and shift. At most _POLISH_STEPS steps; it stops at
    the first that does not lower the extended residual. Returns (the
    float64 rounding of X, X's scaled residual in extended precision,
    steps taken) once that residual is at most tol; None if it never is,
    or if np.longdouble is no wider than float64 (not _EXTENDED), where
    the float64 stall stands. grad_fn is the lane's Newton gradient, which
    reads no functional value: the closures of wed.minimize_wed and
    wide.minimize_wide call their kernels with value=False, so the
    extended-precision gradient computes none of the value's terms."""
    if not _EXTENDED:
        return None
    X = x.astype(np.longdouble)
    G = grad_fn(X[None])[0]
    res = float(np.max(np.abs(G / scale)))
    steps = 0
    while res > tol:
        if steps == _POLISH_STEPS:
            return None
        trial = X + solve(-G.astype(float))
        G_trial = grad_fn(trial[None])[0]
        r_trial = float(np.max(np.abs(G_trial / scale)))
        if not r_trial < res:
            return None
        X, G, res, steps = trial, G_trial, r_trial, steps + 1
    return X.astype(float), res, steps


# The most extended-precision steps of one polish (see _polish).
_POLISH_STEPS = 3

# Whether np.longdouble is wider than float64: eps 1.1e-19 for the x87
# 80-bit format, 1.9e-34 for IEEE quad. Where it is float64 itself (eps
# 2.2e-16, as on arm64 macOS or Windows), there is no polish (eps >= 1e-18).
_EXTENDED = bool(np.finfo(np.longdouble).eps < 1e-18)

# The element budget of one stacked gradient call of a backtracking sweep:
# rows of trial points times unknowns. It bounds the sweep's extra memory
# and the trials evaluated past the accepted one; 2,000 elements give 10
# rows at 200 unknowns, and a problem of more than 1,000 unknowns keeps
# one row per call.
_SWEEP_ELEMENTS = 2000

# The smallest backtracking step, taken anyway when no step of the sweep
# passes the sufficient decrease test.
_MIN_STEP = 1e-12


def _backtrack(grad_fn, x: np.ndarray, step: np.ndarray, scale: np.ndarray,
               res: float, sweep: tuple) -> tuple:
    """The first of the sweep's steps a whose scaled residual at x + a step
    passes the sufficient decrease test, as (a, x + a step, its gradient,
    its scaled residual); (None, ...) if none does. res is the scaled
    residual at x. sweep holds the steps a, their factors 1 - 1e-4 a and
    the rows per call after the first: the full step is one gradient row,
    and the later trials go that many rows to a call.

    The sweep ends at its first trial point bitwise equal to x (a step
    below the iterate's ulp), which is not evaluated: its residual is res,
    which fails the test for any finite res. Rounding is monotone, so an
    entry x_i + a step_i that rounds to x_i for some a does so for every
    smaller a, and every later trial is x again. The test compares bytes,
    so a trial that turns -0.0 into +0.0 is evaluated. Such a point is
    looked for only in a call whose last row is x."""
    trials, factors, batch = sweep
    xbits = x.tobytes()
    lo, rows = 0, 1
    while lo < trials.size:
        A = trials[lo:lo + rows]
        X = x + A[:, None] * step
        end = len(X)
        if X[-1].tobytes() == xbits:
            end = [row.tobytes() for row in X].index(xbits)
        if end:
            G = grad_fn(X[:end])
            R = np.abs(G / scale).max(axis=1)
            passed = R <= factors[lo:lo + end] * res
            j = passed.argmax()
            if passed[j]:
                return float(A[j]), X[j], G[j], float(R[j])
        if end < len(X):
            break
        lo, rows = lo + rows, batch
    return None, None, None, None


def _factor(H, mu: float, symmetric: bool):
    """Factor the sparse matrix H + mu I once and return its solve,
    rhs -> (H + mu I)^{-1} rhs, by `splu`: with SuperLU's symmetric mode
    if symmetric, else its defaults (see SparseHessian).

    On the symmetric path each connected component of H + mu I is a block
    of its own, factored by its own splu; elsewhere the one block is all of
    H + mu I, and a connected matrix makes the one splu call it always
    made. A Hessian splits where its couplings vanish, as the degenerate
    m-Laplacian's edges with zero gradient do, and a single minimum degree
    ordering over all components would give identical components
    different eliminations. Apart, identical components (same values in
    the same local order) give bitwise identical pieces of the step, so
    data invariant along an axis keeps every Newton iterate invariant;
    the factorizations are also smaller. Identical blocks share one LU:
    a block whose column pointers, row indices and bytes of values are
    those of an earlier block of the matrix is solved with that block's
    LU, which gives bitwise the step that its own splu would (gstrf is
    deterministic on equal input, and a solve does not change the
    factor). The default-option solves are not split: their small 1D
    Hessians would break into many tiny pieces, and their outputs sit at
    the round-off floor (see SparseHessian). Each block's piece of the
    right-hand side gets its own one-column solve; a stacked multi-column
    solve could round differently."""
    options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True)) if symmetric else {}
    A = H if mu == 0.0 else H + mu * sp.identity(H.shape[0], format="csr")
    A = A.tocsc()
    n = A.shape[0]
    order, rows, bounds = np.arange(n), A.indices, [0, n]
    if symmetric:
        # imported here, so that importing the package does not load it
        from scipy.sparse.csgraph import connected_components
        # components are those of the undirected graph, so the CSR view
        # of the transpose serves without a conversion
        count, labels = connected_components(A.T, directed=False)
        if count > 1:
            # renumber the unknowns once so that each component is a
            # contiguous range, keeping the original order inside it; the
            # matrix is then block diagonal, and each block is a slice of
            # its columns
            order = np.argsort(labels, kind="stable")
            new = np.empty(n, A.indices.dtype)
            new[order] = np.arange(n)
            A = A[:, order]
            rows = new[A.indices]
            bounds = [0] + np.cumsum(np.bincount(labels)).tolist()
    lus, blocks = {}, []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        start, end = A.indptr[lo], A.indptr[hi]
        ptr, local = A.indptr[lo:hi + 1] - start, rows[start:end] - lo
        data = A.data[start:end]
        key = (ptr.tobytes(), local.tobytes(), data.tobytes())
        if key not in lus:
            lus[key] = splu(sp.csc_matrix((data, local, ptr),
                                          shape=(hi - lo, hi - lo)),
                            **options)
        blocks.append((lo, hi, lus[key]))

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = rhs[order]
        for lo, hi, lu in blocks:
            y[lo:hi] = lu.solve(y[lo:hi])
        x = np.empty_like(y)
        x[order] = y
        return x
    return solve


class SparseHessian:
    """A sparse Hessian that solves itself: the scipy sparse matrix
    `matrix` and the factorization of the last Levenberg shift mu it was
    solved with. solve(rhs, mu) factors H + mu I by _factor when mu is not
    that of the last solve, and reuses the factorization otherwise: gstrf
    is deterministic and a solve does not change the factor, so a reused
    factorization gives bitwise the step that refactoring would. The old
    LUs go before new ones are made. One made per Newton step is factored
    once per Levenberg try and dies with the step; one that no state
    changes (wed._constant_hessian) is held for a whole weight level and
    factored once for every Newton solve it serves, again only for a new
    mu.

    symmetric=True factors it as a symmetric matrix: a minimum degree
    ordering of A^T + A, diagonal pivots only, SuperLU's symmetric mode,
    one connected component at a time (see _factor). `minimize_wed` asks
    for it on grids of dimension >= 2, whose space-time Hessians are SPD
    and whose factorization dominates the solve: on a 32x32 grid with
    N=16 the fill drops from 94x to 41x and the factor time by about
    3.6x. A degenerate m-Laplacian (m > 2) drops every edge where the
    gradient vanishes, so data constant along one axis splits the Hessian
    into identical chains; factored apart they give bitwise identical
    steps, and every iterate keeps the invariance. One ordering over the
    whole matrix broke it at round-off level, and the ~1e-16 couplings
    that followed grew the fill from 4 to 11-23.

    The other sparse solves (1D and point grids, coupled `rateind` with
    a > 0, `wide`) keep SuperLU's defaults (COLAMD, partial pivoting):
    their outputs sit at the round-off floor, where another solver moves
    them by more than the 1e-12 refactor oracle. The `wide` Hessians are
    badly conditioned (5e15 at the first level of `wide_oscillator`), and
    the `wave_pulse` trajectory moved by 2.8e-10; in 1D and `rateind`
    solves a point-grid Euler-Lagrange residual moved by 3.6e-12 under the
    symmetric factorization. A coupled `rateind` Hessian is block
    tridiagonal (the coupling Laplacian sits in every diagonal block),
    which a KnotTridiagonal cannot hold. Point grids stay off the fast
    diagonalization (energies.energy1_modes) for the round-off reason: on
    benchmark variants 2, 3 and 5 of `scalar_decay` it moved the
    `reports.json` leaf `euler_lagrange/interior_max` by 3.5e-12, over the
    1e-12 oracle. That leaf is the O(1) residual evaluated at the first
    weight level rather than the solved one, so it amplifies the round-off
    of the solve."""

    def __init__(self, matrix, symmetric: bool = False):
        self.matrix = matrix
        self.symmetric = symmetric
        self._mu, self._solve = None, None

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def solve(self, rhs: np.ndarray, mu: float = 0.0) -> np.ndarray:
        """(H + mu I)^{-1} rhs."""
        if mu != self._mu:
            self._mu = self._solve = None  # the old LUs go first
            self._solve = _factor(self.matrix, mu, self.symmetric)
            self._mu = mu
        return self._solve(rhs)


class KnotTridiagonal:
    """A Hessian over knots 1..N whose dof columns couple only in time:
    one tridiagonal per column, with main diagonal diag ((N, n)) and off
    diagonal off ((N-1, n)), as band_diagonals gives them. A solve is one
    LAPACK dgtsv (Gaussian elimination with partial pivoting) on the
    node-major flattening, the columns joined by zero couplings; a system
    of one unknown, whose empty off diagonal the wrapper rejects, is
    b / d. An exactly singular system raises RuntimeError, as splu
    does."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag = diag
        self.off = off

    def diagonal(self) -> np.ndarray:
        return self.diag.ravel()

    def solve(self, rhs: np.ndarray, mu: float = 0.0) -> np.ndarray:
        """(H + mu I)^{-1} rhs for the flat knot-major rhs."""
        N, n = self.diag.shape
        # column j's knots are rows j N .. j N + N - 1, and the coupling
        # after each column's last knot is zero
        d = (self.diag + mu).T.ravel()
        b = rhs.reshape(N, n).T.ravel()
        if d.size == 1:
            if d[0] == 0.0:
                raise RuntimeError("tridiagonal solve failed (dgtsv info 1)")
            return b / d
        if n == 1:
            off = self.off.ravel()
        else:
            off = np.zeros((n, N))
            off[:, :-1] = self.off.T
            off = off.ravel()[:-1]
        return _dgtsv(off, d, b).reshape(n, N).T.ravel()


def _dgtsv(off: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of the symmetric tridiagonal system with main diagonal
    d and off diagonal off, by LAPACK dgtsv; RuntimeError where it is
    exactly singular."""
    *_, x, info = dgtsv(off, d, off, b)
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (dgtsv info {info})")
    return x


class FastDiagonalization:
    """The SPD space-time Hessian kron(diag(b), K) + kron(T, I) over knots
    1..N of a first-order lane with a state-independent energy Hessian K
    and rate curvature r (one per knot, the same at every node); T is the
    tridiagonal of band_diagonals(r). With K = Q diag(lam) Q^T and Q the
    Kronecker product of per-axis orthogonal matrices (energies.
    energy1_modes), a solve is a transform of the right-hand side into
    the eigenbasis, one N x N tridiagonal solve b lam_j + T per mode j
    (all modes in one KnotTridiagonal), and the transform back: the
    space-time fast diagonalization of Lynch, Rice & Thomas 1964 in the
    form of Maday & Ronquist 2008. Nothing of size (N n)^2 is ever
    formed."""

    def __init__(self, b: np.ndarray, r: np.ndarray, modes: tuple):
        self.b = b
        self.axes, self.lam, self.kdiag = modes
        self.tdiag, toff = band_diagonals(r)
        self.mode_band = KnotTridiagonal(
            b[:, None] * self.lam.ravel() + self.tdiag[:, None],
            np.broadcast_to(toff[:, None], (toff.size, self.lam.size)))

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
        """(H + mu I)^{-1} rhs for the flat knot-major rhs."""
        N = self.b.size
        Y = self._transform(rhs.reshape(N, *self.lam.shape), False)
        Y = self.mode_band.solve(Y.ravel(), mu)
        return self._transform(Y.reshape(N, *self.lam.shape), True).ravel()


def pinned_solve(solver, pinned: np.ndarray, N: int, start, grad, hess,
                 knot_scale: np.ndarray, **options):
    """Minimize over the trajectories U ((N+1, n_dof)) whose first rows
    are `pinned` ((k, n_dof)); options go to `solver`. start is None (each
    unknown knot starts at the last pinned row) or an (N+1, n_dof) array;
    a start of any other shape raises ConfigurationError.
    The callbacks see only the unknown knots k..N: grad(V) is the gradient
    over them of each trajectory whose unknown knots are a row of the
    stack V ((rows, N+1-k, n_dof)), as such a stack, and hess(V) the
    Hessian over them of the one trajectory whose unknown knots are V
    ((N+1-k, n_dof)). V is a view of the solver's iterate or trial stack;
    a callback reads it and never writes it. Returns (U, scaled_residual,
    iterations, converged)."""
    k, n_dof = pinned.shape
    knots = (N + 1 - k, n_dof)
    if start is None:
        x0 = np.tile(pinned[-1], (knots[0], 1)).ravel()
    elif start.shape[0] != N + 1:
        raise ConfigurationError("init has the wrong number of knots")
    elif start.shape != (N + 1, n_dof):
        raise ConfigurationError(f"init has shape {start.shape}, not "
                                 f"{(N + 1, n_dof)}")
    else:
        x0 = start[k:].ravel()

    x, res, iters, conv = solver(
        x0, lambda X: grad(X.reshape(X.shape[0], *knots)).reshape(X.shape),
        lambda x: hess(x.reshape(knots)), np.repeat(knot_scale, n_dof),
        **options)
    return with_pins(pinned, x.reshape(knots)), res, iters, conv


def with_pins(pinned: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The trajectory whose rows are `pinned`, then the unknown knots V
    ((knots, n_dof)): a fresh array, as np.vstack would return, filled by
    two copies. For a stack of them (V of shape (rows, knots, n_dof)),
    one such trajectory per row."""
    k = pinned.shape[0]
    U = np.empty((*V.shape[:-2], k + V.shape[-2], V.shape[-1]),
                 np.result_type(pinned, V))
    U[..., :k, :] = pinned
    U[..., k:, :] = V
    return U


def time_divergence(g: np.ndarray, flux: np.ndarray) -> None:
    """Knot n of g ((N, n_dof), knots 1..N, or a stack of them) gains
    flux_n - flux_{n+1}, flux_n being the rate term's derivative in
    u_n - u_{n-1}."""
    g += flux
    g[..., :-1, :] -= flux[..., 1:, :]


def band_diagonals(r: np.ndarray, main=0.0) -> tuple:
    """(main diagonal, off diagonal) of the Hessian over knots 1..N of a
    rate term with curvature r ((N, n_dof), or (N,) for one column) in
    u_n - u_{n-1}, added to the diagonal `main`; each column of dofs is
    its own tridiagonal."""
    diag = main + r
    diag[:-1] += r[1:]
    return diag, -r[1:]


def time_band(r: np.ndarray, main=0.0) -> sp.dia_matrix:
    """The band_diagonals(r, main) as one DIA matrix over the flat
    knot-major unknowns."""
    n_dof = r.shape[1]
    diag, off = band_diagonals(r, main)
    off = off.ravel()
    return sp.diags([diag.ravel(), off, off], [0, -n_dof, n_dof],
                    shape=(r.size, r.size))
