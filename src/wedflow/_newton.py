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
one-trial-at-a-time sweep. For the same reason a trial point bitwise
equal to the iterate takes the iterate's gradient instead of a row.

Front end. Every lane minimizes over whole trajectories U ((N+1, n_dof))
whose first k rows are pinned (k = 2 in the inertial lane, else 1).
`pinned_solve` holds the shared plumbing (unknown knots, start, row scale,
`with_pins`) and takes the solver as an argument, so each lane's calls go
through its own module binding of `newton_solve`. `time_divergence` and
`band_diagonals` are the backward-difference time coupling of the
first-order lanes. Its Hessian comes in five forms: `time_band`, one
sparse matrix, for the coupled rate-independent lane; the band filled
into the CSC space-time Hessian of `energies.energy1_hessian`, for the
parabolic lane; `HeldSparse`, that CSC Hessian held with its LUs where
no state changes it; `KnotTridiagonal`, one tridiagonal per dof column
solved by LAPACK, for lanes that do not couple dofs in space (the
uncoupled rate-independent lane); and `FastDiagonalization`, the
coupling plus a constant Kronecker-sum energy Hessian on a 1D or 2D
grid, whose per-mode tridiagonals are one `KnotTridiagonal`.

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
                 symmetric: bool = False, notes: list | None = None):
    """Minimize a smooth convex objective given by its gradient and Hessian
    callbacks. Returns (x, scaled_residual, iterations, converged).

    grad_fn(X) -> the gradient at each row of the stack X ((k, m)), as a
    (k, m) stack; hess_fn(x) -> sparse SPD(ish) Hessian at the flat x, a
    KnotTridiagonal or a FastDiagonalization; scale -> positive per-row
    weights for the residual norm. A Levenberg shift mu, raised only when a
    solve fails or is not finite, is added to the Hessian's diagonal.
    notes, if given, is a list to which a polished solve (see below)
    appends "longdouble_polish_steps=<k>"; nothing else is appended.

    The line search backtracks a = 1, 1/2, 1/4, ... down to _MIN_STEP and
    takes the first step whose scaled residual falls below
    (1 - 1e-4 a) times the current one. The full step is one gradient
    row, so an iteration that accepts it makes one one-row call. After a
    rejection the next trials go max(1, B // m) rows to a call, for the
    element budget B = _SWEEP_ELEMENTS: 10 rows at the 200 unknowns of
    `ri_ramp`, which turns its 5,026 one-row calls into 1,857. The budget
    bounds the extra memory of a call and the trials evaluated past the
    accepted one; a problem of more than B / 2 unknowns keeps one row per
    call, and so the gradient calls of the one-trial-at-a-time sweep. The
    result is bitwise that sweep's: each trial point is x + a step, row
    for row; every gradient kernel is elementwise along the trajectory or
    sums each entry over the same terms in the same order whatever the
    number of rows; the max-norm of a row is exact; and the rows are
    tested in order, so the first to pass is the step the sweep accepts.
    A trial point bitwise equal to x, a step below the iterate's ulp,
    takes g and the current residual instead of a gradient row, in the
    sweep and in the _MIN_STEP fallback alike: by the same row-for-row
    argument they are the bits its row would get. The stalled first
    level of the benchmark's 512-node heat problem makes 4 gradient
    calls instead of 44 this way before its polish.

    Where even the _MIN_STEP step makes no progress, the float64
    iteration has stalled, and the iterate goes to _polish: the gradient
    is taken in np.longdouble, the step is the float64 solve with the
    stalled step's Hessian and shift (the same LU table, held Hessian,
    KnotTridiagonal or FastDiagonalization, so nothing is factored
    again), and the iterate stays in np.longdouble for at most
    _POLISH_STEPS steps. If its scaled residual in extended precision
    reaches tol, the solve returns the float64 rounding of that iterate
    and that residual, converged, and notes the polish; otherwise the
    stall is returned as before, unconverged. The float64 floor is the
    rounding of the gradient, not of the iterate: the benchmark's
    512-node, N = 64 heat problem stalls at 1.12e-10 against tol 1e-10,
    and 1-ulp perturbations of its iterate give 6.7-7.5e-10 in float64,
    while one polish step reaches 5.5e-14 at each of its three weight
    levels. A point-grid scalar decay with N = 4000 at eps = 0.2 (a
    floor growing like (eps/dt)^2) converges the same way. Where
    np.longdouble is no wider than float64 (eps >= 1e-18), the polish is
    skipped and the flag stands.

    A sparse Hessian arrives bitwise as the scipy chain that once
    assembled it would build it (see energies.energy1_hessian), so its
    LU, and every step, are those of that chain.

    The linear solver follows from the Hessian; a Hessian that is not a
    sparse matrix solves itself (`H.solve(rhs, mu)`) and raises
    RuntimeError where splu would, on an exactly singular system.
    - A HeldSparse (what `minimize_wed` passes where its sparse Hessian
      does not depend on the state, see wed._constant_hessian) is a
      sparse matrix with its own table of block LUs, which outlives the
      call; it is solved as below, with that table.
    - A FastDiagonalization (what `minimize_wed` passes on 1D and 2D
      grids with p = 2 and a state-independent, Kronecker-sum energy
      Hessian) solves without assembling or factoring anything.
    - A KnotTridiagonal (what `minimize_wed_ri` passes when a = 0 or the
      grid is a point, so that every node is its own chain in time) is
      one LAPACK tridiagonal solve, with no sparse matrix per iteration.
    - Every other Hessian is factored by `splu`. symmetric=True factors it
      as a symmetric matrix: a minimum degree ordering of A^T + A,
      diagonal pivots only, SuperLU's symmetric mode. `minimize_wed` asks
      for it on grids of dimension >= 2, whose space-time Hessians are SPD
      and whose factorization dominates the solve: on a 32x32 grid with
      N=16 the fill drops from 94x to 41x and the factor time by about
      3.6x. On this path each connected component of H + mu I is factored
      on its own (see _shifted_solve). A degenerate m-Laplacian (m > 2)
      drops every edge where the gradient vanishes, so data constant along
      one axis splits the Hessian into identical chains; factored apart
      they give bitwise identical steps, and every iterate keeps the
      invariance. One ordering over the whole matrix broke it at round-off
      level, and the ~1e-16 couplings that followed grew the fill from 4
      to 11-23. The other sparse solves (1D and point grids, coupled
      `rateind` with a > 0, `wide`) keep SuperLU's defaults (COLAMD,
      partial pivoting): their outputs sit at the round-off floor, where
      another solver moves them by more than the 1e-12 refactor oracle.
      The `wide` Hessians are badly conditioned (5e15 at the first level
      of `wide_oscillator`), and the `wave_pulse` trajectory moved by
      2.8e-10; in 1D and
      `rateind` solves a point-grid Euler-Lagrange residual moved by
      3.6e-12 under the symmetric factorization. A coupled `rateind`
      Hessian is block tridiagonal (the coupling Laplacian sits in every
      diagonal block), which a KnotTridiagonal cannot hold. Point grids
      stay off the fast diagonalization (energies.energy1_modes) for the
      round-off reason: on benchmark variants 2, 3 and 5 of `scalar_decay`
      it moved the `reports.json` leaf `euler_lagrange/interior_max` by
      3.5e-12, over the 1e-12 oracle. That leaf is the O(1) residual
      evaluated at the first weight level rather than the solved one, so
      it amplifies the round-off of the solve.
      `ri_ramp`, whose solves are all uncoupled, moved by at most 4.5e-16
      when they left splu for dgtsv.

    Each distinct sparse block is factored once per call. The call keeps
    one table of block LUs, keyed by each block's column pointers, row
    indices and bytes of values, under the call's one set of SuperLU
    options; a block is a connected component of H + mu I on the
    symmetric path, else all of it (see _shifted_solve). A block stored
    bitwise like one in the table, a repeat in the same matrix or a block
    of the previous one, is solved with that LU; a Levenberg retry, whose
    mu differs, is refactored. The table drops the blocks the new matrix
    does not use before anything is factored, so it holds one matrix's
    LUs at most, and none outlives the call. A HeldSparse carries the
    table of its own instead, so a Hessian that does not change, as that
    of a quadratic energy with p = 2, is factored once for every call it
    is passed to: in `wed.fixed_point_solve`, once per weight level. A
    reused factorization gives bitwise the step that refactoring would,
    since gstrf is deterministic and a solve does not change the factor,
    so reuse is safe on the solves at the round-off floor above and moves
    no output.
    """
    lu_options = _lu_options(symmetric)
    x = x0.copy()
    g = grad_fn(x[None])[0]
    res = float(np.max(np.abs(g / scale)))
    it = 0
    mu = 0.0  # Levenberg shift, raised only on factorization trouble
    lus = {}  # block bytes -> LU, see _shifted_solve
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
                step = _shifted_solve(H, mu, -g, lu_options, lus)
                if np.all(np.isfinite(step)):
                    break
            except RuntimeError:
                pass
            mu = max(mu * 10.0, 1e-14 * float(np.max(np.abs(H.diagonal()))),
                     1e-300)
            step = None
        if step is None:
            break
        a, xnew, gnew, rnew = _backtrack(grad_fn, x, g, step, scale, res,
                                         sweep)
        accepted = a is not None
        if not accepted:
            # take the smallest damped step anyway; progress may be below
            # the acceptance threshold but the iteration must not cycle.
            # A NaN residual is no progress either.
            a = _MIN_STEP
            xnew = x + a * step
            if _same_bits(xnew[None], x)[0]:
                gnew, rnew = g, res
            else:
                gnew = grad_fn(xnew[None])[0]
                rnew = float(np.max(np.abs(gnew / scale)))
            if not rnew < res:
                polished = _polish(grad_fn, lambda r: _shifted_solve(
                    H, mu, r, lu_options, lus), x, scale, tol)
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


def _lu_options(symmetric: bool) -> dict:
    """The SuperLU options of a sparse solve: SuperLU's symmetric mode (a
    minimum degree ordering of A^T + A and diagonal pivots only) if
    symmetric, else its defaults (see newton_solve)."""
    return dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True)) if symmetric else {}


def _polish(grad_fn, solve, x: np.ndarray, scale: np.ndarray,
            tol: float):
    """Newton refinement of a stalled float64 iterate x with the gradient
    in extended precision (Moler 1967): X <- X + solve(-g(X)), X and g(X)
    in np.longdouble, the step a float64 solve with the stalled step's
    Hessian (its LU table, FastDiagonalization or KnotTridiagonal). At most
    _POLISH_STEPS steps; it stops at the first that does not lower the
    extended residual. Returns (the float64 rounding of X, X's scaled
    residual in extended precision, steps taken) once that residual is at
    most tol; None if it never is, or if np.longdouble is no wider than
    float64 (not _EXTENDED), where the float64 stall stands."""
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


def _backtrack(grad_fn, x: np.ndarray, g: np.ndarray, step: np.ndarray,
               scale: np.ndarray, res: float, sweep: tuple) -> tuple:
    """The first of the sweep's steps a whose scaled residual at x + a step
    passes the sufficient decrease test, as (a, x + a step, its gradient,
    its scaled residual); (None, ...) if none does. g and res are the
    gradient and scaled residual at x. sweep holds the steps a, their
    factors 1 - 1e-4 a and the rows per call after the first: the full
    step is one gradient row, and the later trials go that many rows to a
    call.

    A trial point bitwise equal to x (a step below the iterate's ulp) takes
    g and res instead of a gradient row: a row of a call carries the bits
    of a call of its own, so they are the bits it would get. The test
    compares the int64 views, so a trial that turns -0.0 into +0.0 is
    evaluated."""
    trials, factors, batch = sweep
    lo, rows = 0, 1
    while lo < trials.size:
        A = trials[lo:lo + rows]
        X = x + A[:, None] * step
        same = _same_bits(X, x)
        if same.any():
            G = np.empty_like(X)
            G[same] = g
            if not same.all():
                G[~same] = grad_fn(X[~same])
        else:
            G = grad_fn(X)
        R = np.abs(G / scale).max(axis=1)
        passed = R <= factors[lo:lo + rows] * res
        j = passed.argmax()
        if passed[j]:
            return float(A[j]), X[j], G[j], float(R[j])
        lo, rows = lo + rows, batch
    return None, None, None, None


def _same_bits(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether each row of the float stack X is bitwise x: int64 views, so
    that -0.0 and +0.0 differ and a NaN equals its own bits."""
    return (X.view(np.int64) == x.view(np.int64)).all(axis=1)


def _shifted_solve(H, mu: float, rhs: np.ndarray, lu_options: dict,
                   lus: dict | None = None):
    """(H + mu I)^{-1} rhs: sparse LUs with the given SuperLU options for
    a sparse H, else H's own solve. lus is the table of block LUs of the
    calling newton_solve, or of a HeldSparse, which lives as long as its
    holder (a weight level of wed.fixed_point_solve), keyed by each
    block's bytes; without one, the call starts an empty table of its
    own.

    A block is a connected component of H + mu I with options (the
    symmetric path), else all of H + mu I. Each block's principal
    submatrix gets its own splu with the same options, and a connected
    matrix makes the one splu call it always made. A Hessian splits where
    its couplings vanish, as the degenerate m-Laplacian's edges with zero
    gradient do, and a single minimum degree ordering over all components
    would give identical components different eliminations. Apart,
    identical components (same values in the same local order) give
    bitwise identical pieces of the step, so data invariant along an axis
    keeps every Newton iterate invariant; the factorizations are also
    smaller. The default-option solves are not split: their small 1D
    Hessians would break into many tiny pieces, and their outputs sit at
    the round-off floor (see newton_solve).

    Each distinct block is factored once. A block whose column pointers,
    row indices and bytes of values are those of a block in lus, of this
    matrix or of the previous one, is solved with that LU; only a
    block not in lus is factored, from the bytes of its key. Before
    anything is factored, lus drops every block this matrix does not use,
    so it holds the LUs of one matrix at most. Each block's piece of the
    right-hand side still gets its own one-column solve; a stacked
    multi-column solve could round differently. A reused LU gives bitwise
    the step that refactoring would: gstrf is deterministic on equal
    input and the solve does not change the factor. So reuse is safe on
    the 1D, coupled `rateind` and `wide` solves at the round-off floor,
    too."""
    if not sp.issparse(H):
        return H.solve(rhs, mu)
    if lus is None:
        lus = {}
    A = H if mu == 0.0 else H + mu * sp.identity(H.shape[0], format="csr")
    A = A.tocsc()
    n = A.shape[0]
    order, rows, bounds = np.arange(n), A.indices, [0, n]
    if lu_options:
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
    # a key holds the block's only copy of its CSC arrays, so A is dropped
    # before anything is factored
    dtypes = (A.indptr.dtype, rows.dtype, A.data.dtype)
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ptr = A.indptr[lo:hi + 1]
        blocks.append((lo, hi, ((ptr - ptr[0]).tobytes(),
                                (rows[ptr[0]:ptr[-1]] - lo).tobytes(),
                                A.data[ptr[0]:ptr[-1]].tobytes())))
    del A, rows
    for key in lus.keys() - {key for *_, key in blocks}:
        del lus[key]
    for lo, hi, key in blocks:
        if key not in lus:
            ptr, local, data = (np.frombuffer(b, t)
                                for b, t in zip(key, dtypes))
            lus[key] = splu(sp.csc_matrix((data, local, ptr),
                                          shape=(hi - lo, hi - lo)),
                            **lu_options)
    y = rhs[order]
    for lo, hi, key in blocks:
        y[lo:hi] = lus[key].solve(y[lo:hi])
    x = np.empty_like(y)
    x[order] = y
    return x


class HeldSparse:
    """A sparse Hessian that does not change while it is held: the CSC
    matrix fill() returns, filled at its first use, the SuperLU options of
    newton_solve's `symmetric` and a table of block LUs of its own. It
    outlives a newton_solve call, so every Newton step of every solve it
    is passed to reuses its LUs: a solve is _shifted_solve with that
    table, so a block is factored (by `splu`) only the first time, and
    again for a new Levenberg shift mu. A holder that is never solved
    with, as at a start that is already stationary, fills nothing."""

    def __init__(self, fill, symmetric: bool):
        self._fill = fill
        self._matrix = None
        self.options = _lu_options(symmetric)
        self.lus = {}

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix, self._fill = self._fill(), None
        return self._matrix

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def solve(self, rhs: np.ndarray, mu: float = 0.0) -> np.ndarray:
        """(H + mu I)^{-1} rhs."""
        return _shifted_solve(self.matrix, mu, rhs, self.options, self.lus)


class KnotTridiagonal:
    """A Hessian over knots 1..N whose dof columns couple only in time:
    one tridiagonal per column, with main diagonal diag ((N, n)) and off
    diagonal off ((N-1, n)), as band_diagonals gives them. A solve is one
    LAPACK dgtsv (Gaussian elimination with partial pivoting) on the
    node-major flattening, the columns joined by zero couplings; an exactly
    singular system raises RuntimeError, as splu does."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag = diag
        self.off = off

    def diagonal(self) -> np.ndarray:
        return self.diag.ravel()

    def solve(self, rhs: np.ndarray, mu: float = 0.0) -> np.ndarray:
        """(H + mu I)^{-1} rhs for the flat knot-major rhs."""
        N, n = self.diag.shape
        # column j's knots are rows j N .. j N + N - 1, and the coupling
        # after each column's last knot is zero; a last, uncoupled unknown
        # with unit diagonal keeps a one-unknown system solvable, since
        # the wrapper rejects an empty off diagonal
        off = np.zeros((n, N))
        off[:, :-1] = self.off.T
        off = off.ravel()
        *_, x, info = dgtsv(off, np.append((self.diag + mu).T, 1.0), off,
                            np.append(rhs.reshape(N, n).T, 0.0)[:, None])
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (dgtsv info {info})")
        return x[:-1].reshape(n, N).T.ravel()


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
    unknown knot starts at the last pinned row) or an (N+1, n_dof) array.
    grad(U) is the whole-trajectory gradient of each trajectory in the
    stack U ((rows, N+1, n_dof)), hess(U) the Hessian over the knots k..N
    of one trajectory. Returns (U, scaled_residual, iterations,
    converged)."""
    k, n_dof = pinned.shape
    if start is None:
        x0 = np.tile(pinned[-1], (N + 1 - k, 1)).ravel()
    elif start.shape[0] != N + 1:
        raise ConfigurationError("init has the wrong number of knots")
    else:
        x0 = start[k:].ravel()

    x, res, iters, conv = solver(
        x0, lambda X: grad(with_pins(pinned, X))[:, k:].reshape(X.shape),
        lambda x: hess(with_pins(pinned, x)), np.repeat(knot_scale, n_dof),
        **options)
    return with_pins(pinned, x), res, iters, conv


def with_pins(pinned: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The trajectory whose rows are `pinned`, then the flat unknowns x:
    a fresh array, as np.vstack would return, filled by two copies. For a
    stack of unknowns x ((rows, m)), one such trajectory per row."""
    k, n_dof = pinned.shape
    rows = x.reshape(*x.shape[:-1], -1, n_dof)
    U = np.empty((*rows.shape[:-2], k + rows.shape[-2], n_dof),
                 np.result_type(pinned, rows))
    U[..., :k, :] = pinned
    U[..., k:, :] = rows
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
