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
few rows to a call; a sweep that follows a damped step starts with such a
stack, full step included (see newton_solve). Every gradient kernel acts
row for row and the max-norm is exact, so each row carries the bits a
call of its own would, and the accepted step, residual and iterate are
those of the one-trial-at-a-time sweep. A sweep ends at its first trial
point bitwise equal to the iterate, which cannot pass (see _backtrack).

Hessians. newton_solve asks a Hessian for two things: `solve(rhs, mu)`,
(H + mu I)^{-1} rhs, raising RuntimeError on an exactly singular system,
and `diagonal()`. Three classes provide them. `SparseHessian` is a sparse
matrix factored by `splu`: the CSC space-time Hessian of
`energies.energy1_hessian` for the parabolic lane, `time_band` plus the
coupling Laplacian for the coupled rate-independent lane, and the
space-time Hessian of the inertial lane, whose CSC arrays
`wide._hessian_fill` fills directly from one column block's template.
`KnotTridiagonal` is one tridiagonal per dof column solved by LAPACK, for
lanes that do not couple dofs in space (the uncoupled rate-independent
lane). `FastDiagonalization` is the time
coupling plus a constant Kronecker-sum energy Hessian on a 1D or 2D grid,
whose per-mode tridiagonals are one `KnotTridiagonal`. Its per-axis modes
are closed forms (energies.energy1_modes, no eigensolver): an axis below
energies.FFT_CROSSOVER nodes is a dense Q, a longer one is transformed by
numpy.fft (DCT-II/III, DST-I or the real Fourier basis, per boundary
kind), which scipy has loaded already; importing scipy.fft would add
2.6 MB of resident memory and about 60 ms to the process.

Pattern plans. What a sparse Newton step computes from its sparsity
pattern alone, energies.energy1_hessian's tiled indices and _factor's
block split, is planned once per pattern and continuation (pattern_plan,
plan_scope) and reused while the pattern repeats exactly. A plan holds
index arrays only, so every value, LU and step is bitwise that of an
unplanned call.

Front end. Every lane minimizes over whole trajectories U ((N+1, n_dof))
whose first k rows are pinned by the problem (k = 2 in the inertial lane,
else 1). `pinned_solve` holds the shared plumbing (unknown knots, start,
row scale), is the one place a start is checked against the pinned rows,
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

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar

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
    takes the first step whose scaled residual falls below (1 - 1e-4 a)
    times the current one. The trials go max(1, B // m) rows to a call,
    for the element budget B = _SWEEP_ELEMENTS, except the first call of a
    sweep that follows a full step (a = 1), or that opens the solve: it is
    the full step alone, so an iteration that accepts it makes one one-row
    call. Damped steps come in runs, so after one the next sweep evaluates
    its first B // m trials (a = 1 ... 2^-9 at B // m = 10) in one call.
    On `ri_ramp`, 736 of 1,047 steps are damped and 676 of the 736 steps
    that follow them are damped too; the stacked first call cuts its
    gradient calls from 1,857 to 1,264 for 694 more rows. The budget
    bounds the extra memory of a call and the trials evaluated past the
    accepted one; a problem of more than B / 2 unknowns keeps one row per
    call, and so the gradient calls of the one-trial-at-a-time sweep,
    whatever the step before. The result is bitwise that sweep's: each
    trial point is x + a step, row for row; every gradient kernel is
    elementwise along the trajectory or sums each entry over the same
    terms in the same order whatever the number of rows; the max-norm of a
    row is exact; and the rows are tested in order, so the first to pass
    is the step the sweep accepts. A trial point bitwise equal to x, a
    step below the iterate's ulp, has the residual res, which fails the
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
    batch = max(1, _SWEEP_ELEMENTS // x.size)
    sweep = (trials, 1.0 - 1e-4 * trials, batch)
    first = 1
    while it < max_iter and res > tol:
        H = hess_fn(x)
        rhs = -g
        step = None
        for _ in range(8):
            try:
                step = H.solve(rhs, mu)
                if np.isfinite(step).all():
                    break
            except RuntimeError:
                pass
            mu = max(mu * 10.0, 1e-14 * float(np.max(np.abs(H.diagonal()))),
                     1e-300)
            step = None
        if step is None:
            break
        a, xnew, gnew, rnew = _backtrack(grad_fn, x, step, scale, res, sweep,
                                         first)
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
        # a damped step is likely followed by another: the next sweep
        # starts with a whole batch of trials
        first = 1 if a == 1.0 else batch
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
               res: float, sweep: tuple, first: int = 1) -> tuple:
    """The first of the sweep's steps a whose scaled residual at x + a step
    passes the sufficient decrease test, as (a, x + a step, its gradient,
    its scaled residual); (None, ...) if none does. res is the scaled
    residual at x. sweep holds the steps a, their factors 1 - 1e-4 a and
    the rows per call after the first; the first call has `first` rows
    (the full step alone, or a whole batch after a damped step; see
    newton_solve), and the later trials go the sweep's batch of rows to a
    call. The rows of a call are tested in order, so the step returned is
    the sweep's first to pass, however the trials are split into calls.

    The sweep ends at its first trial point bitwise equal to x (a step
    below the iterate's ulp), which is not evaluated: its residual is res,
    which fails the test for any finite res. Rounding is monotone, so an
    entry x_i + a step_i that rounds to x_i for some a does so for every
    smaller a, and every later trial is x again. The test compares bytes,
    so a trial that turns -0.0 into +0.0 is evaluated. Such a point is
    looked for only in a call whose last row is x."""
    trials, factors, batch = sweep
    xbits = x.tobytes()
    lo, rows = 0, first
    while lo < trials.size:
        A = trials[lo:lo + rows]
        # x + a step for each a, one row each
        X = np.multiply.outer(A, step)
        X += x
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
    solve could round differently.

    The split depends on the pattern of H + mu I alone, so _block_plan
    makes it once per pattern and continuation (see pattern_plan), and a
    call gathers the values into block order, keys and factors the
    blocks. The default path takes the same plan: one block, in the
    identity order."""
    options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True)) if symmetric else {}
    A = H if mu == 0.0 else H + mu * sp.identity(H.shape[0], format="csr")
    A = A.tocsc()
    order, perm, blocks = pattern_plan(
        "factor", (A.shape, A.indptr, A.indices, symmetric),
        lambda: _block_plan(A, symmetric))
    data = A.data if perm is None else A.data.take(perm)
    lus, solves = {}, []
    for lo, hi, start, end, pattern, local, ptr in blocks:
        values = data[start:end]
        key = (pattern, values.tobytes())
        if key not in lus:
            lus[key] = splu(sp.csc_matrix((values, local, ptr),
                                          shape=(hi - lo, hi - lo)),
                            **options)
        solves.append((lo, hi, lus[key]))

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = rhs[order]
        for lo, hi, lu in solves:
            y[lo:hi] = lu.solve(y[lo:hi])
        x = np.empty_like(y)
        x[order] = y
        return x
    return solve


def _block_plan(A, symmetric: bool) -> tuple:
    """Where _factor's blocks of the CSC matrix A are, from its pattern
    alone: (order, perm, blocks). order is the unknowns in block order;
    A.data[perm] (A.data itself where perm is None) are the values of
    A[:, order], column by column; blocks holds each block's (lo, hi,
    start, end, pattern, row indices, column pointers): unknowns lo..hi
    and values start..end of that order. pattern numbers the distinct
    (row indices, column pointers), whose arrays blocks of the same
    pattern share. Every array is that of the split without a plan, in
    the same dtype."""
    n = A.shape[0]
    itype = A.indices.dtype
    order, perm, bounds = np.arange(n, dtype=itype), None, [0, n]
    indptr, rows = A.indptr, A.indices
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
            order = np.argsort(labels, kind="stable").astype(itype)
            new = np.empty(n, itype)
            new[order] = np.arange(n, dtype=itype)
            # the columns of A[:, order], whose entries are A.data[perm]
            # (scipy gives its pointers the dtype of A's)
            lengths = np.diff(A.indptr)[order]
            indptr = np.zeros(n + 1, A.indptr.dtype)
            np.cumsum(lengths, out=indptr[1:])
            perm = np.repeat(A.indptr[:-1][order] - indptr[:-1], lengths)
            perm += np.arange(A.nnz, dtype=perm.dtype)
            rows = new[A.indices[perm]]
            bounds = [0] + np.cumsum(np.bincount(labels)).tolist()
    patterns, blocks = {}, []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        start, end = indptr[lo], indptr[hi]
        ptr, local = indptr[lo:hi + 1] - start, rows[start:end] - lo
        pattern, local, ptr = patterns.setdefault(
            (ptr.tobytes(), local.tobytes()), (len(patterns), local, ptr))
        blocks.append((lo, hi, start, end, pattern, local, ptr))
    return order, perm, blocks


def pattern_plan(kind: str, pattern: tuple, build):
    """The plan build() makes for the sparsity pattern `pattern`, reused
    within a plan_scope while the pattern repeats exactly: pattern is a
    tuple, of a fixed layout per kind, of arrays (equal in dtype, shape
    and every entry) and other fields (equal by ==). kind names the plan,
    _factor's "factor" or energies.energy1_hessian's "hessian"; a scope
    holds the last plan of each kind, and drops it before it makes a new
    one. A plan holds index arrays only, never a value or an LU. Outside
    a scope every call makes its plan. A plan lives as long as its scope:
    a whole weight continuation (wed.continuation), or one solve
    (pinned_solve) outside every continuation."""
    plans = _PLANS.get()
    held = None if plans is None else plans.pop(kind, None)
    if held is not None and all(
            x is y or x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(x, y) if isinstance(x, np.ndarray)
            else x == y for x, y in zip(held[0], pattern)):
        plan = held[1]
    else:
        held = None  # the old plan goes before the new one is made
        plan = build()
    if plans is not None:
        plans[kind] = (pattern, plan)
    return plan


@contextmanager
def plan_scope():
    """The lifetime of pattern plans: pattern_plan keeps its plans in the
    innermost open scope, and they go when it ends. wed.continuation runs
    all its levels in one, so a pattern that repeats across levels (the
    same grid and knots) is planned once per run; pinned_solve opens one
    for its solve only where none is open."""
    token = _PLANS.set({})
    try:
        yield
    finally:
        _PLANS.reset(token)


# The plans of the innermost open plan_scope, by kind; None outside every
# scope. A context variable, so that each thread has its own.
_PLANS: ContextVar = ContextVar("wedflow_pattern_plans", default=None)


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
    a > 0, `wide`, whose Hessian is filled straight into CSC arrays with
    the bits of the scipy chain it replaced) keep SuperLU's defaults
    (COLAMD, partial pivoting):
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
    of the solve. The block split of a factorization is planned once per
    pattern and continuation, not held here (see _factor)."""

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
        N, n = diag.shape
        # the node-major bands, laid out once for every solve: column j's
        # knots are rows j N .. j N + N - 1, and the coupling after each
        # column's last knot is zero (one column: views of the bands,
        # which LAPACK must not overwrite)
        if n == 1:
            self._bands = diag.ravel(), off.ravel()
        else:
            bands = np.zeros((n, N))
            bands[:, :-1] = off.T
            self._bands = diag.T.ravel(), bands.ravel()[:-1]

    def diagonal(self) -> np.ndarray:
        return self.diag.ravel()

    def solve(self, rhs: np.ndarray, mu: float = 0.0) -> np.ndarray:
        """(H + mu I)^{-1} rhs for the flat knot-major rhs."""
        N, n = self.diag.shape
        d, off = self._bands
        d = d + mu
        # a copy: at N = 1 or n = 1 the ravel would be a view of rhs
        b = rhs.reshape(N, n).T.flatten()
        if d.size == 1:
            if d[0] == 0.0:
                raise RuntimeError("tridiagonal solve failed (dgtsv info 1)")
            return b / d
        if n == 1:
            return _dgtsv(off, d, b, own_off=False)
        return _dgtsv(off.copy(), d, b,
                      own_off=True).reshape(n, N).T.ravel()


def _dgtsv(off: np.ndarray, d: np.ndarray, b: np.ndarray,
           own_off: bool) -> np.ndarray:
    """The solution of the symmetric tridiagonal system with main diagonal
    d and off diagonal off, by LAPACK dgtsv; RuntimeError where it is
    exactly singular. LAPACK works in place in d and b, which the caller
    must own, and in off where own_off; it writes both off diagonals, so
    the upper one, the same array as off, is always copied. The solution
    has the bits of the copying call."""
    *_, x, info = dgtsv(off, d, off, b, overwrite_dl=own_off,
                        overwrite_d=True, overwrite_b=True)
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
    (all modes in one KnotTridiagonal, whose LAPACK bands are laid out
    once here, for every solve of the weight level), and the transform
    back: the space-time fast diagonalization of Lynch, Rice & Thomas
    1964 in the form of Maday & Ronquist 2008. Nothing of size (N n)^2 is
    ever formed.

    An axis comes as its dense closed-form Q, applied as a product, or,
    from energies.FFT_CROSSOVER nodes on, as its boundary kind, whose Q
    _FFT applies in O(n log n) per state with numpy.fft: the orthonormal
    DCT-II/III (neumann) by Makhoul's reordered real FFT, the DST-I
    (dirichlet) by the real FFT of the odd extension, and the real
    Fourier basis (periodic) by the real FFT itself (Swarztrauber 1977).
    numpy.fft is loaded with scipy already; scipy.fft would add 2.6 MB
    of resident memory and 58-99 ms to every process that imports it
    (measured after importing wedflow.cli)."""

    def __init__(self, b: np.ndarray, r: np.ndarray, modes: tuple):
        self.b = b
        self.axes, self.lam, self.kdiag = modes
        self.tdiag, toff = band_diagonals(r)
        # the transpose of a node-major array, whose node-major ravel the
        # KnotTridiagonal then takes without a copy
        self.mode_band = KnotTridiagonal(
            (self.lam.reshape(-1, 1) * b + self.tdiag).T,
            np.broadcast_to(toff[:, None], (toff.size, self.lam.size)))

    def diagonal(self) -> np.ndarray:
        return (self.b[:, None] * self.kdiag.ravel()
                + self.tdiag[:, None]).ravel()

    def _transform(self, X: np.ndarray, inverse: bool) -> np.ndarray:
        """Q^T (or Q, if inverse) applied to every knot's state of the
        (N, *grid shape) array X, one axis at a time."""
        for a, Q in enumerate(self.axes, start=1):
            X = np.swapaxes(X, a, -1)
            X = _FFT[Q][inverse](X) if isinstance(Q, str) \
                else X @ (Q.T if inverse else Q)
            X = np.swapaxes(X, a, -1)
        return X

    def solve(self, rhs: np.ndarray, mu: float = 0.0) -> np.ndarray:
        """(H + mu I)^{-1} rhs for the flat knot-major rhs."""
        N = self.b.size
        Y = self._transform(rhs.reshape(N, *self.lam.shape), False)
        Y = self.mode_band.solve(Y.ravel(), mu)
        return self._transform(Y.reshape(N, *self.lam.shape), True).ravel()


def _dct2(X: np.ndarray) -> np.ndarray:
    """Q^T x along the last axis for the neumann Q of n nodes, the
    orthonormal DCT-II: one rfft of the even entries followed by the odd
    ones reversed, turned by exp(-i pi k/2n) (Makhoul 1980); entry n-k is
    minus the imaginary part of entry k."""
    n = X.shape[-1]
    half = n // 2 + 1
    V = np.fft.rfft(np.concatenate((X[..., ::2], X[..., 1::2][..., ::-1]),
                                   axis=-1), axis=-1)
    V *= _turns(n, False)
    Y = np.empty(X.shape)
    Y[..., :half] = V.real
    Y[..., half:] = -V.imag[..., (n + 1) // 2 - 1:0:-1]
    return Y


def _dct3(Y: np.ndarray) -> np.ndarray:
    """Q y along the last axis for the neumann Q, the inverse of _dct2:
    the spectrum (y_k - i y_{n-k}) exp(i pi k/2n) by one irfft, then the
    even and reversed odd entries back in place."""
    n = Y.shape[-1]
    half = n // 2 + 1
    V = np.empty((*Y.shape[:-1], half), complex)
    V.real = Y[..., :half]
    V.imag[..., 0] = 0.0
    V.imag[..., 1:] = -Y[..., n - 1:n - half:-1]
    V *= _turns(n, True)
    v = np.fft.irfft(V, n, axis=-1)
    X = np.empty(v.shape)
    X[..., ::2] = v[..., :(n + 1) // 2]
    X[..., 1::2] = v[..., (n + 1) // 2:][..., ::-1]
    return X


def _turns(n: int, inverse: bool) -> np.ndarray:
    """exp(-+i pi k/2n) for k = 0..n/2, times the orthonormal DCT's scale
    sqrt(1/n) at k = 0 and sqrt(2/n) beyond (the inverse: sign + and the
    scales sqrt(n), sqrt(n/2), which also undo the rfft's sums)."""
    k = np.arange(n // 2 + 1)
    if inverse:
        return np.exp(0.5j * np.pi / n * k) \
            * np.where(k == 0, np.sqrt(n), np.sqrt(0.5 * n))
    return np.exp(-0.5j * np.pi / n * k) \
        * np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))


def _dst1(X: np.ndarray) -> np.ndarray:
    """Q x along the last axis for the dirichlet Q, the orthonormal DST-I,
    which is its own inverse (Q = Q^T = Q^{-1}): minus half the imaginary
    part of the rfft of the odd extension (0, x, 0, -reversed x), scaled
    by sqrt(2/(n+1))."""
    n = X.shape[-1]
    W = np.zeros((*X.shape[:-1], 2 * n + 2))
    W[..., 1:n + 1] = X
    W[..., n + 2:] = -X[..., ::-1]
    return np.fft.rfft(W, axis=-1).imag[..., 1:n + 1] \
        * -np.sqrt(0.5 / (n + 1))


def _rdft(X: np.ndarray) -> np.ndarray:
    """Q^T x along the last axis for the periodic Q, the real Fourier
    basis: the rfft's constant term, then per wave number its real part
    (the cosine) and minus its imaginary part (the sine), then the
    alternating term of an even n, each scaled to unit norm."""
    n = X.shape[-1]
    m = (n - 1) // 2
    F = np.fft.rfft(X, axis=-1)
    Y = np.empty(X.shape)
    Y[..., 0] = F[..., 0].real * np.sqrt(1.0 / n)
    Y[..., 1:2 * m + 1:2] = F.real[..., 1:m + 1] * np.sqrt(2.0 / n)
    Y[..., 2:2 * m + 2:2] = F.imag[..., 1:m + 1] * -np.sqrt(2.0 / n)
    if n % 2 == 0:
        Y[..., -1] = F[..., -1].real * np.sqrt(1.0 / n)
    return Y


def _irdft(Y: np.ndarray) -> np.ndarray:
    """Q y along the last axis for the periodic Q, the inverse of _rdft:
    the spectrum it reads, rescaled for numpy's irfft."""
    n = Y.shape[-1]
    m = (n - 1) // 2
    F = np.empty((*Y.shape[:-1], n // 2 + 1), complex)
    F[..., 0] = Y[..., 0] * np.sqrt(n)
    F.real[..., 1:m + 1] = Y[..., 1:2 * m + 1:2] * np.sqrt(0.5 * n)
    F.imag[..., 1:m + 1] = Y[..., 2:2 * m + 2:2] * -np.sqrt(0.5 * n)
    if n % 2 == 0:
        F[..., -1] = Y[..., -1] * np.sqrt(n)
    return np.fft.irfft(F, n, axis=-1)


# Per boundary kind, the transforms (Q^T, Q) of a long axis of
# FastDiagonalization, along the last axis of a stack of states.
_FFT = {"neumann": (_dct2, _dct3), "dirichlet": (_dst1, _dst1),
        "periodic": (_rdft, _irdft)}


def pinned_solve(solver, pinned: np.ndarray, N: int, start, grad, hess,
                 knot_scale: np.ndarray, **options):
    """Minimize over the trajectories U ((N+1, n_dof)) whose first rows
    are `pinned` ((k, n_dof)); options go to `solver`. start is None (each
    unknown knot starts at the last pinned row) or an (N+1, n_dof) array
    whose first k rows are bitwise `pinned`; any other start raises
    ConfigurationError.
    The callbacks see only the unknown knots k..N: grad(V) is the gradient
    over them of each trajectory whose unknown knots are a row of the
    stack V ((rows, N+1-k, n_dof)), as such a stack, and hess(V) the
    Hessian over them of the one trajectory whose unknown knots are V
    ((N+1-k, n_dof)). V is a view of the solver's iterate or trial stack;
    a callback reads it and never writes it. The solve runs in the open
    plan_scope, or in one of its own, whose pattern plans go when it
    returns, where none is open. Returns (U,
    scaled_residual, iterations, converged)."""
    k, n_dof = pinned.shape
    knots = (N + 1 - k, n_dof)
    if start is None:
        x0 = np.tile(pinned[-1], (knots[0], 1)).ravel()
    elif start.shape[0] != N + 1:
        raise ConfigurationError("init has the wrong number of knots")
    elif start.shape != (N + 1, n_dof):
        raise ConfigurationError(f"init has shape {start.shape}, not "
                                 f"{(N + 1, n_dof)}")
    elif not np.array_equal(start[:k], pinned):
        raise ConfigurationError("init differs from the pinned rows")
    else:
        x0 = start[k:].ravel()

    stack = (-1, *knots)

    def flat_grad(X: np.ndarray) -> np.ndarray:
        return grad(X.reshape(stack)).reshape(X.shape)

    def knot_hess(x: np.ndarray):
        return hess(x.reshape(knots))

    with plan_scope() if _PLANS.get() is None else nullcontext():
        x, res, iters, conv = solver(x0, flat_grad, knot_hess,
                                     np.repeat(knot_scale, n_dof), **options)
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
