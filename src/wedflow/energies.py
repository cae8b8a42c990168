"""Dissipation potentials, state energies, fractional seminorms, and
reaction terms, each with value and analytic gradient.

Conventions used throughout the package:

* Values are discrete integrals: every nodal/edge sum carries the cell
  measure h^d (h^{d-1} for boundary terms), so "value" approximates the
  continuum integral and "grad" is its plain euclidean gradient (measure
  included).
* Forcing fields and reactions are NODAL DENSITIES; their pairing with a
  state is <w, u> = h^d * sum(w_i * u_i).
* Boundary handling of difference terms: neumann keeps interior edges only
  (zero flux), dirichlet adds phantom zero neighbors outside both ends
  (zero extension), periodic wraps, robin keeps interior edges and adds the
  boundary quadratic 1/(2b)|u|^2 weighted by the boundary measure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .grids import ConfigurationError, Field, Grid


def p_conjugate(p: float) -> float:
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# Dissipation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationSpec:
    """psi(v) = sum_i A(v_i) h^d with A(s) = integral of a nondecreasing
    alpha from 0 to s. Power kind: alpha(s) = |s|^(p-2) s."""

    p: float = 2.0
    alpha_kind: str = "power"
    # piecewise-linear alpha for alpha_kind="table"
    table_s: Optional[np.ndarray] = None
    table_alpha: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.p <= 1.0:
            raise ConfigurationError("dissipation exponent p must exceed 1")
        if self.alpha_kind not in ("power", "table"):
            raise ConfigurationError(f"unknown alpha_kind {self.alpha_kind!r}")
        if self.alpha_kind == "table":
            s = np.asarray(self.table_s, dtype=float)
            a = np.asarray(self.table_alpha, dtype=float)
            if s.ndim != 1 or s.shape != a.shape or s.size < 2:
                raise ConfigurationError("alpha table needs matching 1D arrays")
            if np.any(np.diff(s) <= 0) or np.any(np.diff(a) < 0):
                raise ConfigurationError("alpha table must be increasing in s "
                                         "and nondecreasing in alpha")
            object.__setattr__(self, "table_s", s)
            object.__setattr__(self, "table_alpha", a)


def alpha_eval(spec: DissipationSpec, v: np.ndarray) -> np.ndarray:
    if spec.alpha_kind == "power":
        if spec.p == 2.0:
            return v.copy()
        out = np.zeros_like(v)
        nz = v != 0.0
        out[nz] = np.abs(v[nz]) ** (spec.p - 2.0) * v[nz]
        return out
    return np.interp(v, spec.table_s, spec.table_alpha)


def alpha_prime(spec: DissipationSpec, v: np.ndarray) -> np.ndarray:
    """Pointwise slope of alpha (a.e. derivative for the table kind)."""
    if spec.alpha_kind == "power":
        if spec.p == 2.0:
            return np.ones_like(v)
        out = np.abs(v) ** (spec.p - 2.0)
        # p < 2 has unbounded slope at 0; cap it so Newton diagonals stay finite
        return (spec.p - 1.0) * np.where(np.isfinite(out), out, 1e12)
    s, a = spec.table_s, spec.table_alpha
    slopes = np.diff(a) / np.diff(s)
    idx = np.clip(np.searchsorted(s, v, side="right") - 1, 0, slopes.size - 1)
    out = slopes[idx]
    out[(v < s[0]) | (v > s[-1])] = 0.0
    return out


def A_eval(spec: DissipationSpec, v: np.ndarray) -> np.ndarray:
    """A(s) = integral_0^s alpha; exact for both kinds."""
    if spec.alpha_kind == "power":
        return np.abs(v) ** spec.p / spec.p
    s, a = spec.table_s, spec.table_alpha
    # cumulative exact trapezoid of the piecewise-linear alpha from 0
    knots_A = np.concatenate(([0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(s))))
    i0 = np.searchsorted(s, 0.0, side="right") - 1
    i0 = min(max(i0, 0), s.size - 2)
    A0 = knots_A[i0] + 0.5 * (np.interp(0.0, s, a) + a[i0]) * (0.0 - s[i0])
    idx = np.clip(np.searchsorted(s, v, side="right") - 1, 0, s.size - 2)
    av = np.interp(v, s, a)
    Av = knots_A[idx] + 0.5 * (av + a[idx]) * (v - s[idx])
    return Av - A0


def dissipation_eval(spec: DissipationSpec, v: Field) -> tuple[float, Field]:
    vals = v.values
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError("non-finite dissipation input")
    meas = v.grid.cell_measure
    value = float(np.sum(A_eval(spec, vals)) * meas)
    grad = alpha_eval(spec, vals) * meas
    return value, Field(v.grid, grad)


# ---------------------------------------------------------------------------
# Edge structure of a grid (shared by m_laplace and the solvers)
# ---------------------------------------------------------------------------

def grid_edges(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge lists (i, j, axis spacing, boundary-phantom mask).

    Phantom edges (dirichlet zero extension) have j == -1 and difference
    u_i - 0. Returns empty arrays for point grids.
    """
    if grid.domain_kind == "point":
        z = np.array([], dtype=int)
        return z, z, np.array([]), np.array([], dtype=bool)
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    src, dst, hs = [], [], []
    for a, n_a in enumerate(grid.shape):
        if grid.boundary == "periodic":
            pairs = [(idx, np.roll(idx, -1, axis=a))]
        else:
            pairs = [(np.take(idx, range(n_a - 1), a),
                      np.take(idx, range(1, n_a), a))]
        if grid.boundary == "dirichlet":
            pairs += [(np.take(idx, [end], a), np.full(idx.size // n_a, -1))
                      for end in (0, n_a - 1)]
        for i, j in pairs:
            src.append(i.ravel())
            dst.append(j.ravel())
            hs.append(np.full(i.size, grid.spacing[a]))
    dst = np.concatenate(dst)
    return np.concatenate(src), dst, np.concatenate(hs), dst < 0


def _per_grid(build):
    """Cache build(grid, *params) once per distinct grid, keyed by the
    grid's field values (Grid compares by identity)."""
    cache = {}

    @functools.wraps(build)
    def cached(grid: Grid, *params):
        key = (grid.dim, grid.shape, grid.spacing, grid.boundary,
               grid.domain_kind, grid.robin_b, *params)
        if key not in cache:
            cache[key] = build(grid, *params)
        return cache[key]
    return cached


@_per_grid
def _edge_operator(grid: Grid) -> tuple:
    """(grid_edges(grid), D): D is the sparse edge-difference operator,
    (D u)_e = (u_j - u_i)/h, phantom edges keeping only their -1/h."""
    edges = grid_edges(grid)
    src, dst, hs, phantom = edges
    rows = np.arange(src.size)
    real = ~phantom
    return edges, sp.csr_matrix(
        (np.concatenate([-1.0 / hs, 1.0 / hs[real]]),
         (np.concatenate([rows, rows[real]]),
          np.concatenate([src, dst[real]]))),
        shape=(src.size, grid.n_nodes))


def edge_differences(grid: Grid, u: np.ndarray,
                     edges=None) -> tuple[np.ndarray, np.ndarray]:
    """(u_j - u_i)/h per edge (phantom j contributes 0), and the edge measure
    h^d (the h in the difference cancels one spacing factor of the cell).
    For a stack of states (one per row) the differences are rows too."""
    if edges is None:
        edges = _edge_operator(grid)[0]
    src, dst, hs, phantom = edges
    # np.take keeps stacked rows C-ordered, so row sums round as 1D sums
    uj = np.where(phantom, 0.0, np.take(u, np.where(phantom, 0, dst), -1))
    diffs = (uj - np.take(u, src, -1)) / hs
    emeas = np.full(src.size, grid.cell_measure)
    return diffs, emeas


def graph_laplacian(grid: Grid, coeff: float = 1.0) -> Optional[sp.spmatrix]:
    """Matrix L = coeff h^d D^T D, so u @ L @ u = coeff * Sum_edges |d|^2 h^d;
    the exact Hessian of the quadratic edge energy (coeff/1) * Sum d^2 emeas.
    None for point grids (no edges)."""
    if grid.domain_kind == "point" or coeff == 0.0:
        return None
    D = _edge_operator(grid)[1]
    return ((coeff * grid.cell_measure) * (D.T @ D)).tocsr()


def _edge_energy(grid: Grid, X: np.ndarray, B: np.ndarray, m: float):
    """Per row of the state stack X: the value Sum_e B_i |d_e|^m h^d / m,
    the gradient D^T f and the weights w of the Hessian D^T diag(w) D. The
    nodal coefficient B is read at each edge's source node."""
    edges, D = _edge_operator(grid)
    src = edges[0]
    diffs, emeas = edge_differences(grid, X, edges)
    Be = B[..., src]
    val = np.sum(Be * np.abs(diffs) ** m * emeas, axis=-1) / m
    # d/dd of (1/m)|d|^m is |d|^{m-2} d; chain rule through d = D u
    force = Be * np.abs(diffs) ** (m - 2.0) * diffs * emeas
    grad = (D.T @ force.T).T
    curv = Be * (m - 1.0) * np.abs(diffs) ** (m - 2.0) * emeas
    return val, grad, curv


def _edge_hessian(grid: Grid, curv: np.ndarray) -> sp.spmatrix:
    """Block diagonal kron(I, D)^T diag(w) kron(I, D), one block per row of
    the edge weights curv."""
    D = _edge_operator(grid)[1]
    Dk = sp.kron(sp.identity(curv.shape[0], format="csr"), D, format="csr")
    return (Dk.T @ sp.diags(curv.ravel()) @ Dk).tocsr()


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y per row (rows broadcast), rounded exactly as the single-row
    dot: batched matmul calls the same kernel once per row."""
    return np.matmul(np.ascontiguousarray(x)[..., None, :],
                     np.ascontiguousarray(y)[..., :, None])[..., 0, 0]


def _sequential_sum(first, terms: np.ndarray):
    """first + terms[..., 0] + terms[..., 1] + ..., per row (first holds
    one entry per row), added left to right as a running scalar would be
    (np.sum's pairwise order rounds differently)."""
    total = np.cumsum(np.concatenate(
        (np.asarray(first, dtype=float)[..., None], terms), axis=-1),
        axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

_NONNEGATIVE = ("gamma", "B", "C", "D1", "D2", "F1", "F2", "concave_D")


@dataclass(frozen=True, eq=False)
class EnergySpec:
    """Parameters for the convex state energy (selected by `kind`) and the
    concave perturbation / forcing consumed by energy2_value_grad.

    kinds: quadratic(gamma), m_laplace(m, B, C, robin via grid), fractional
    (s, gamma), lv_quadratic(D1, D2, F1, F2) acting on stacked (u, v) pairs.
    Concave part: power (q, coefficient D >= 0) or none. Forcing is a nodal
    density, either one vector or an (N+1, n) table indexed by time slice.
    """

    kind: str = "quadratic"
    gamma: float = 1.0
    m: float = 2.0
    B: object = 1.0
    C: object = 0.0
    s: float = 0.5
    exterior: bool = True
    D1: float = 1.0
    D2: float = 1.0
    F1: float = 0.0
    F2: float = 0.0
    concave_q: Optional[float] = None
    concave_D: object = 1.0
    forcing: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("quadratic", "m_laplace", "fractional",
                             "lv_quadratic", "none"):
            raise ConfigurationError(f"unknown energy kind {self.kind!r}")
        if self.kind == "m_laplace" and self.m < 2:
            raise ConfigurationError("m_laplace exponent must satisfy m >= 2")
        if self.kind == "fractional" and not 0.0 < self.s < 1.0:
            raise ConfigurationError("fractional order s must lie in (0,1)")
        if self.concave_q is not None and self.concave_q <= 1.0:
            raise ConfigurationError("concave exponent q must exceed 1")
        # phi1 must be convex (2D solves factor its Hessian as SPD) and
        # the power term of phi2 convex, so that -phi2 stays concave
        for name in _NONNEGATIVE:
            c = getattr(self, name)
            try:
                values = c.values if isinstance(c, Field) \
                    else np.asarray(c, dtype=float)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"coefficient {name} must be numeric") from None
            if not np.all(values >= 0.0):
                raise ConfigurationError(
                    f"coefficient {name} must be nonnegative")

    def forcing_at(self, n: int, n_dof: int) -> np.ndarray:
        if self.forcing is None:
            return np.zeros(n_dof)
        f = np.asarray(self.forcing, dtype=float)
        if f.ndim == 1:
            return f
        return f[n]


def _coef(c, n: int) -> np.ndarray:
    if isinstance(c, Field):
        return c.values
    arr = np.asarray(c, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    return arr


@_per_grid
def _fractional_matrix(grid: Grid, s: float, exterior: bool) -> np.ndarray:
    """Dense symmetric PSD matrix Q with [u]^2 = u^T Q u.

    Q = 2(diag(row sums) - W) + diag(w_ext), W_ij = h^{2d}/|x_i-x_j|^{d+2s}.
    The zero exterior extension is integrated by midpoint quadrature (64
    cells per axis) over a box of radius 10 diam(Omega) minus the domain.
    """
    x = grid.coords()
    n = grid.n_nodes
    d = grid.dim
    hd = grid.cell_measure
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    with np.errstate(divide="ignore"):
        W = hd * hd / dist ** (d + 2 * s)
    np.fill_diagonal(W, 0.0)
    wext = np.zeros(n)
    if exterior:
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        diam = max(float(np.linalg.norm(hi - lo)), max(grid.spacing))
        R = 10.0 * diam
        c = 0.5 * (lo + hi)
        cells = 64
        axes = [np.linspace(c[a] - R, c[a] + R, cells, endpoint=False)
                + R / cells for a in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vol = (2 * R / cells) ** d
        inside = np.all((pts >= lo - 0.5 * np.array(grid.spacing))
                        & (pts <= hi + 0.5 * np.array(grid.spacing)), axis=1)
        pts = pts[~inside]
        for i in range(n):
            r = np.linalg.norm(pts - x[i], axis=1)
            wext[i] = hd * vol * np.sum(1.0 / r ** (d + 2 * s))
    return 2.0 * (np.diag(W.sum(axis=1)) - W) + np.diag(wext)


def fractional_seminorm(u: Field, s: float,
                        exterior: bool = True) -> tuple[float, Field]:
    """Squared nonlocal seminorm with zero extension, plus its gradient."""
    if not 0.0 < s < 1.0:
        raise ConfigurationError("fractional order s must lie in (0,1)")
    Q = _fractional_matrix(u.grid, s, exterior)
    v = u.values
    return float(v @ Q @ v), Field(u.grid, 2.0 * (Q @ v))


@_per_grid
def _kron_modes(grid: Grid, B: float, C: float) -> tuple:
    """The Hessian K = h^d (B D^T D + C I) of a quadratic edge energy on a
    tensor grid in fast-diagonalization form (Lynch, Rice & Thomas 1964):
    K = Q diag(lam) Q^T with Q the Kronecker product of the per-axis
    eigenvector matrices. D^T D is the Kronecker sum of the per-axis
    difference Laplacians, whose boundary rows follow grid_edges (neumann
    one edge, dirichlet a phantom edge too, periodic a wrap). Returns
    (per-axis Q, lam and diag(K) shaped like the grid)."""
    hd = grid.cell_measure
    mats, lam, diag = [], 0.0, 0.0
    for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        if grid.boundary == "periodic":
            L[0, -1] = L[-1, 0] = -1.0
        elif grid.boundary == "neumann":
            L[0, 0] = L[-1, -1] = 1.0
        L /= h * h
        evals, Q = np.linalg.eigh(L)
        mats.append(Q)
        axis = [None] * grid.dim
        axis[a] = slice(None)
        lam = lam + evals[tuple(axis)]
        diag = diag + np.diag(L)[tuple(axis)]
    return mats, hd * (B * lam + C), hd * (B * diag + C)


def energy1_modes(spec: EnergySpec, grid: Grid) -> Optional[tuple]:
    """The state-independent Hessian of phi1 in fast-diagonalization form
    (see _kron_modes), or None unless it is one: the quadratic kind, or
    m_laplace with m = 2 and scalar B and C, on a tensor grid whose
    boundary is not robin (the robin term counts corner nodes once, so
    it is no Kronecker sum)."""
    if grid.domain_kind == "point" or grid.boundary == "robin":
        return None
    if spec.kind == "quadratic":
        return _kron_modes(grid, 0.0, float(spec.gamma))
    if spec.kind == "m_laplace" and spec.m == 2.0 and not any(
            isinstance(c, Field) or np.ndim(c) != 0
            for c in (spec.B, spec.C)):
        return _kron_modes(grid, float(spec.B), float(spec.C))
    return None


def _robin_diag(grid: Grid) -> np.ndarray:
    diag = np.zeros(grid.n_nodes)
    if grid.boundary == "robin":
        bidx = grid.boundary_index_set()
        bmeas = grid.cell_measure / grid.h  # h^{d-1}
        diag[bidx] = bmeas / grid.robin_b
    return diag


def _rows(kernel):
    """Let a kernel written for a stack of states (one per row) take one
    flat state too, giving a float value and a flat gradient for it."""
    @functools.wraps(kernel)
    def on_rows(spec, grid, x, *args, **kwargs):
        val, grad = kernel(spec, grid, np.ascontiguousarray(
            np.atleast_2d(x)), *args, **kwargs)
        return (float(val[0]), grad[0]) if np.ndim(x) == 1 else (val, grad)
    return on_rows


@_rows
def energy1_value_grad(spec: EnergySpec, grid: Grid,
                       x: np.ndarray) -> tuple[float, np.ndarray]:
    """Vector-level phi1: value and euclidean gradient on the flat state,
    or values and gradient rows on a stack of states (one per row)."""
    hd = grid.cell_measure
    if spec.kind == "none":
        return np.zeros(x.shape[0]), np.zeros_like(x)
    if spec.kind == "quadratic":
        return 0.5 * spec.gamma * hd * _rowdot(x, x), spec.gamma * hd * x
    if spec.kind == "fractional":
        Q = _fractional_matrix(grid, spec.s, spec.exterior)
        xQ = np.matmul(x[:, None, :], Q)[:, 0, :]
        val = 0.5 * spec.gamma * hd * _rowdot(x, x) + 0.5 * _rowdot(xQ, x)
        return val, spec.gamma * hd * x + xQ
    if spec.kind == "lv_quadratic":
        # rows u_1, v_1, u_2, v_2, ...: each species is a state of its own
        n = grid.n_nodes
        Y = x.reshape(-1, n)
        Dc = np.tile([spec.D1, spec.D2], x.shape[0])
        Fc = np.tile([spec.F1, spec.F2], x.shape[0])
        ev, eg, _ = _edge_energy(grid, Y, np.ones(n), 2.0)
        a = Dc * ev
        b = 0.5 * Fc * hd * _rowdot(Y, Y)
        val = a[0::2] + b[0::2] + a[1::2] + b[1::2]
        grad = Dc[:, None] * eg + Fc[:, None] * hd * Y
        return val, grad.reshape(x.shape)
    if spec.kind == "m_laplace":
        n = grid.n_nodes
        B = _coef(spec.B, n)
        C = _coef(spec.C, n)
        m = spec.m
        val, grad, _ = _edge_energy(grid, x, B, m)
        val = val + hd * np.sum(C * np.abs(x) ** m, axis=1) / m
        rob = _robin_diag(grid)
        val = val + 0.5 * np.sum(rob * x * x, axis=1)
        grad += hd * C * np.abs(x) ** (m - 2.0) * x + rob * x
        return val, grad
    raise ConfigurationError(f"unhandled energy kind {spec.kind!r}")


def energy1_hessian(spec: EnergySpec, grid: Grid, x: np.ndarray) -> sp.spmatrix:
    """Exact Hessian of phi1 at x as a sparse (or dense-wrapped) matrix.
    For a stack of states (one per row) it is the block diagonal of the
    row Hessians, in the order of x.ravel()."""
    X = np.atleast_2d(x)
    k, n_dof = X.shape
    hd = grid.cell_measure
    if spec.kind == "none":
        return sp.csr_matrix((k * n_dof, k * n_dof))
    if spec.kind == "quadratic":
        return sp.identity(k * n_dof, format="csr") * (spec.gamma * hd)
    if spec.kind == "fractional":
        Q = _fractional_matrix(grid, spec.s, spec.exterior)
        return sp.kron(sp.identity(k, format="csr"),
                       sp.csr_matrix(Q + spec.gamma * hd * np.eye(n_dof)),
                       format="csr")
    if spec.kind == "lv_quadratic":
        n = grid.n_nodes
        _, _, curv = _edge_energy(grid, X.reshape(-1, n), np.tile(
            [[spec.D1], [spec.D2]], (k, n)), 2.0)
        return (_edge_hessian(grid, curv) + sp.diags(np.repeat(
            np.tile([spec.F1, spec.F2], k) * hd, n))).tocsr()
    if spec.kind == "m_laplace":
        B = _coef(spec.B, grid.n_nodes)
        C = _coef(spec.C, grid.n_nodes)
        _, _, curv = _edge_energy(grid, X, B, spec.m)
        diag = hd * C * (spec.m - 1.0) * np.abs(X) ** (spec.m - 2.0) \
            + _robin_diag(grid)
        return (_edge_hessian(grid, curv) + sp.diags(diag.ravel())).tocsr()
    raise ConfigurationError(f"unhandled energy kind {spec.kind!r}")


@_rows
def energy2_value_grad(spec: EnergySpec, grid: Grid, x: np.ndarray,
                       n_slice=0) -> tuple[float, np.ndarray]:
    """Vector-level phi2 = concave power part + forcing pairing; on a stack
    of states n_slice holds each row's time slice."""
    hd = grid.cell_measure
    n_dof = x.shape[1]
    val = np.zeros(x.shape[0])
    grad = np.zeros_like(x)
    if spec.concave_q is not None:
        q = spec.concave_q
        D = _coef(spec.concave_D, n_dof)
        val += hd * np.sum(D * np.abs(x) ** q, axis=1) / q
        if q == 2.0:
            grad += hd * D * x
        else:
            # analytic subgradient selection at 0 is 0 (exact for q > 1)
            nz = x != 0.0
            g = np.zeros_like(x)
            g[nz] = np.abs(x[nz]) ** (q - 2.0) * x[nz]
            grad += hd * D * g
    f = spec.forcing_at(n_slice, n_dof)
    val += hd * _rowdot(f, x)
    grad += hd * f
    return val, grad


# ---------------------------------------------------------------------------
# Reactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReactionSpec:
    """kind "none", "constant_g" (time-indexed nodal density), or
    "lotka_volterra" with the clamped interaction terms."""

    kind: str = "none"
    g: Optional[np.ndarray] = None
    A: float = 1.0
    K: float = 1.0
    B: float = 0.0
    C: float = 0.0
    E: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "constant_g", "lotka_volterra"):
            raise ConfigurationError(f"unknown reaction kind {self.kind!r}")
        if self.kind == "lotka_volterra":
            if self.A <= 0 or self.K <= 0:
                raise ConfigurationError("growth rate A and cap K must be positive")
            if self.B < 0 or self.C < 0 or self.E < 0:
                raise ConfigurationError("interaction constants must be nonnegative")


def reaction_eval(spec: ReactionSpec, state, n_slice: int = 0):
    """Nodal reaction density. LV takes and returns an (u, v) pair of
    arrays; the clamps U = min(u,K)^+ and V = v^+ are applied internally."""
    if spec.kind == "none":
        if isinstance(state, tuple):
            return tuple(np.zeros_like(np.asarray(s, float)) for s in state)
        return np.zeros_like(np.asarray(state, float))
    if spec.kind == "constant_g":
        g = np.asarray(spec.g, dtype=float)
        return g[n_slice] if g.ndim == 2 else g
    if not isinstance(state, tuple) or len(state) != 2:
        raise ConfigurationError("lotka_volterra reaction needs an (u, v) pair")
    u, v = (np.asarray(s, dtype=float) for s in state)
    U = np.maximum(np.minimum(u, spec.K), 0.0)
    V = np.maximum(v, 0.0)
    inter = U * V / (1.0 + spec.E * V)
    fu = spec.A * U * (1.0 - U / spec.K) - spec.B * inter
    fv = spec.C * inter
    return fu, fv


def lv_clamp(spec: ReactionSpec, u: np.ndarray, v: np.ndarray):
    """The clamp map R(u,v) = (min(u,K)^+, v^+)."""
    return (np.maximum(np.minimum(u, spec.K), 0.0), np.maximum(v, 0.0))


# ---------------------------------------------------------------------------
# Growth certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GrowthCertificate:
    """Sampled-validation constants: phi2 <= k phi1 + C1 and
    |f|^{p'} <= C2 (|u|^p + 1). Never proved, only falsified."""

    k: float = 0.5
    C1: float = 1.0
    C2: float = 10.0
    samples: int = 100

    def __post_init__(self):
        if not 0.0 <= self.k < 1.0:
            raise ConfigurationError("growth constant k must lie in [0,1)")
        if self.C1 < 0 or self.C2 < 0:
            raise ConfigurationError("growth constants must be nonnegative")


def validate_growth(cert: GrowthCertificate, grid: Grid,
                    energy1: EnergySpec, energy2: EnergySpec,
                    reaction: ReactionSpec, dissipation: DissipationSpec,
                    seed: int = 0) -> dict:
    """Sample random states and report the worst margins of both growth
    inequalities. Margins >= 0 mean the certificate holds on the sample."""
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    hd = grid.cell_measure
    p = dissipation.p
    pc = p_conjugate(p)
    X = rng.normal(scale=2.0, size=(cert.samples, n * (1 + (
        energy1.kind == "lv_quadratic"))))
    v1, _ = energy1_value_grad(energy1, grid, X)
    v2, _ = energy2_value_grad(energy2, grid, X, 0)
    m1 = np.min(cert.k * v1 + cert.C1 - v2, initial=np.inf)
    if reaction.kind == "lotka_volterra":
        f = np.hstack(reaction_eval(reaction, (X[:, :n], X[:, n:])))
    else:
        f = np.broadcast_to(reaction_eval(reaction, X), X.shape)
    fnorm = hd * np.sum(np.abs(f) ** pc, axis=1)
    unorm = hd * np.sum(np.abs(X) ** p, axis=1)
    m2 = np.min(cert.C2 * (unorm + 1.0) - fnorm, initial=np.inf)
    return {"phi2_margin": float(m1), "reaction_margin": float(m2),
            "samples": cert.samples, "seed": seed,
            "passed": bool(m1 >= 0.0 and m2 >= 0.0)}
