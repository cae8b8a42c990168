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
    for a in range(grid.dim):
        if grid.boundary == "periodic":
            i = idx
            j = np.roll(idx, -1, axis=a)
            src.append(i.ravel())
            dst.append(j.ravel())
            hs.append(np.full(i.size, grid.spacing[a]))
        else:
            sl_lo = [slice(None)] * grid.dim
            sl_hi = [slice(None)] * grid.dim
            sl_lo[a] = slice(None, -1)
            sl_hi[a] = slice(1, None)
            i = idx[tuple(sl_lo)]
            j = idx[tuple(sl_hi)]
            src.append(i.ravel())
            dst.append(j.ravel())
            hs.append(np.full(i.size, grid.spacing[a]))
            if grid.boundary == "dirichlet":
                sl_first = [slice(None)] * grid.dim
                sl_last = [slice(None)] * grid.dim
                sl_first[a] = 0
                sl_last[a] = -1
                for end in (sl_first, sl_last):
                    b = np.atleast_1d(idx[tuple(end)]).ravel()
                    src.append(b)
                    dst.append(np.full(b.size, -1))
                    hs.append(np.full(b.size, grid.spacing[a]))
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    hs = np.concatenate(hs)
    return src, dst, hs, dst < 0


def edge_differences(grid: Grid, u: np.ndarray,
                     edges=None) -> tuple[np.ndarray, np.ndarray]:
    """(u_j - u_i)/h per edge (phantom j contributes 0), and the edge measure
    h^d (the h in the difference cancels one spacing factor of the cell)."""
    if edges is None:
        edges = grid_edges(grid)
    src, dst, hs, phantom = edges
    uj = np.where(phantom, 0.0, u[np.where(phantom, 0, dst)])
    diffs = (uj - u[src]) / hs
    emeas = np.full(src.size, grid.cell_measure)
    return diffs, emeas


def graph_laplacian(grid: Grid, coeff: float = 1.0) -> Optional[sp.spmatrix]:
    """Matrix L with u @ L @ u = coeff * Sum_edges |d|^2 * h^d; the exact
    Hessian of the quadratic edge energy (coeff/1) * Sum d^2 emeas.
    None for point grids (no edges)."""
    if grid.domain_kind == "point" or coeff == 0.0:
        return None
    src, dst, hs, phantom = grid_edges(grid)
    n = grid.n_nodes
    wgt = coeff * grid.cell_measure / (hs * hs)
    rows = [src, src[~phantom], dst[~phantom], dst[~phantom]]
    cols = [src, dst[~phantom], src[~phantom], dst[~phantom]]
    data = [wgt, -wgt[~phantom], -wgt[~phantom], wgt[~phantom]]
    return sp.csr_matrix((np.concatenate(data),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

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


_frac_cache: dict = {}


def _fractional_matrix(grid: Grid, s: float, exterior: bool) -> np.ndarray:
    """Dense symmetric PSD matrix Q with [u]^2 = u^T Q u.

    Q = 2(diag(row sums) - W) + diag(w_ext), W_ij = h^{2d}/|x_i-x_j|^{d+2s}.
    The zero exterior extension is integrated by midpoint quadrature (64
    cells per axis) over a box of radius 10 diam(Omega) minus the domain.
    """
    key = (id(grid), grid.shape, grid.spacing, grid.boundary, s, exterior)
    if key in _frac_cache:
        return _frac_cache[key]
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
    Q = 2.0 * (np.diag(W.sum(axis=1)) - W) + np.diag(wext)
    _frac_cache[key] = Q
    return Q


def fractional_seminorm(u: Field, s: float,
                        exterior: bool = True) -> tuple[float, Field]:
    """Squared nonlocal seminorm with zero extension, plus its gradient."""
    if not 0.0 < s < 1.0:
        raise ConfigurationError("fractional order s must lie in (0,1)")
    Q = _fractional_matrix(u.grid, s, exterior)
    v = u.values
    return float(v @ Q @ v), Field(u.grid, 2.0 * (Q @ v))


def _robin_diag(grid: Grid) -> np.ndarray:
    diag = np.zeros(grid.n_nodes)
    if grid.boundary == "robin":
        bidx = grid.boundary_index_set()
        bmeas = grid.cell_measure / grid.h  # h^{d-1}
        diag[bidx] = bmeas / grid.robin_b
    return diag


def energy1_value_grad(spec: EnergySpec, grid: Grid,
                       x: np.ndarray) -> tuple[float, np.ndarray]:
    """Vector-level phi1: value and euclidean gradient on the flat state."""
    hd = grid.cell_measure
    if spec.kind == "none":
        return 0.0, np.zeros_like(x)
    if spec.kind == "quadratic":
        return 0.5 * spec.gamma * hd * float(x @ x), spec.gamma * hd * x
    if spec.kind == "fractional":
        Q = _fractional_matrix(grid, spec.s, spec.exterior)
        val = 0.5 * spec.gamma * hd * float(x @ x) + 0.5 * float(x @ Q @ x)
        return val, spec.gamma * hd * x + Q @ x
    if spec.kind == "lv_quadratic":
        n = grid.n_nodes
        u, v = x[:n], x[n:]
        val = 0.0
        grad = np.empty_like(x)
        for comp, (D, F, w) in enumerate(((spec.D1, spec.F1, u),
                                          (spec.D2, spec.F2, v))):
            diffs, emeas = edge_differences(grid, w)
            val += 0.5 * D * float(np.sum(diffs * diffs * emeas))
            val += 0.5 * F * hd * float(w @ w)
            g = _mlaplace_grad(grid, w, np.full(w.size, D), 2.0)
            grad[comp * n:(comp + 1) * n] = g + F * hd * w
        return val, grad
    if spec.kind == "m_laplace":
        n = grid.n_nodes
        B = _coef(spec.B, n)
        C = _coef(spec.C, n)
        m = spec.m
        edges = grid_edges(grid)
        diffs, emeas = edge_differences(grid, x, edges)
        Be = B[edges[0]]
        val = float(np.sum(Be * np.abs(diffs) ** m * emeas)) / m
        val += hd * float(np.sum(C * np.abs(x) ** m)) / m
        rob = _robin_diag(grid)
        val += 0.5 * float(np.sum(rob * x * x))
        grad = _mlaplace_grad(grid, x, B, m, edges)
        grad += hd * C * np.abs(x) ** (m - 2.0) * x + rob * x
        return val, grad
    raise ConfigurationError(f"unhandled energy kind {spec.kind!r}")


def _mlaplace_grad(grid: Grid, x: np.ndarray, B: np.ndarray, m: float,
                   edges=None) -> np.ndarray:
    if edges is None:
        edges = grid_edges(grid)
    src, dst, hs, phantom = edges
    diffs, emeas = edge_differences(grid, x, edges)
    # d/dD of (1/m)|D|^m is |D|^{m-2} D; chain rule through D = (u_j-u_i)/h
    force = B[src] * np.abs(diffs) ** (m - 2.0) * diffs * emeas / hs
    grad = np.zeros_like(x)
    np.subtract.at(grad, src, force)
    real = ~phantom
    np.add.at(grad, dst[real], force[real])
    return grad


def energy1_hessian(spec: EnergySpec, grid: Grid, x: np.ndarray) -> sp.spmatrix:
    """Exact Hessian of phi1 at x as a sparse (or dense-wrapped) matrix."""
    n_dof = x.size
    hd = grid.cell_measure
    if spec.kind == "none":
        return sp.csr_matrix((n_dof, n_dof))
    if spec.kind == "quadratic":
        return sp.identity(n_dof, format="csr") * (spec.gamma * hd)
    if spec.kind == "fractional":
        Q = _fractional_matrix(grid, spec.s, spec.exterior)
        return sp.csr_matrix(Q + spec.gamma * hd * np.eye(n_dof))
    if spec.kind == "lv_quadratic":
        n = grid.n_nodes
        Hu = _mlaplace_hessian(grid, x[:n], np.full(n, spec.D1), 2.0)
        Hv = _mlaplace_hessian(grid, x[n:], np.full(n, spec.D2), 2.0)
        Hu = Hu + sp.identity(n) * (spec.F1 * hd)
        Hv = Hv + sp.identity(n) * (spec.F2 * hd)
        return sp.block_diag((Hu, Hv), format="csr")
    if spec.kind == "m_laplace":
        B = _coef(spec.B, grid.n_nodes)
        C = _coef(spec.C, grid.n_nodes)
        H = _mlaplace_hessian(grid, x, B, spec.m)
        diag = hd * C * (spec.m - 1.0) * np.abs(x) ** (spec.m - 2.0)
        return H + sp.diags(diag + _robin_diag(grid))
    raise ConfigurationError(f"unhandled energy kind {spec.kind!r}")


def _mlaplace_hessian(grid: Grid, x: np.ndarray, B: np.ndarray,
                      m: float) -> sp.spmatrix:
    src, dst, hs, phantom = grid_edges(grid)
    diffs, emeas = edge_differences(grid, x)
    w = B[src] * (m - 1.0) * np.abs(diffs) ** (m - 2.0) * emeas / hs ** 2
    n = grid.n_nodes
    rows, cols, vals = [src, ], [src, ], [w, ]
    real = ~phantom
    rows.append(dst[real])
    cols.append(dst[real])
    vals.append(w[real])
    rows.append(src[real])
    cols.append(dst[real])
    vals.append(-w[real])
    rows.append(dst[real])
    cols.append(src[real])
    vals.append(-w[real])
    H = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return H


def energy2_value_grad(spec: EnergySpec, grid: Grid, x: np.ndarray,
                       n_slice: int = 0) -> tuple[float, np.ndarray]:
    """Vector-level phi2 = concave power part + forcing pairing."""
    hd = grid.cell_measure
    val = 0.0
    grad = np.zeros_like(x)
    if spec.concave_q is not None:
        q = spec.concave_q
        D = _coef(spec.concave_D, x.size)
        val += hd * float(np.sum(D * np.abs(x) ** q)) / q
        if q == 2.0:
            grad += hd * D * x
        else:
            # analytic subgradient selection at 0 is 0 (exact for q > 1)
            nz = x != 0.0
            g = np.zeros_like(x)
            g[nz] = np.abs(x[nz]) ** (q - 2.0) * x[nz]
            grad += hd * D * g
    f = spec.forcing_at(n_slice, x.size)
    val += hd * float(f @ x)
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
    m1 = np.inf
    m2 = np.inf
    pair = energy1.kind == "lv_quadratic"
    for _ in range(cert.samples):
        x = rng.normal(scale=2.0, size=2 * n if pair else n)
        v1, _ = energy1_value_grad(energy1, grid, x)
        v2, _ = energy2_value_grad(energy2, grid, x, 0)
        m1 = min(m1, cert.k * v1 + cert.C1 - v2)
        if reaction.kind == "lotka_volterra":
            fu, fv = reaction_eval(reaction, (x[:n], x[n:]))
            fnorm = hd * float(np.sum(np.abs(np.concatenate([fu, fv])) ** pc))
        else:
            f = reaction_eval(reaction, x)
            fnorm = hd * float(np.sum(np.abs(f) ** pc))
        unorm = hd * float(np.sum(np.abs(x) ** p))
        m2 = min(m2, cert.C2 * (unorm + 1.0) - fnorm)
    return {"phi2_margin": float(m1), "reaction_margin": float(m2),
            "samples": cert.samples, "seed": seed,
            "passed": bool(m1 >= 0.0 and m2 >= 0.0)}
