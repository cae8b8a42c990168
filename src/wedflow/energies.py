"""Dissipation potentials, state energies (the fractional seminorm
among them) and reaction terms, each with value and analytic gradient.

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
import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ._newton import band_diagonals, pattern_plan
from .grids import ConfigurationError, Grid, float_array, number


def p_conjugate(p: float) -> float:
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# Dissipation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationSpec:
    """psi(v) = sum_i A(v_i) h^d with A(s) = integral of a nondecreasing
    alpha from 0 to s. Power kind: alpha(s) = |s|^(p-2) s. Table kind:
    the piecewise-linear alpha through (table_s, table_alpha); p does not
    enter alpha or A there, and sets only the exponent of the fixed-point
    norm (wed._traj_norm) and of the strong residual (its conjugate in
    wed.strong_solution_residual)."""

    p: float = 2.0
    alpha_kind: str = "power"
    # piecewise-linear alpha for alpha_kind="table"
    table_s: Optional[np.ndarray] = None
    table_alpha: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p", number(self.p, "p", above=1.0))
        if self.alpha_kind not in ("power", "table"):
            raise ConfigurationError(f"unknown alpha_kind {self.alpha_kind!r}",
                                     "alpha_kind")
        if self.alpha_kind == "table":
            s = float_array(self.table_s, "table_s", (None,))
            if s.size < 2 or np.any(np.diff(s) <= 0):
                raise ConfigurationError("the alpha table needs two or more "
                                         "knots s, increasing", "table_s")
            a = float_array(self.table_alpha, "table_alpha", s.shape)
            if np.any(np.diff(a) < 0):
                raise ConfigurationError("the alpha table must not decrease",
                                         "table_alpha")
            object.__setattr__(self, "table_s", s)
            object.__setattr__(self, "table_alpha", a)
        elif self.table_s is not None or self.table_alpha is not None:
            raise ConfigurationError(
                "a power alpha takes no table",
                "table_s" if self.table_s is not None else "table_alpha")


def _interp(v: np.ndarray, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """np.interp(v, s, a), whose float64 bits this is, except for an
    np.longdouble v (the extended-precision polish of _newton), which
    np.interp cannot take: that is interpolated in v's precision, with
    the same constant ends outside [s_0, s_-1]."""
    if np.asarray(v).dtype != np.longdouble:
        return np.interp(v, s, a)
    i = np.clip(np.searchsorted(s, v, side="right") - 1, 0, s.size - 2)
    out = a[i] + (v - s[i]) * ((a[i + 1] - a[i]) / (s[i + 1] - s[i]))
    return np.where(v < s[0], a[0], np.where(v > s[-1], a[-1], out))


def alpha_eval(spec: DissipationSpec, v: np.ndarray) -> np.ndarray:
    if spec.alpha_kind == "power":
        if spec.p == 2.0:
            return v.copy()
        out = np.zeros_like(v)
        nz = v != 0.0
        out[nz] = np.abs(v[nz]) ** (spec.p - 2.0) * v[nz]
        return out
    return _interp(v, spec.table_s, spec.table_alpha)


def alpha_prime(spec: DissipationSpec, v: np.ndarray) -> np.ndarray:
    """Pointwise slope of alpha (a.e. derivative for the table kind)."""
    if spec.alpha_kind == "power":
        if spec.p == 2.0:
            return np.ones_like(v)
        # p < 2 has unbounded slope at 0, where the power is 1 / 0 = inf
        # (expected, so not warned of); cap it so Newton diagonals stay
        # finite
        with np.errstate(divide="ignore"):
            out = np.abs(v) ** (spec.p - 2.0)
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
    av = _interp(v, s, a)
    Av = knots_A[idx] + 0.5 * (av + a[idx]) * (v - s[idx])
    return Av - A0


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
    grid's field values (Grid compares by identity), for the life of the
    process; the cache is the wrapper's `cache` attribute."""
    cache = {}

    @functools.wraps(build)
    def cached(grid: Grid, *params):
        key = (grid.dim, grid.shape, grid.spacing, grid.boundary,
               grid.domain_kind, grid.robin_b, *params)
        if key not in cache:
            cache[key] = build(grid, *params)
        return cache[key]
    cached.cache = cache
    return cached


@_per_grid
def _edge_operator(grid: Grid) -> tuple:
    """(grid_edges(grid), D, D.T): D is the sparse edge-difference
    operator, (D u)_e = (u_j - u_i)/h, phantom edges keeping only their
    -1/h; its transpose (a csc view of D's arrays) is kept, so that a
    gradient D^T f builds none."""
    edges = grid_edges(grid)
    src, dst, hs, phantom = edges
    rows = np.arange(src.size)
    real = ~phantom
    D = sp.csr_matrix(
        (np.concatenate([-1.0 / hs, 1.0 / hs[real]]),
         (np.concatenate([rows, rows[real]]),
          np.concatenate([src, dst[real]]))),
        shape=(src.size, grid.n_nodes))
    return edges, D, D.T


class _EdgeFacts:
    """What the edge terms of one grid read on every call, found once per
    grid beside its _edge_operator (see _edge_facts)."""

    def __init__(self, grid: Grid):
        (src, dst, hs, phantom), _, self.DT = _edge_operator(grid)
        self.src = src
        # node j of every edge, a phantom's replaced by node 0, and the
        # phantom edges, whose u_j is then set to 0.0 (None without any)
        self.dst = np.where(phantom, 0, dst)
        self.phantom = np.flatnonzero(phantom) if phantom.any() else None
        # whether edge e joins node e to node e + 1 (a 1D grid without
        # wrap or phantom), so that the differences are of two slices
        self.chain = src.size > 0 and self.phantom is None \
            and np.array_equal(src, np.arange(src.size)) \
            and np.array_equal(dst, src + 1)
        # one spacing for every edge, as a float, where there is one
        self.h = float(hs[0]) if hs.size and np.all(hs == hs[0]) else hs
        self.hd = grid.cell_measure
        self.emeas = np.full(src.size, self.hd)
        self.rob = _robin_diag(grid)
        bidx = np.flatnonzero(self.rob)
        # the robin boundary nodes and their coefficient; None without
        self.robin = (bidx, float(self.rob[bidx[0]])) if bidx.size else None
        for a in (self.dst, self.emeas, self.rob):
            a.flags.writeable = False


@_per_grid
def _edge_facts(grid: Grid) -> _EdgeFacts:
    """The grid's _EdgeFacts, cached as its _edge_operator is."""
    return _EdgeFacts(grid)


def _differences(facts: _EdgeFacts, u: np.ndarray) -> np.ndarray:
    """The edge differences of edge_differences, a fresh array: u_j - u_i
    by one subtraction per edge, of two slices on a chain, else of two
    gathers with each phantom u_j set to 0.0 (what np.where(phantom, 0.0,
    u_j) gives), and divided by the spacing, a float where every edge has
    it (an array of one value divides alike)."""
    if u.dtype.kind != "f":
        u = u.astype(float)
    if facts.chain:
        d = u[..., 1:facts.src.size + 1] - u[..., :facts.src.size]
    else:
        # np.take keeps stacked rows C-ordered, so row sums round as 1D sums
        d = np.take(u, facts.dst, -1)
        if facts.phantom is not None:
            d[..., facts.phantom] = 0.0
        d -= np.take(u, facts.src, -1)
    d /= facts.h
    return d


def edge_differences(grid: Grid, u: np.ndarray) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """(u_j - u_i)/h per edge (phantom j contributes 0), and the edge measure
    h^d (the h in the difference cancels one spacing factor of the cell).
    For a stack of states (one per row) the differences are rows too.

    The grid's facts (_edge_facts) are found once per grid, so a call
    makes only the differences: no gather on a 1D grid without wrap or
    phantom (the difference of two slices has the same operands), no
    np.where pass where the grid has no phantom edge, one float spacing
    on a uniform grid, and the edge measures are the grid's one read-only
    array. Every difference has the bits of the gather-and-where form."""
    facts = _edge_facts(grid)
    return _differences(facts, np.asarray(u)), facts.emeas


def graph_laplacian(grid: Grid, coeff: float = 1.0) -> Optional[sp.spmatrix]:
    """Matrix L = coeff h^d D^T D, so u @ L @ u = coeff * Sum_edges |d|^2 h^d;
    the exact Hessian of the quadratic edge energy (coeff/1) * Sum d^2 emeas.
    None for point grids (no edges)."""
    if grid.domain_kind == "point" or coeff == 0.0:
        return None
    _, D, DT = _edge_operator(grid)
    return ((coeff * grid.cell_measure) * (DT @ D)).tocsr()


def _at_edges(B, facts: _EdgeFacts):
    """The coefficient B read at each edge's source node: None (B = 1) and
    a float stay as they are, a nodal array (or a stack of them) is
    gathered."""
    return B if B is None or np.ndim(B) == 0 else B[..., facts.src]


def _edge_energy(grid: Grid, X: np.ndarray, B, m: float,
                 value: bool = True):
    """Per row of the state stack X: the value Sum_e B_i |d_e|^m h^d / m
    (None unless value) and the gradient D^T f. The coefficient B, read at
    each edge's source node, is None where it is 1, a float, or nodal.

    B = 1 is a factor of exactly 1.0 and a uniform edge measure h^d
    multiplies as the float does, so neither is an array pass; the
    products keep their order, ((B |d|^{m-2}) d) h^d, so every entry has
    the bits of the all-terms form."""
    facts = _edge_facts(grid)
    diffs = _differences(facts, X)
    Be = _at_edges(B, facts)
    val = None
    if value:
        # in place (a product commutes bit for bit), and gone before the
        # gradient's arrays are made
        power = np.abs(diffs) ** m
        if Be is not None:
            power *= Be
        power *= facts.hd
        val = np.sum(power, axis=-1) / m
        del power
    # d/dd of (1/m)|d|^m is |d|^{m-2} d; chain rule through d = D u. At
    # m = 2 the power is |d|^0 = 1 (NaN and inf included) and Be * 1 is
    # Be, so leaving it out gives the same bits without a pow per edge
    if m == 2.0:
        force = diffs if Be is None else Be * diffs
    else:
        force = np.abs(diffs) ** (m - 2.0)
        if Be is not None:
            force = Be * force
        force *= diffs
    force *= facts.hd
    grad = (facts.DT @ force.T).T
    return val, grad


def _edge_curvature(grid: Grid, X: np.ndarray, B, m: float):
    """Per row of the state stack X: the weights w of the edge energy's
    Hessian D^T diag(w) D (see _edge_energy; B None where it is 1)."""
    facts = _edge_facts(grid)
    Be = _at_edges(B, facts)
    scale = (m - 1.0) if Be is None else Be * (m - 1.0)
    return scale * np.abs(_differences(facts, X)) ** (m - 2.0) * facts.hd


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y per row (rows broadcast), rounded exactly as the single-row
    dot: batched matmul calls the same kernel once per row."""
    return np.matmul(np.ascontiguousarray(x)[..., None, :],
                     np.ascontiguousarray(y)[..., :, None])[..., 0, 0]


def polyval(x: np.ndarray, c) -> np.ndarray:
    """np.polynomial.polynomial.polyval(x, c) for ascending coefficients
    c, by Horner's rule with polyval's own operations, so with its bits,
    but without its per-call overhead. Where polyval computes c_k + v * x
    into new arrays, this multiplies and adds in place on the one fresh
    array x * 0.0; IEEE addition and multiplication are commutative, so
    every bit stays. Python float coefficients (as polynomial gives them)
    are the cheapest to add. c = None, a derivative that vanishes
    identically (see polynomial), gives zeros like x."""
    if c is None:
        return np.zeros_like(x)
    v = x * 0.0
    v += c[-1]
    for ci in c[-2::-1]:
        v *= x
        v += ci
    return v


def polynomial(coeffs, field: str) -> tuple:
    """(c, (d1, d2)): the ascending coefficients coeffs as a tuple of
    Python floats, and those of its first and second derivatives, each
    None where it vanishes identically (degree below 1, resp. 2);
    ConfigurationError naming field unless coeffs is one or more finite
    numbers whose derivatives do not overflow."""
    c = float_array(coeffs, field, (None,))
    if not c.size:
        raise ConfigurationError(f"{field} needs at least one coefficient",
                                 field)
    with np.errstate(over="ignore"):
        ders = tuple(tuple(float(d) for d in
                           np.polynomial.polynomial.polyder(c, k))
                     if c.size > k else None for k in (1, 2))
    if not all(map(math.isfinite, chain.from_iterable(filter(None, ders)))):
        raise ConfigurationError("the derivatives' coefficients overflow",
                                 field)
    return tuple(c.tolist()), ders


def probe_polyvals(cs, r: float, fields: tuple) -> tuple:
    """(s, [polyval(s, c) for c in cs]) on a constructor's probe sample s,
    257 points of [-r, r], r >= 10. A value that is not finite raises a
    ConfigurationError, not a warning. It names fields[0], the
    coefficients, where the values overflow on [-10, 10] already, else
    fields[1], the data that widened the range to r."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.linspace(-r, r, 257)
        vals = [polyval(s, c) for c in cs]
        if all(np.isfinite(v).all() for v in vals):
            return s, vals
        s = np.linspace(-10.0, 10.0, 257)
        inner = all(np.isfinite(polyval(s, c)).all() for c in cs)
    raise ConfigurationError(f"the polynomial overflows on the probe range "
                             f"|u| <= {r if inner else 10.0:.3g}",
                             fields[int(inner)])


def _rowmul(A, X: np.ndarray) -> np.ndarray:
    """A @ x for every row x of the stack X (any leading axes), each row
    rounded as the single product: the sparse product's sum for one entry
    runs over the same nonzeros in the same order, however many rows."""
    return (A @ X.reshape(-1, X.shape[-1]).T).T.reshape(
        *X.shape[:-1], A.shape[0])


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

def _require_nonnegative(spec, names, nodal: bool = False) -> None:
    """Check the coefficients names of spec, finite and nonnegative: one
    number each or, where nodal, an array of them too. Each is stored as
    its intake returns it, a float, or a nodal array as the float64 array;
    ConfigurationError naming the first at fault."""
    for name in names:
        if nodal:
            value = float_array(getattr(spec, name), name)
            if np.any(value < 0.0):
                raise ConfigurationError(
                    f"coefficient {name} must be nonnegative", name)
            value = float(value) if value.ndim == 0 else value
        else:
            value = number(getattr(spec, name), name, at_least=0.0)
        object.__setattr__(spec, name, value)


@dataclass(frozen=True, eq=False)
class EnergySpec:
    """Parameters of the convex state energy phi1, selected by `kind`:
    quadratic(gamma), m_laplace(m, B, C, robin via grid), fractional
    (s, gamma, exterior), lv_quadratic(D1, D2, F1, F2) acting on stacked
    (u, v) pairs. B and C are one number or one per node (WedProblem
    checks the count against its grid), every other coefficient one
    number. The constructor stores what its checks return: floats, the
    float64 array of a nodal coefficient and exterior as a bool.
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

    def __post_init__(self):
        if self.kind not in ("quadratic", "m_laplace", "fractional",
                             "lv_quadratic"):
            raise ConfigurationError(f"unknown energy kind {self.kind!r}",
                                     "kind")
        object.__setattr__(self, "m", number(
            self.m, "m",
            at_least=2.0 if self.kind == "m_laplace" else -math.inf))
        fractional = self.kind == "fractional"
        object.__setattr__(self, "s", number(
            self.s, "s", above=0.0 if fractional else -math.inf,
            below=1.0 if fractional else math.inf))
        if not isinstance(self.exterior, (bool, np.bool_)):
            raise ConfigurationError("exterior must be true or false, not "
                                     f"{type(self.exterior).__name__}",
                                     "exterior")
        object.__setattr__(self, "exterior", bool(self.exterior))
        # phi1 must be convex: 2D solves factor its Hessian as SPD
        _require_nonnegative(self, ("gamma", "D1", "D2", "F1", "F2"))
        _require_nonnegative(self, ("B", "C"), nodal=True)

    @functools.cached_property
    def _coefs(self) -> tuple:
        """(B, C, C_live): the m_laplace coefficients as its gradient and
        Hessian read them, found once per spec. B is None where every
        entry is 1 (a factor of exactly 1.0), and B and C are otherwise as
        stored, a float or the nodal array; broadcast, a float rounds as
        the array np.full would give. C_live is False where the
        gradient's term h^d C |x|^{m-2} x is +-0.0 for every finite x: C is
        zero everywhere and m <= 3, so |x|^{m-2} <= max(1, |x|) is finite
        (at m > 3 it can overflow, and 0 * inf is NaN)."""
        B, C = self.B, self.C
        return (None if np.all(B == 1.0) else B, C,
                bool(np.any(C != 0.0)) or self.m > 3.0)


@dataclass(frozen=True, eq=False)
class ConcaveSpec:
    """phi2(u) = sum_i D_i |u_i|^q h^d / q with q = concave_q and
    D = concave_D >= 0, the convex power term whose negative is the
    concave perturbation; phi2 = 0 without concave_q. concave_D is one
    number or one per degree of freedom (WedProblem checks the count), and
    both are stored as checked."""

    concave_q: Optional[float] = None
    concave_D: object = 1.0

    def __post_init__(self):
        if self.concave_q is not None:
            object.__setattr__(self, "concave_q", number(
                self.concave_q, "concave_q", above=1.0))
        _require_nonnegative(self, ("concave_D",), nodal=True)


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


# The axis length from which _kron_modes hands an axis to the numpy.fft
# transforms of _newton.FastDiagonalization instead of a dense Q, per
# boundary kind: the shortest of the lengths timed (n, or n + 1 for
# dirichlet, in 96, 128, 160, 192, 224, 256, 320, 384, 512, 640, 768,
# 1024) from which Q^T then Q by FFT took no longer than the two dense
# products, for 64 and for 512 states at a time (the 1D n = 512, N = 64
# and the 2D 32 x 32, N = 16 solves of the benchmark), one thread, numpy
# 2.4. At 64 states the FFT wins from about 160 nodes on (dirichlet's
# transform is twice as long); at 512 states, where the dense product
# runs at BLAS speed, from 256 (dirichlet 640). An FFT length with a large
# prime factor costs more: 131 or 193 nodes took 4-5x the dense time,
# and the break-even moves to about 1,000 nodes.
FFT_CROSSOVER = {"neumann": 256, "dirichlet": 640, "periodic": 256}


def axis_eigenvalues(kind: str, n: int, h: float) -> np.ndarray:
    """The eigenvalues, ascending, of the difference Laplacian of one
    uniform axis of n nodes and spacing h, whose boundary rows follow
    grid_edges: (4/h^2) sin^2(theta_k) with theta_k = pi k/2n, k = 0..n-1
    (neumann), pi k/2(n+1), k = 1..n (dirichlet), and pi k/n with
    k = 0, 1, 1, 2, 2, .. (periodic, each wave number once for its cosine
    and once for its sine, the alternating mode of an even n once)."""
    if kind == "neumann":
        theta = np.pi / (2 * n) * np.arange(n)
    elif kind == "dirichlet":
        theta = np.pi / (2 * (n + 1)) * np.arange(1, n + 1)
    else:
        theta = np.pi / n * ((np.arange(n) + 1) // 2)
    return 4.0 / (h * h) * np.sin(theta) ** 2


def axis_eigenvectors(kind: str, n: int) -> np.ndarray:
    """The orthonormal eigenvectors of axis_eigenvalues(kind, n, h) as the
    columns of a dense n x n Q, in their order: the DCT-II basis
    c_k cos(pi k (2j+1)/2n) (neumann), the DST-I basis sqrt(2/(n+1))
    sin(pi (j+1)(k+1)/(n+1)) (dirichlet), and the real Fourier basis
    1/sqrt(n), then sqrt(2/n) cos(2 pi k j/n) and sqrt(2/n) sin(2 pi k j/n)
    per wave number, then (-1)^j/sqrt(n) for an even n (periodic). Each
    angle is reduced to one period in integers first."""
    j = np.arange(n)[:, None]
    if kind == "neumann":
        Q = np.sqrt(2.0 / n) * np.cos(
            np.pi / (2 * n) * ((2 * j + 1) * np.arange(n) % (4 * n)))
        Q[:, 0] = np.sqrt(1.0 / n)
    elif kind == "dirichlet":
        Q = np.sqrt(2.0 / (n + 1)) * np.sin(
            np.pi / (n + 1) * ((j + 1) * np.arange(1, n + 1) % (2 * n + 2)))
    else:
        k = (np.arange(n) + 1) // 2
        angle = 2.0 * np.pi / n * (j * k % n)
        Q = np.sqrt(2.0 / n) * np.where(np.arange(n) % 2 == 1,
                                        np.cos(angle), np.sin(angle))
        Q[:, 0] = np.sqrt(1.0 / n)
        if n % 2 == 0:
            Q[:, -1] = np.where(j[:, 0] % 2 == 0, 1.0, -1.0) / np.sqrt(n)
    return Q


@_per_grid
def _kron_modes(grid: Grid, B: float, C: float) -> tuple:
    """The Hessian K = h^d (B D^T D + C I) of a quadratic edge energy on a
    tensor grid in fast-diagonalization form (Lynch, Rice & Thomas 1964):
    K = Q diag(lam) Q^T with Q the Kronecker product of the per-axis
    eigenvector matrices. D^T D is the Kronecker sum of the per-axis
    difference Laplacians, whose boundary rows follow grid_edges (neumann
    one edge, dirichlet a phantom edge too, periodic a wrap). Returns
    (per-axis Q, lam and diag(K) shaped like the grid).

    Every axis is uniform, so its eigenpairs have closed forms (Buzbee,
    Golub & Nielson 1970; Swarztrauber 1977) and no eigensolver runs:
    axis_eigenvalues and axis_eigenvectors. An axis shorter than
    FFT_CROSSOVER[boundary] gets its dense Q; a longer one gets the
    boundary kind instead, and FastDiagonalization applies its Q by the
    numpy.fft transform of that kind, so the cache holds O(n) numbers for
    it, not an n x n matrix. The crossover is where the transform pair
    by FFT took no longer than the two dense products, timed at the
    benchmark's 64 and 512 states per transform (see FFT_CROSSOVER). The
    closed-form basis is also the more accurate one: at n = 4096 eigh's
    vectors were off from it by up to 3.7e-10, its eigenvalues by
    1.8e-15 relative."""
    hd = grid.cell_measure
    kind = grid.boundary
    mats, lam, diag = [], 0.0, 0.0
    for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        mats.append(axis_eigenvectors(kind, n) if n < FFT_CROSSOVER[kind]
                    else kind)
        # the Laplacian's diagonal: 2/h^2, neumann's end nodes 1/h^2
        d = np.full(n, 2.0)
        if kind == "neumann":
            d[[0, -1]] = 1.0
        axis = [None] * grid.dim
        axis[a] = slice(None)
        lam = lam + axis_eigenvalues(kind, n, h)[tuple(axis)]
        diag = diag + (d / (h * h))[tuple(axis)]
    return mats, hd * (B * lam + C), hd * (B * diag + C)


def energy1_modes(spec: EnergySpec, grid: Grid) -> Optional[tuple]:
    """The state-independent Hessian of phi1 in fast-diagonalization form,
    (per-axis Q, lam, diag K) from closed forms with no eigensolver (see
    _kron_modes): each axis's Q is dense below FFT_CROSSOVER[boundary]
    nodes and the boundary kind, for _newton.FastDiagonalization's
    numpy.fft transforms, at or above it. None unless it is one: the
    quadratic kind, or m_laplace with m = 2 and scalar B and C, on a
    tensor grid whose boundary is not robin (the robin term counts corner
    nodes once, so it is no Kronecker sum)."""
    if grid.domain_kind == "point" or grid.boundary == "robin":
        return None
    if spec.kind == "quadratic":
        return _kron_modes(grid, 0.0, spec.gamma)
    if spec.kind == "m_laplace" and spec.m == 2.0 \
            and np.ndim(spec.B) == 0 and np.ndim(spec.C) == 0:
        return _kron_modes(grid, spec.B, spec.C)
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
    flat state too, giving a float value and a flat gradient for it. A
    value the kernel leaves out (None) stays None."""
    @functools.wraps(kernel)
    def on_rows(spec, grid, x, *args, **kwargs):
        val, grad = kernel(spec, grid, np.ascontiguousarray(
            np.atleast_2d(x)), *args, **kwargs)
        if np.ndim(x) != 1:
            return val, grad
        return (None if val is None else float(val[0])), grad[0]
    return on_rows


@_rows
def energy1_value_grad(spec: EnergySpec, grid: Grid, x: np.ndarray,
                       value: bool = True) -> tuple[float, np.ndarray]:
    """Vector-level phi1: value and euclidean gradient on the flat state,
    or values and gradient rows on a stack of states (one per row).
    value=False leaves the value out (None) and computes the gradient
    with the same operations, so with the same bits.

    The m_laplace gradient is the edge part D^T f plus, per node, the term
    h^d C |x|^{m-2} x + rob x, and it evaluates only the live addends,
    from the spec's _coefs and the grid's _edge_facts: no C term where
    C_live is False, rob x only at the robin boundary nodes, and neither
    off a robin grid. That keeps every bit for a finite x: D^T f is
    scipy's sparse product, whose sums start at +0.0, so it is never
    -0.0, and the addends left out are +-0.0, which leave such a sum as it
    is. An x that is not finite gives a gradient that is not finite with
    or without them. The value, where asked for, adds every term."""
    hd = grid.cell_measure
    val = None
    if spec.kind == "quadratic":
        if value:
            val = 0.5 * spec.gamma * hd * _rowdot(x, x)
        return val, spec.gamma * hd * x
    if spec.kind == "fractional":
        Q = _fractional_matrix(grid, spec.s, spec.exterior)
        xQ = np.matmul(x[:, None, :], Q)[:, 0, :]
        if value:
            val = 0.5 * spec.gamma * hd * _rowdot(x, x) \
                + 0.5 * _rowdot(xQ, x)
        return val, spec.gamma * hd * x + xQ
    if spec.kind == "lv_quadratic":
        # rows u_1, v_1, u_2, v_2, ...: each species is a state of its own
        n = grid.n_nodes
        Y = x.reshape(-1, n)
        Dc = np.tile([spec.D1, spec.D2], x.shape[0])
        Fc = np.tile([spec.F1, spec.F2], x.shape[0])
        ev, eg = _edge_energy(grid, Y, None, 2.0, value)
        if value:
            a = Dc * ev
            b = 0.5 * Fc * hd * _rowdot(Y, Y)
            val = a[0::2] + b[0::2] + a[1::2] + b[1::2]
        grad = Dc[:, None] * eg + Fc[:, None] * hd * Y
        return val, grad.reshape(x.shape)
    if spec.kind == "m_laplace":
        B, C, C_live = spec._coefs
        m = spec.m
        val, grad = _edge_energy(grid, x, B, m, value)
        facts = _edge_facts(grid)
        if value:
            val = val + hd * np.sum(C * np.abs(x) ** m, axis=1) / m
            val = val + 0.5 * np.sum(facts.rob * x * x, axis=1)
        # |x|^0 = 1 at m = 2, as in _edge_energy
        node = None
        if C_live:
            node = hd * C * x if m == 2.0 \
                else hd * C * np.abs(x) ** (m - 2.0) * x
        if facts.robin is not None:
            bidx, rob = facts.robin
            if node is None:
                grad[:, bidx] += rob * x[:, bidx]
            else:
                node[:, bidx] += rob * x[:, bidx]
        if node is not None:
            grad += node
        return val, grad
    raise ConfigurationError(f"unhandled energy kind {spec.kind!r}")


@_per_grid
def _block_template(grid: Grid, coupling: str) -> tuple:
    """The CSC pattern of one state's block of a phi1 Hessian over time
    knots, and how its values add up from a column of terms.

    Each column j holds, by ascending row, the coupling to dof j of the
    previous knot, the block's own rows (always its diagonal) and the
    coupling to dof j of the next knot. coupling names the block:
    "edges", the edge energy D^T diag(w) D, whose terms are
    t_e = (1/h)(w_e (1/h)) and then -t_e, added into each diagonal slot
    (+t_e) and off-diagonal slot (-t_e) in ascending edge order, as the
    sparse product adds them (an edge's difference row has -1/h and 1/h,
    and a self-loop, a periodic axis of one node, a zero row); "dense",
    a dense matrix, whose terms are its entries in column-major order;
    "diagonal", the diagonal alone, with no terms.

    Returns (indptr, rows, shift, diag, summing): rows is each slot's node
    and shift its knot offset (-1, 0 or +1); diag is the slot of each
    node's diagonal; summing is the CSR matrix (slots x terms) that adds
    up each slot: row s holds a 1.0 for every term slot s adds, in the
    order it adds them. scipy's product summing @ X starts each entry at
    0.0 and adds 1.0 x, in that order, so each column of terms X gives
    the slots the sums that the sparse chain gives them. Everything has
    the size of one state."""
    n = grid.n_nodes
    node = np.arange(n)
    if coupling == "edges":
        src, dst, _, phantom = _edge_operator(grid)[0]
        edge = np.arange(src.size)
        own = src != dst
        pair = own & ~phantom
        rows = np.concatenate([src[own], dst[pair], src[pair], dst[pair]])
        cols = np.concatenate([src[own], dst[pair], dst[pair], src[pair]])
        terms = np.concatenate([edge[own], edge[pair],
                                src.size + edge[pair],
                                src.size + edge[pair]])
        edge = np.concatenate([edge[own], edge[pair], edge[pair],
                               edge[pair]])
        n_terms = 2 * src.size
    elif coupling == "dense":
        rows, cols = np.tile(node, n), np.repeat(node, n)
        terms = edge = np.arange(n * n)
        n_terms = n * n
    else:
        rows = cols = terms = edge = np.array([], dtype=int)
        n_terms = 0
    # the block's entries as column-major keys, each column framed by its
    # two time slots: key i of column c sits at slot i + 2c + 1
    keys = np.union1d(cols * n + rows, node * (n + 1))
    size = keys.size + 2 * n
    indptr = np.append(np.searchsorted(keys, node * n) + 2 * node, size)
    shift = np.zeros(size, int)
    shift[indptr[:-1]], shift[indptr[1:] - 1] = -1, 1
    slot_rows = np.repeat(node, np.diff(indptr))
    slot_rows[shift == 0] = keys % n
    diag = np.searchsorted(keys, node * (n + 1)) + 2 * node + 1
    slot = np.searchsorted(keys, cols * n + rows) + 2 * cols + 1
    # the terms of each slot in ascending edge order
    order = np.lexsort((edge, slot))
    summing = sp.csr_matrix(
        (np.ones(order.size), terms[order],
         np.append(0, np.cumsum(np.bincount(slot, minlength=size)))),
        shape=(size, n_terms))
    return indptr, slot_rows, shift, diag, summing


def energy1_hessian(spec: EnergySpec, grid: Grid, x: np.ndarray,
                    b: Optional[np.ndarray] = None,
                    r: Optional[np.ndarray] = None) -> sp.csc_matrix:
    """Exact Hessian of phi1 at x as one CSC matrix with sorted row
    indices. For a stack of states X ((K, n_dof), one per time knot) it
    is the Hessian of Sum_k b_k phi1(X_k) over x.ravel() (b = 1 unless
    given), plus the time coupling band_diagonals(r) of a rate term with
    curvature r ((K, n_dof)) when r is given: the space-time Hessian of
    minimize_wed.

    It is filled straight into CSC arrays from the grid's _block_template
    (one state's pattern), tiled over the K knots by index arithmetic: a
    call computes the edge curvatures, sums them into one data array with
    the template's summing matrix, and keeps its nonzero entries. Each
    value comes from the floating-point operations, in their order, of
    the sparse chain b (kron(I, D)^T diag(w) kron(I, D) + diag(d)) + T: a
    diagonal edge sum starts at 0.0 and adds its terms in ascending edge
    order, the nodal diagonal d is added to it, the sum is scaled by b_k
    and the time band T added last, ((E + d) b) + T, and entries that
    come out exactly 0 are dropped, as the sparse products and sums drop
    them. So the matrix is bitwise the one that chain assembles, and so
    is its LU.

    The values decide the pattern only through which entries are dropped,
    so within one solve the fills with the same template, n_dof and
    exact-zero mask share one plan of row indices and column pointers
    (_tiled_pattern, through _newton.pattern_plan), read-only; a fill
    with another mask gets a plan of its own."""
    X = np.atleast_2d(x)
    K, n_dof = X.shape
    n = grid.n_nodes
    hd = grid.cell_measure
    diagonal = None
    if spec.kind == "quadratic":
        template = _block_template(grid, "diagonal")
        terms = np.empty((0, 1))  # the template adds no terms
        diagonal = spec.gamma * hd
    elif spec.kind == "fractional":
        template = _block_template(grid, "dense")
        Q = _fractional_matrix(grid, spec.s, spec.exterior)
        terms = np.ravel(Q + spec.gamma * hd * np.eye(n), "F")[:, None]
    elif spec.kind in ("m_laplace", "lv_quadratic"):
        template = _block_template(grid, "edges")
        if spec.kind == "m_laplace":
            B, C, _ = spec._coefs
            curv = _edge_curvature(grid, X, B, spec.m)
            diagonal = hd * C * (spec.m - 1.0) \
                * np.abs(X) ** (spec.m - 2.0) + _edge_facts(grid).rob
        else:
            # rows u_1, v_1, u_2, v_2, ...: each species a block of its own
            curv = _edge_curvature(grid, X.reshape(-1, n), np.tile(
                [[spec.D1], [spec.D2]], (K, n)), 2.0)
            diagonal = (np.tile([spec.F1, spec.F2], K) * hd)[:, None]
        # t = inv (curv inv), in place (products commute bit for bit),
        # then +t and -t, one row per term
        inv = 1.0 / _edge_facts(grid).h
        curv *= inv
        curv *= inv
        terms = np.concatenate([curv.T, -curv.T])
        del curv
    else:
        raise ConfigurationError(f"unhandled energy kind {spec.kind!r}")
    indptr, rows, shift, diag, summing = template
    blocks = K * (n_dof // n)
    # each slot's sum of its terms per column of terms (a block, or one
    # for all blocks), spread over the blocks: the sums start at 0.0, so
    # none is -0.0 and their copy has the bits of 0.0 + sums. The terms and
    # the sums, of the Hessian's size, go as soon as they are used.
    sums = summing @ terms
    del terms
    V = np.broadcast_to(sums.T, (blocks, rows.size)).copy()
    del sums
    if diagonal is not None:
        V[:, diag] += diagonal
    if b is not None:
        V *= np.repeat(b, n_dof // n)[:, None]
    if r is not None:
        tdiag, toff = band_diagonals(r)
        V[:, diag] += tdiag.reshape(blocks, n)
        zero = np.zeros((1, n_dof))
        V[:, indptr[:-1]] = np.concatenate([zero, toff]).reshape(blocks, n)
        V[:, indptr[1:] - 1] = np.concatenate([toff, zero]).reshape(blocks,
                                                                    n)
    # tile the one-state pattern over the blocks and drop exact zeros,
    # among them the time slots of the first and last knot
    data = V.ravel()
    keep = data != 0.0
    indices, colptr = pattern_plan(
        "hessian", (rows, shift, indptr, n_dof, keep.size,
                    np.packbits(keep)),
        lambda: _tiled_pattern(template, n_dof, keep))
    return sp.csc_matrix((np.compress(keep, data), indices, colptr),
                         shape=(blocks * n,) * 2)


def _tiled_pattern(template: tuple, n_dof: int, keep: np.ndarray) -> tuple:
    """(row indices, column pointers) of energy1_hessian's CSC matrix:
    the one-state template tiled over keep.size / slots blocks of n_dof
    unknowns apart, without the slots where keep is False. Both are of
    the one index dtype that the CSC constructor keeps, and read-only,
    as every matrix of the plan shares them."""
    indptr, rows, shift = template[:3]
    n = indptr.size - 1
    blocks = keep.size // rows.size
    idx = np.int32 if keep.size <= np.iinfo(np.int32).max else np.int64
    starts = (np.arange(blocks, dtype=idx)[:, None] * rows.size
              + indptr[:-1].astype(idx)).ravel()
    dropped = np.bincount(np.searchsorted(starts, np.flatnonzero(~keep),
                                          "right") - 1, minlength=starts.size)
    indices = (np.arange(0, blocks * n, n, dtype=idx)[:, None]
               + (rows + shift * n_dof).astype(idx)).ravel()[keep]
    colptr = (np.append(starts, keep.size)
              - np.append(0, np.cumsum(dropped))).astype(idx)
    indices.flags.writeable = colptr.flags.writeable = False
    return indices, colptr


@_rows
def energy2_value_grad(spec: ConcaveSpec, grid: Grid,
                       x: np.ndarray) -> tuple[float, np.ndarray]:
    """Vector-level phi2: value and euclidean gradient on the flat state,
    or values and gradient rows on a stack of states (one per row)."""
    if spec.concave_q is None:
        return np.zeros(x.shape[0]), np.zeros_like(x)
    hd = grid.cell_measure
    q, D = spec.concave_q, spec.concave_D
    val = hd * np.sum(D * np.abs(x) ** q, axis=1) / q
    if q == 2.0:
        return val, hd * D * x
    # analytic subgradient selection at 0 is 0 (exact for q > 1)
    nz = x != 0.0
    g = np.zeros_like(x)
    g[nz] = np.abs(x[nz]) ** (q - 2.0) * x[nz]
    return val, hd * D * g


# ---------------------------------------------------------------------------
# Reactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReactionSpec:
    """kind "none", or "lotka_volterra" with the clamped interaction
    terms."""

    kind: str = "none"
    A: float = 1.0
    K: float = 1.0
    B: float = 0.0
    C: float = 0.0
    E: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "lotka_volterra"):
            raise ConfigurationError(f"unknown reaction kind {self.kind!r}",
                                     "kind")
        floor = 0.0 if self.kind == "lotka_volterra" else -math.inf
        for name in ("A", "K"):
            object.__setattr__(self, name, number(getattr(self, name), name,
                                                  above=floor))
        for name in ("B", "C", "E"):
            object.__setattr__(self, name, number(getattr(self, name), name,
                                                  at_least=floor))


def reaction_eval(spec: ReactionSpec, state):
    """Nodal reaction density. LV takes and returns an (u, v) pair of
    arrays; the clamps U = min(u,K)^+ and V = v^+ are applied internally."""
    if spec.kind == "none":
        if isinstance(state, tuple):
            return tuple(np.zeros_like(np.asarray(s, float)) for s in state)
        return np.zeros_like(np.asarray(state, float))
    if not isinstance(state, tuple) or len(state) != 2:
        raise ConfigurationError("lotka_volterra reaction needs an (u, v) pair")
    U, V = lv_clamp(spec, *(np.asarray(s, dtype=float) for s in state))
    inter = U * V / (1.0 + spec.E * V)
    fu = spec.A * U * (1.0 - U / spec.K) - spec.B * inter
    fv = spec.C * inter
    return fu, fv


def lv_clamp(spec: ReactionSpec, u: np.ndarray, v: np.ndarray):
    """The clamp map R(u,v) = (min(u,K)^+, v^+)."""
    return (np.maximum(np.minimum(u, spec.K), 0.0), np.maximum(v, 0.0))
