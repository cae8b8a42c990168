"""Spatial grids, nodal fields, time-indexed trajectories, and the
value-reordering maps (lattice min/max, truncations, sign parts,
rearrangements, rigid transforms).

Everything here is a pure function of its inputs. Field values are
immutable numpy arrays; the Field maps return new Fields, and
`rearrange` maps a whole stack of node-value rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Raised when grid or map parameters violate a documented invariant."""


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

_BOUNDARIES = ("dirichlet", "neumann", "robin", "periodic")
_DOMAIN_KINDS = ("interval", "rectangle", "torus", "point")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid in dimension 1 or 2.

    Nodes are explicit (boundary included, no ghost cells) and stored in
    row-major axis order. domain_kind "point" is the degenerate single-node
    grid used by ODE-scale problems; it has unit measure and no edges.
    """

    dim: int
    shape: tuple  # nodes per axis
    spacing: tuple  # h per axis
    boundary: str
    domain_kind: str
    robin_b: float = 0.0

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def h(self) -> float:
        return self.spacing[0]

    @property
    def cell_measure(self) -> float:
        if self.domain_kind == "point":
            return 1.0
        m = 1.0
        for s in self.spacing:
            m *= s
        return m

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, dim)."""
        if self.domain_kind == "point":
            return np.zeros((1, 1))
        axes = [self.spacing[a] * np.arange(self.shape[a])
                for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def boundary_index_set(self) -> np.ndarray:
        """Indices of boundary nodes (empty for torus and point grids)."""
        if self.domain_kind in ("torus", "point"):
            return np.array([], dtype=int)
        mask = np.zeros(self.shape, dtype=bool)
        for a in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        return np.flatnonzero(mask.ravel())


def build_grid(dim: int = 1,
               shape: Sequence[int] | int = 3,
               spacing: Sequence[float] | float = 1.0,
               boundary: str = "neumann",
               domain_kind: str = "interval",
               robin_b: float = 0.0) -> Grid:
    """Validate parameters and construct a Grid.

    Raises ConfigurationError for non-positive spacing/node counts, fewer
    than 3 nodes per axis (except the "point" kind), robin without b > 0,
    or a torus without periodic boundary.
    """
    if isinstance(shape, int):
        shape = (shape,) * dim
    if isinstance(spacing, (int, float)):
        spacing = (float(spacing),) * dim
    shape = tuple(int(s) for s in shape)
    spacing = tuple(float(s) for s in spacing)

    if dim not in (1, 2):
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")
    if domain_kind not in _DOMAIN_KINDS:
        raise ConfigurationError(f"unknown domain_kind {domain_kind!r}")
    if boundary not in _BOUNDARIES:
        raise ConfigurationError(f"unknown boundary {boundary!r}")
    if domain_kind == "point":
        if shape != (1,) * dim or dim != 1:
            raise ConfigurationError("point grids are 1D with a single node")
        return Grid(1, (1,), (1.0,), boundary, "point")
    if len(shape) != dim or len(spacing) != dim:
        raise ConfigurationError("shape/spacing length must match dim")
    if any(s < 3 for s in shape):
        raise ConfigurationError("need at least 3 nodes per axis")
    if any(h <= 0 for h in spacing):
        raise ConfigurationError("spacing must be positive")
    if boundary == "robin" and robin_b <= 0:
        raise ConfigurationError("robin boundary requires b > 0")
    if domain_kind == "torus" and boundary != "periodic":
        raise ConfigurationError("torus requires periodic boundary")
    if boundary == "periodic" and domain_kind != "torus":
        raise ConfigurationError("periodic boundary requires a torus domain")
    if domain_kind == "rectangle" and dim != 2:
        raise ConfigurationError("rectangle domain_kind requires dim 2")
    return Grid(dim, shape, spacing, boundary, domain_kind, robin_b)


# ---------------------------------------------------------------------------
# Field and Trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Field:
    """Nodal real values on a grid. Values are locked after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != self.grid.n_nodes:
            raise ConfigurationError(
                f"value count {vals.size} != node count {self.grid.n_nodes}")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.n_nodes))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """N+1 time slices of nodal values on one grid, t_n = n*T/N.

    Stored as a single (N+1, n_nodes) array. pinned_initial, when present,
    must coincide bitwise with slice 0; pinned_velocity additionally pins
    the first divided difference (slice1 - slice0)/dt.
    """

    grid: Grid
    T: float
    values: np.ndarray  # (N+1, n_nodes * ncomp)
    pinned_initial: Optional[np.ndarray] = None
    pinned_velocity: Optional[np.ndarray] = None
    ncomp: int = 1

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.n_nodes * self.ncomp:
            raise ConfigurationError("trajectory shape must be (N+1, n_dof)")
        if vals.shape[0] < 2:
            raise ConfigurationError("need at least one time step")
        if self.T <= 0:
            raise ConfigurationError("horizon T must be positive")
        vals = vals.copy()
        if self.pinned_initial is not None:
            pin = np.asarray(self.pinned_initial, dtype=float).ravel()
            if not np.array_equal(vals[0], pin):
                raise ConfigurationError("slice 0 differs from pinned initial")
            object.__setattr__(self, "pinned_initial", pin)
        if self.pinned_velocity is not None:
            object.__setattr__(
                self, "pinned_velocity",
                np.asarray(self.pinned_velocity, dtype=float).ravel())
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def slice(self, n: int) -> Field:
        if self.ncomp != 1:
            raise ConfigurationError("slice() is single-component; use component()")
        return Field(self.grid, self.values[n])

    def component(self, n: int, c: int) -> Field:
        nn = self.grid.n_nodes
        return Field(self.grid, self.values[n, c * nn:(c + 1) * nn])


def constant_trajectory(grid: Grid, u0: np.ndarray, T: float, steps: int,
                        pin: bool = True) -> Trajectory:
    u0 = np.asarray(u0, dtype=float).ravel()
    vals = np.tile(u0, (steps + 1, 1))
    ncomp, rem = divmod(u0.size, grid.n_nodes)
    if rem or ncomp < 1:
        raise ConfigurationError("state size must be a multiple of n_nodes")
    return Trajectory(grid, T, vals, pinned_initial=u0 if pin else None,
                      ncomp=ncomp)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def lattice_min_max(u: Field, v: Field) -> tuple[Field, Field]:
    """Componentwise (min, max). The pair sums exactly to u + v because
    each component of the output is a selection, not an arithmetic blend."""
    if u.grid is not v.grid and u.grid.shape != v.grid.shape:
        raise ConfigurationError("lattice operands live on different grids")
    lo = np.minimum(u.values, v.values)
    hi = np.maximum(u.values, v.values)
    return Field(u.grid, lo), Field(u.grid, hi)


# ---------------------------------------------------------------------------
# Rearrangements
# ---------------------------------------------------------------------------

def _symdec_order_1d(n: int) -> np.ndarray:
    """Node indices ordered by distance from the grid center, the node on
    the positive side winning ties. The largest value lands at order[0]."""
    center = (n - 1) / 2.0
    idx = np.arange(n)
    dist = np.abs(idx - center)
    # positive side first on ties: sort key (distance, -(idx > center))
    side = np.where(idx * 2 > n - 1, 0, 1)  # 0 = right of center, 1 = left
    order = np.lexsort((side, dist))
    return order


def _symdec_order_2d(shape: tuple, spacing: tuple) -> np.ndarray:
    """2D: Euclidean distance from the geometric center, lexicographic
    coordinate order on ties."""
    nx, ny = shape
    cx = (nx - 1) / 2.0 * spacing[0]
    cy = (ny - 1) / 2.0 * spacing[1]
    xs = spacing[0] * np.arange(nx)
    ys = spacing[1] * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    d2 = (X - cx) ** 2 + (Y - cy) ** 2
    flat = d2.ravel()
    coords = np.stack([X.ravel(), Y.ravel()], axis=1)
    order = np.lexsort((coords[:, 1], coords[:, 0], flat))
    return order


def rearrangement_order(grid: Grid, kind: str, axis: int = 0,
                        direction: int = +1) -> np.ndarray:
    """Target node order for a rearrangement kind: position k of the returned
    array is the node index receiving the k-th largest value."""
    n = grid.n_nodes
    if kind == "monotone":
        if grid.dim != 1:
            raise ConfigurationError("monotone rearrangement is 1D")
        idx = np.arange(n)
        return idx if direction > 0 else idx[::-1]
    if kind == "symmetric_decreasing":
        if grid.dim == 1:
            return _symdec_order_1d(n)
        return _symdec_order_2d(grid.shape, grid.spacing)
    raise ConfigurationError(f"unknown rearrangement kind {kind!r}")


def _check_axis_direction(axis: int, direction: int) -> None:
    if axis not in (0, 1) or direction not in (1, -1):
        raise ConfigurationError(f"need axis 0 or 1 and direction +1 or -1, "
                                 f"got {axis!r} and {direction!r}")


def rearrange(grid: Grid, rows: np.ndarray, kind: str, axis: int = 0,
              direction: int = +1) -> np.ndarray:
    """Value-preserving reordering of the positive part u+ of each row of
    a (k, n_nodes) stack: its sorted-descending values go along the kind's
    node order. steiner(axis) applies the 1D symmetric-decreasing reorder
    line by line along the given axis of a 2D grid."""
    _check_axis_direction(axis, direction)
    rows = np.maximum(rows, 0.0)
    if rows.ndim != 2 or rows.shape[1] != grid.n_nodes:
        raise ConfigurationError(f"rows of shape {rows.shape} on a grid of "
                                 f"{grid.n_nodes} nodes")
    if kind == "steiner":
        if grid.dim != 2:
            raise ConfigurationError("steiner rearrangement needs dim 2")
        # axis 0 reorders each line arr[i, :], axis 1 each arr[:, j]
        line, lines = 2 - axis, rows.reshape(len(rows), *grid.shape)
        order = _symdec_order_1d(grid.shape[1 - axis])
    else:
        line, lines = 1, rows
        order = rearrangement_order(grid, kind, axis, direction)
    # node order[k] receives the k-th largest value, which an ascending
    # sort puts at position n - 1 - k
    src = order.size - 1 - np.argsort(order)
    return np.take(np.sort(lines, axis=line), src,
                   axis=line).reshape(rows.shape)


def reflection_permutation(grid: Grid, axis: int = 0) -> np.ndarray:
    """Node permutation of the reflection about the grid center."""
    if grid.domain_kind == "point":
        return np.array([0])
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    return np.flip(idx, axis=axis).ravel()


def torus_translation_permutation(grid: Grid, shift: int, axis: int = 0) -> np.ndarray:
    """Node permutation translating a torus grid by `shift` nodes."""
    if grid.domain_kind != "torus":
        raise ConfigurationError("translation permutation needs a torus")
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    return np.roll(idx, -shift, axis=axis).ravel()


def rotation_permutation_90(grid: Grid) -> np.ndarray:
    """Quarter-turn permutation of a square 2D grid."""
    if grid.dim != 2 or grid.shape[0] != grid.shape[1]:
        raise ConfigurationError("90 degree rotation needs a square grid")
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    return np.rot90(idx).ravel()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def field_to_csv(u: Field) -> str:
    """One row per node: index, node coordinates, value. Floats use repr,
    so round trips are bit-exact."""
    coords = u.grid.coords()
    head = ",".join(["index"] + [f"coord{k}" for k in range(u.grid.dim)]
                    + ["value"])
    lines = [head]
    for i in range(u.grid.n_nodes):
        cs = ",".join(repr(float(c)) for c in np.atleast_1d(coords[i]))
        lines.append(f"{i},{cs},{repr(float(u.values[i]))}")
    return "\n".join(lines) + "\n"


def field_from_csv(grid: Grid, text: str) -> Field:
    rows = [r for r in text.strip().splitlines()[1:] if r]
    if len(rows) != grid.n_nodes:
        raise ConfigurationError("row count does not match the grid")
    vals = np.empty(grid.n_nodes)
    for r in rows:
        parts = r.split(",")
        vals[int(parts[0])] = float(parts[-1])
    return Field(grid, vals)
