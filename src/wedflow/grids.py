"""Spatial grids, time-indexed trajectories, and the value-reordering
maps (rearrangements and the node permutation of a reflection).

Everything here is a pure function of its inputs. A state is a flat
numpy array of nodal values, a trajectory is a grid, a horizon T and one
such row per time knot, and `rearrange` maps a whole stack of rows at
once. A trajectory does not mark pinned rows: the problem owns them, and
the solvers check a start against them (_newton.pinned_solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Raised when grid or map parameters violate a documented invariant;
    `field` names the constructor argument at fault, where there is one."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


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

    @cached_property
    def n_nodes(self) -> int:
        # read on every map, energy and trajectory call: computed once
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

    Raises ConfigurationError for spacing that is not finite and
    positive, fewer than 3 nodes per axis (except the "point" kind),
    robin without a finite b > 0, or a torus without periodic boundary.
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
    if not all(0 < h < np.inf for h in spacing):
        raise ConfigurationError("spacing must be finite and positive")
    if boundary == "robin" and not 0 < robin_b < np.inf:
        raise ConfigurationError("robin boundary requires a finite b > 0")
    if domain_kind == "torus" and boundary != "periodic":
        raise ConfigurationError("torus requires periodic boundary")
    if boundary == "periodic" and domain_kind != "torus":
        raise ConfigurationError("periodic boundary requires a torus domain")
    if domain_kind == "rectangle" and dim != 2:
        raise ConfigurationError("rectangle domain_kind requires dim 2")
    return Grid(dim, shape, spacing, boundary, domain_kind, robin_b)


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """N+1 time slices of nodal values on one grid, t_n = n*T/N.

    Stored as a single read-only (N+1, n_dof) array, n_dof a positive
    multiple of the node count (one block of nodes per component). Which
    rows are pinned is the problem's to say: a solver checks its start
    against them (see _newton.pinned_solve)."""

    grid: Grid
    T: float
    values: np.ndarray  # (N+1, n_dof)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        n = self.grid.n_nodes
        if vals.ndim != 2 or vals.shape[1] < n or vals.shape[1] % n:
            raise ConfigurationError("trajectory must be (N+1, k * n_nodes)")
        if vals.shape[0] < 2:
            raise ConfigurationError("need at least one time step")
        if not 0 < self.T < np.inf:
            raise ConfigurationError("horizon T must be finite and positive")
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


def constant_trajectory(grid: Grid, u0: np.ndarray, T: float,
                        steps: int) -> Trajectory:
    u0 = np.asarray(u0, dtype=float).ravel()
    return Trajectory(grid, T, np.tile(u0, (steps + 1, 1)))


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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def field_to_csv(grid: Grid, values: np.ndarray) -> str:
    """One row per node of a state on grid: index, node coordinates,
    value. Floats use repr, so round trips are bit-exact."""
    coords = grid.coords()
    head = ",".join(["index"] + [f"coord{k}" for k in range(grid.dim)]
                    + ["value"])
    lines = [head]
    for i in range(grid.n_nodes):
        cs = ",".join(repr(float(c)) for c in np.atleast_1d(coords[i]))
        lines.append(f"{i},{cs},{repr(float(values[i]))}")
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory, header: str = "node_index",
                      column: Optional[tuple] = None) -> str:
    """One row per knot and component: t, index, value, and, when column
    is (name, one value per knot), that knot's value. Floats use repr."""
    # one tolist() per array: its Python floats repr as float() of each
    # element would, without a numpy scalar per value
    lines = [f"t,{header},value"]
    tails = [""] * (traj.steps + 1)
    if column is not None:
        lines[0] += f",{column[0]}"
        tails = [f",{c!r}" for c in np.asarray(column[1], float).tolist()]
    for t, row, tail in zip(traj.times.tolist(), traj.values.tolist(), tails):
        head = f"{t!r},"
        lines.extend([f"{head}{i},{v!r}{tail}" for i, v in enumerate(row)])
    return "\n".join(lines) + "\n"

