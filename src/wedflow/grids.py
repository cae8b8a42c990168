"""Spatial grids, time-indexed trajectories, and the value-reordering
maps (rearrangements and the node permutation of a reflection).

Everything here is a pure function of its inputs. A state is a flat
numpy array of nodal values, a trajectory is a grid, a horizon T and one
such row per time knot, and `rearrange` maps a whole stack of rows at
once. A trajectory does not mark pinned rows: the problem owns them, and
the solvers check a start against them (_newton.pinned_solve).

Every constructor takes its numbers through the intake below
ConfigurationError (`number`, `count`, `float_array`, `horizon`), which
raises one naming the argument at fault unless it is finite and in range.

The CSV writers format every float with repr, so a value reads back bit
for bit. They fill one % template per knot (per field) and call repr
once per distinct bit pattern in it: the invariant states the paper's
symmetry results predict repeat few values, and a knot of all-distinct
values costs one repr per value.
"""

from __future__ import annotations

import math
import operator
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
# Intake: the numbers every constructor takes
# ---------------------------------------------------------------------------

def number(value, field: str, *, above: float = -math.inf,
           at_least: float = -math.inf, below: float = math.inf,
           at_most: float = math.inf) -> float:
    """value as a finite Python float within the given bounds, checked in
    plain Python; ConfigurationError naming field for anything else (a
    bool, a string, a complex number or an array too)."""
    try:
        if isinstance(value, (bool, np.bool_, str, bytes, complex,
                              np.complexfloating)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{field} must be a real number, not "
                                 f"{type(value).__name__}", field) from None
    # strict default bounds leave out NaN and +-inf
    if not (above < x < below and at_least <= x <= at_most):
        bounds = "".join(f" and {op} {b!r}" for op, b in (
            (">", above), (">=", at_least), ("<", below), ("<=", at_most))
            if abs(b) < math.inf)
        raise ConfigurationError(f"{field} must be finite{bounds}, not {x!r}",
                                 field)
    return x


def count(value, field: str, at_least: int = 1) -> int:
    """value as an int >= at_least; ConfigurationError naming field
    unless it is an integer (a float or a bool is not)."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or n < at_least:
        raise ConfigurationError(f"{field} must be an integer >= {at_least}",
                                 field)
    return n


def _holds_bool(value) -> bool:
    """Whether value is a bool, a bool array or a list or tuple holding
    one at any depth: np.asarray([0, True]) would read it as 1."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_)) \
        or getattr(value, "dtype", None) == bool


def float_array(value, field: str, shape=None,
                finite: bool = True) -> np.ndarray:
    """value as a float array (a float64 array is not copied);
    ConfigurationError naming field unless it is a regular array of
    integers or reals (not None, bools, strings, complex numbers or
    integers past 64 bits) of the given shape (axis lengths, None for any;
    an int n: n values, flattened) and, where finite is set, finite."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf" or _holds_bool(value):
            raise TypeError
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):
        kind = getattr(value, "dtype", type(value).__name__)
        raise ConfigurationError(f"{field} must be a regular array of real "
                                 f"numbers, not {kind}", field) from None
    if isinstance(shape, int):
        arr, shape = arr.ravel(), (shape,)
    if shape is not None and (arr.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, arr.shape))):
        raise ConfigurationError(f"{field} has shape {arr.shape}, not "
                                 f"{tuple(shape)}", field)
    if finite and not np.isfinite(arr).all():
        raise ConfigurationError(f"{field} must be finite", field)
    return arr


def horizon(problem) -> None:
    """Store a problem's horizon T and weight epsilon as the floats that
    number returns; ConfigurationError naming the one at fault unless T
    is finite and positive and 0 < epsilon < T."""
    T = number(problem.T, "T", above=0.0)
    object.__setattr__(problem, "T", T)
    object.__setattr__(problem, "epsilon", number(
        problem.epsilon, "epsilon", above=0.0, below=T))


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
    """Validate parameters and construct a Grid. shape and spacing give
    one entry per axis, or one for every axis."""
    dim = count(dim, "dim")
    if dim not in (1, 2):
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}", "dim")
    for name, kind, kinds in (("domain_kind", domain_kind, _DOMAIN_KINDS),
                              ("boundary", boundary, _BOUNDARIES)):
        if kind not in kinds:
            raise ConfigurationError(f"unknown {name} {kind!r}", name)
    shape, spacing = (x if isinstance(x, (list, tuple))
                      or getattr(x, "ndim", 0) else (x,) * dim
                      for x in (shape, spacing))
    shape = tuple(count(s, "shape") for s in shape)
    # checked for a point grid too, which has unit spacing and no border
    spacing = tuple(number(h, "spacing", above=0.0) for h in spacing)
    robin_b = number(robin_b, "robin_b",
                     above=0.0 if boundary == "robin" else -math.inf)
    if domain_kind == "point":
        if shape != (1,) * dim or dim != 1:
            raise ConfigurationError("point grids are 1D with a single node",
                                     "shape")
        return Grid(1, (1,), (1.0,), boundary, "point")
    if len(shape) != dim or len(spacing) != dim:
        raise ConfigurationError("shape/spacing length must match dim",
                                 "shape" if len(shape) != dim else "spacing")
    if min(shape) < 3:
        raise ConfigurationError("need at least 3 nodes per axis", "shape")
    if domain_kind == "torus" and boundary != "periodic":
        raise ConfigurationError("torus requires periodic boundary",
                                 "boundary")
    if boundary == "periodic" and domain_kind != "torus":
        raise ConfigurationError("periodic boundary requires a torus domain",
                                 "domain_kind")
    if domain_kind == "rectangle" and dim != 2:
        raise ConfigurationError("rectangle domain_kind requires dim 2",
                                 "domain_kind")
    return Grid(dim, shape, spacing, boundary, domain_kind, robin_b)


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """N+1 time slices of nodal values on one grid, t_n = n*T/N.

    Stored as a single read-only (N+1, n_dof) array, n_dof a positive
    multiple of the node count (one block of nodes per component); its
    values may be NaN or infinite, which the CSV writers write. Which
    rows are pinned is the problem's to say: a solver checks its start
    against them (see _newton.pinned_solve)."""

    grid: Grid
    T: float
    values: np.ndarray  # (N+1, n_dof)

    def __post_init__(self):
        number(self.T, "T", above=0.0)
        vals = float_array(self.values, "values", (None, None),
                           finite=False).copy()  # the caller's stays writable
        n = self.grid.n_nodes
        if len(vals) < 2 or vals.shape[1] < n or vals.shape[1] % n:
            raise ConfigurationError("trajectory must be (N+1, k * n_nodes), "
                                     "N >= 1, k >= 1", "values")
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
    for name, value, allowed in (("axis", axis, (0, 1)),
                                 ("direction", direction, (1, -1))):
        if count(value, name, at_least=-1) not in allowed:
            raise ConfigurationError(f"need {name} in {allowed}", name)


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

# values per block of _row_reprs: one sort per block spreads numpy's
# per-call cost over many narrow rows, and a block's reprs (at most this
# many strings) are all that is alive at once
_REPR_BLOCK = 4096


def _row_reprs(stack: np.ndarray):
    """Yield, for each row of a 2D float64 stack, the tuple of the reprs
    of its entries, with one repr call per distinct bit pattern of the
    row. Bits, not values, key the dedupe: -0.0 and 0.0 (and NaNs with
    different payloads) keep their own reprs, so each tuple is the
    per-value one. Rows go in blocks of about _REPR_BLOCK values, each
    sorted along its rows at once."""
    rows, width = stack.shape
    step = max(1, _REPR_BLOCK // width)
    for start in range(0, rows, step):
        bits = stack[start:start + step].view(np.uint64)
        order = bits.argsort(axis=1)
        ranked = np.take_along_axis(bits, order, axis=1)
        first = np.empty(bits.shape, dtype=bool)  # first of a run of equals
        first[:, 0] = True
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
        reprs = np.array(list(map(repr, ranked[first].view(np.float64)
                                  .tolist())), dtype=object)
        # each entry's repr: ranked[first] lists the block's rows in turn,
        # and every row starts a run, so the running count of firsts over
        # the flat block is the entry's index into it, plus one
        index = np.empty(bits.shape, dtype=np.intp)
        np.put_along_axis(index, order,
                          first.cumsum().reshape(bits.shape) - 1, axis=1)
        yield from map(tuple, reprs.take(index).tolist())


def _rows_template(rows: int, width: int) -> str:
    """The % template of the lines "i,%s,...,%s" (width slots) for i in
    range(rows), joined by newlines."""
    slots = ",%s" * width
    return "\n".join([f"{i}{slots}" for i in range(rows)])


def _indexed_csv(head: str, table: np.ndarray) -> str:
    """head, then the line "i,table[i, 0],...,table[i, -1]" per row i of a
    2D float table: one template fill, one repr per distinct bit pattern
    of the table."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows = _rows_template(*table.shape) % \
        next(_row_reprs(table.reshape(1, -1)))
    return f"{head}\n{rows}\n"


def field_to_csv(grid: Grid, values: np.ndarray) -> str:
    """One row per node of a state on grid: index, node coordinates,
    value. Floats use repr, so round trips are bit-exact; it costs one
    repr per distinct bit pattern among the coordinates and values."""
    head = ",".join(["index"] + [f"coord{k}" for k in range(grid.dim)]
                    + ["value"])
    values = np.asarray(values, dtype=np.float64)[:grid.n_nodes]
    return _indexed_csv(head, np.column_stack([grid.coords(), values]))


def trajectory_to_csv(traj: Trajectory, header: str = "node_index",
                      column: Optional[tuple] = None) -> str:
    """One row per knot and component: t, index, value, and, when column
    is (name, one value per knot), that knot's value. Floats use repr.

    The lines' template is built once per call; each knot puts its t and
    column value in and fills it with one repr per distinct bit pattern
    of its values. An invariant state repeats few values, and a knot of
    all-distinct values costs one repr per value, as writing each value
    on its own would."""
    values = np.ascontiguousarray(traj.values, dtype=np.float64)
    rows = _rows_template(values.shape[1], 1)
    head = f"t,{header},value"
    tails = [""] * len(values)
    if column is not None:
        head += f",{column[0]}"
        tails = [f",{c!r}" for c in np.asarray(column[1], float).tolist()]
    out = [f"{head}\n"]
    for t, tail, reprs in zip(traj.times.tolist(), tails,
                              _row_reprs(values)):
        lead = f"{t!r},"
        # the first line's lead goes in front, every other line's after a
        # newline of the template
        lines = rows.replace("\n", f"{tail}\n{lead}")
        out.append(f"{lead}{lines}{tail}\n" % reprs)
    return "".join(out)
