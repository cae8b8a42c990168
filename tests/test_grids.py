"""Grid construction, trajectories, lattice operations, and
rearrangements.

The rearrangement checks here are the small independent oracles: a frozen
node-order example, exhaustive brute force over a small alphabet, and the
two counterexamples that pin the difference-convention pairing. The full
1000-sample and length-7 exhaustive runs live in the rearrangement verify
suite and are exercised by the acceptance tests.
"""

import dataclasses
import itertools
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, LagrangianProblem, ReactionSpec, RIProblem,
                     RMap, Trajectory, WideWaveProblem, build_grid,
                     constant_trajectory, lattice_pair, rearrange,
                     rearrangement_order, reflection_permutation)
from wedflow.grids import field_to_csv
from wedflow.rateind import RITrajectory, _check_deltas
from wedflow.wed import check_schedule

from conftest import heat_problem, line_grid, point_grid


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_build_grid_rejects_tiny_axes():
    with pytest.raises(ConfigurationError):
        build_grid(dim=1, shape=(2,), spacing=(1.0,))
    with pytest.raises(ConfigurationError):
        build_grid(dim=2, shape=(3, 2), spacing=(1.0, 1.0))


def test_point_grid_is_the_single_exception():
    g = point_grid()
    assert g.n_nodes == 1
    assert g.cell_measure == 1.0
    assert g.boundary_index_set().size == 0


def test_node_count_is_computed_once_per_grid(monkeypatch):
    g = build_grid(dim=2, shape=(3, 4), spacing=(0.5, 0.25),
                   boundary="neumann", domain_kind="rectangle")
    assert g.n_nodes == 12 and isinstance(g.n_nodes, int)
    calls = []
    monkeypatch.setattr(np, "prod", lambda *a, **k: calls.append(a))
    assert g.n_nodes == 12
    assert calls == []


def test_torus_and_periodic_are_paired():
    with pytest.raises(ConfigurationError):
        build_grid(dim=1, shape=(5,), spacing=(1.0,), boundary="periodic")
    with pytest.raises(ConfigurationError):
        build_grid(dim=1, shape=(5,), spacing=(1.0,), boundary="neumann",
                   domain_kind="torus")
    g = build_grid(dim=1, shape=(5,), spacing=(1.0,), boundary="periodic",
                   domain_kind="torus")
    assert g.boundary_index_set().size == 0


def test_robin_needs_positive_coefficient():
    with pytest.raises(ConfigurationError):
        build_grid(dim=1, shape=(5,), spacing=(1.0,), boundary="robin",
                   robin_b=0.0)


def test_constant_trajectory_two_components():
    g = line_grid(3)
    traj = constant_trajectory(g, np.arange(6.0), 1.0, 4)
    assert traj.values.shape == (5, 6)
    assert traj.steps == 4 and traj.dt == 0.25
    # each knot stacks the components: the second one is nodes 3..5
    assert np.array_equal(traj.values[2, 3:], [3.0, 4.0, 5.0])
    for size in (4, 0):  # not a positive multiple of 3 values
        with pytest.raises(ConfigurationError):
            constant_trajectory(g, np.arange(float(size)), 1.0, 4)


def _wave(**bad):
    return WideWaveProblem(**{**dict(
        grid=line_grid(5), rho=1.0, nu=0.0, f_coeffs=(0.0,), lam=0.0,
        p_growth=2.0, T=1.0, epsilon=0.1, initial=np.zeros(5),
        velocity=np.zeros(5)), **bad})


def _lagrangian(**bad):
    return LagrangianProblem(**{**dict(
        d=1, M=None, nu=0.0, u_kind="quadratic", T=1.0, epsilon=0.1,
        initial=np.zeros(1), velocity=np.zeros(1)), **bad})


NAN = float("nan")

# the inertial problems' non-finite or non-numeric inputs, with the field
# each must name
_WIDE_NON_FINITE = {
    "wave lam nan": ("lam", lambda: _wave(lam=NAN)),
    "wave lam -inf": ("lam", lambda: _wave(lam=-np.inf)),
    "wave T inf": ("T", lambda: _wave(T=np.inf)),
    "p_growth inf": ("p_growth", lambda: _wave(p_growth=np.inf)),
    "f_coeffs inf": ("f_coeffs", lambda: _wave(f_coeffs=(0.0, np.inf))),
    "lagrangian T inf": ("T", lambda: _lagrangian(T=np.inf)),
    "M inf": ("M", lambda: _lagrangian(M=[[np.inf]])),
    "Q inf": ("Q", lambda: _lagrangian(Q=[[np.inf]])),
    "u_coeffs nan": ("u_coeffs", lambda: _lagrangian(
        u_kind="component_poly", u_coeffs=(0.0, NAN, 0.5))),
    # these raised TypeError or ValueError, not a ConfigurationError
    "wave T str": ("T", lambda: _wave(T="1.0")),
    "wave epsilon None": ("epsilon", lambda: _wave(epsilon=None)),
    "rho str": ("rho", lambda: _wave(rho="x")),
    "wave nu list": ("nu", lambda: _wave(nu=[0.0])),
    "lam None": ("lam", lambda: _wave(lam=None)),
    "p_growth str": ("p_growth", lambda: _wave(p_growth="2")),
    "f_coeffs None": ("f_coeffs", lambda: _wave(f_coeffs=None)),
    "lagrangian epsilon str": ("epsilon", lambda: _lagrangian(epsilon="x")),
    "lagrangian nu None": ("nu", lambda: _lagrangian(nu=None)),
    "d 1.5": ("d", lambda: _lagrangian(d=1.5)),
}

# every other range check's non-finite, non-numeric or non-integral input,
# with the field it must name
_NON_FINITE = {
    "spacing nan": ("spacing", lambda: build_grid(dim=1, shape=(3,),
                                                  spacing=(NAN,))),
    "spacing inf": ("spacing", lambda: build_grid(dim=1, shape=(3,),
                                                  spacing=(np.inf,))),
    "robin_b nan": ("robin_b", lambda: build_grid(
        dim=1, shape=(3,), boundary="robin", robin_b=NAN)),
    "robin_b inf": ("robin_b", lambda: build_grid(
        dim=1, shape=(3,), boundary="robin", robin_b=np.inf)),
    "T nan": ("T", lambda: Trajectory(line_grid(3), NAN, np.zeros((2, 3)))),
    "T inf": ("T", lambda: Trajectory(line_grid(3), np.inf,
                                      np.zeros((2, 3)))),
    "p nan": ("p", lambda: DissipationSpec(p=NAN)),
    "p inf": ("p", lambda: DissipationSpec(p=np.inf)),
    "m nan": ("m", lambda: EnergySpec(kind="m_laplace", m=NAN)),
    "m inf": ("m", lambda: EnergySpec(kind="m_laplace", m=np.inf)),
    "q nan": ("concave_q", lambda: ConcaveSpec(concave_q=NAN)),
    "q inf": ("concave_q", lambda: ConcaveSpec(concave_q=np.inf)),
    "A nan": ("A", lambda: ReactionSpec(kind="lotka_volterra", A=NAN)),
    "K inf": ("K", lambda: ReactionSpec(kind="lotka_volterra", K=np.inf)),
    "B nan": ("B", lambda: ReactionSpec(kind="lotka_volterra", B=NAN)),
    "E inf": ("E", lambda: ReactionSpec(kind="lotka_volterra", E=np.inf)),
    "wave nu nan": ("nu", lambda: _wave(nu=NAN)),
    "wave nu inf": ("nu", lambda: _wave(nu=np.inf)),
    "rho inf": ("rho", lambda: _wave(rho=np.inf)),
    "lagrangian nu nan": ("nu", lambda: _lagrangian(nu=NAN)),
    "gamma inf": ("gamma", lambda: EnergySpec(gamma=np.inf)),
    "energy B inf": ("B", lambda: EnergySpec(kind="m_laplace", B=np.inf)),
    "concave_D inf": ("concave_D", lambda: ConcaveSpec(concave_q=3.0,
                                                       concave_D=np.inf)),
    "wed T inf": ("T", lambda: heat_problem(T=np.inf)),
    **_WIDE_NON_FINITE,
    # np.diff(s) <= 0 is False at NaN, so NaN knots passed and alpha was NaN
    "table_s nan": ("table_s", lambda: DissipationSpec(
        alpha_kind="table", table_s=[0.0, NAN], table_alpha=[0.0, 1.0])),
    "table_alpha inf": ("table_alpha", lambda: DissipationSpec(
        alpha_kind="table", table_s=[0.0, 1.0], table_alpha=[0.0, np.inf])),
    "level nan": ("level", lambda: RMap("truncate_lower", level=NAN)),
    "shift inf": ("shift", lambda: RMap("lagrangian_affine", r=np.eye(2),
                                        shift=[0.0, np.inf])),
    "shape 3.7": ("shape", lambda: build_grid(dim=1, shape=(3.7,))),
    "dim 1.0": ("dim", lambda: build_grid(dim=1.0, shape=3)),
    # T = NaN used to be reported as a bad epsilon
    "wed T nan": ("T", lambda: heat_problem(T=NAN)),
    "wed T 0": ("T", lambda: heat_problem(T=0.0)),
    "ri T str": ("T", lambda: _ri(T="1")),
    "ri epsilon None": ("epsilon", lambda: _ri(epsilon=None)),
    "schedule None entry": ("schedule", lambda: check_schedule([None], 1.0)),
    "schedule scalar": ("schedule", lambda: check_schedule(0.1, 1.0)),
}


def _ri(**args):
    return RIProblem(**{**dict(
        grid=line_grid(3), phi_coeffs=(0.0, 0.0, 0.5), a=0.5,
        forcing=np.zeros((3, 3)), T=1.0, epsilon=0.1,
        initial=np.zeros(3)), **args})


@pytest.mark.parametrize("field, make", _NON_FINITE.values(),
                         ids=list(_NON_FINITE))
def test_range_checks_reject_non_finite_numbers(field, make):
    # each check used to read x <= bound, which NaN passes, or x >= 0 or
    # eps < T, which inf passes; others raised TypeError or ValueError
    _wave(), _lagrangian(), _ri(), heat_problem()  # the other data are valid
    with pytest.raises(ConfigurationError) as err:
        make()
    assert err.value.field == field


@pytest.mark.parametrize("field, make", _WIDE_NON_FINITE.values(),
                         ids=list(_WIDE_NON_FINITE))
def test_wide_problems_name_the_non_finite_field(field, make):
    # checked before any arithmetic on it: warnings are errors in tier-1,
    # and p_growth = inf used to warn in the growth probe first
    with pytest.raises(ConfigurationError) as err:
        make()
    assert err.value.field == field


def _spec(cls, **base):
    return lambda **args: cls(**{**base, **args})


def _replaced(make):
    return lambda **args: replace(make(), **args)


_AFFINE = dict(r=[[0.0, 1.0], [1.0, 0.0]], shift=[0.5, 0.5])

# every constructor that takes numbers, on valid data: name -> (the
# constructor of that data with some arguments replaced, {numeric argument:
# values just outside its documented range}). A value absent there may
# construct or not; the edge values must not.
_INTAKE = {
    "WedProblem": (_replaced(lambda: replace(heat_problem(n=3),
                                             forcing=np.zeros((9, 3)))),
                   {"T": [0.0, -1.0], "epsilon": [0.0, 1.0, 1.5],
                    "initial": [[0.0] * 4, [[0.0] * 3] * 2],
                    "forcing": [[0.0] * 4, [[[0.0] * 3]]]}),
    "RIProblem": (_replaced(_ri),
                  {"T": [0.0], "epsilon": [0.0, 1.0], "a": [-5e-324],
                   "phi_coeffs": [(), (0.0, 0.0, -1.0), [[0.0]]],
                   "forcing": [np.zeros((1, 3)), np.zeros(3)],
                   "initial": [[0.0] * 2]}),
    "WideWaveProblem": (_replaced(_wave),
                        {"T": [0.0], "epsilon": [0.0, 1.0], "rho": [0.0],
                         "nu": [-5e-324], "p_growth": [2.0 - 2 ** -52],
                         "lam": [1.0], "f_coeffs": [(), [[0.0]]],
                         "initial": [[0.0] * 4], "velocity": [[0.0] * 6]}),
    "LagrangianProblem": (_replaced(lambda: _lagrangian(
                              d=2, initial=np.zeros(2),
                              velocity=np.zeros(2))),
                          {"T": [0.0], "epsilon": [0.0, 1.0],
                           "d": [0, -1, 1.5],
                           "nu": [-1e-300], "M": [[[1.0, 0.5], [0.0, 1.0]],
                                                  np.zeros((2, 2)), [[1.0]]],
                           "Q": [[[-1.0, 0.0], [0.0, 1.0]]],
                           "u_coeffs": [[[0.0]]], "initial": [[0.0] * 3],
                           "velocity": [[0.0]]}),
    "component_poly": (_replaced(lambda: _lagrangian(
                           u_kind="component_poly", u_coeffs=(0.0, 0.0, 1.0))),
                       {"u_coeffs": [(), (0.0, 0.0, -1.0)],
                        "Q": [[[1.0, 2.0]]]}),
    "DissipationSpec": (_spec(DissipationSpec, alpha_kind="table",
                              table_s=[-1.0, 1.0], table_alpha=[-1.0, 1.0]),
                        {"p": [1.0, 0.5], "table_s": [[1.0, -1.0], [0.0]],
                         "table_alpha": [[1.0, -1.0], [0.0, 1.0, 2.0]]}),
    "power": (_spec(DissipationSpec), {"table_s": [[0.0]]}),
    "EnergySpec": (_spec(EnergySpec, kind="m_laplace", m=3.0, B=[1.0, 2.0]),
                   {"m": [2.0 - 2 ** -52], "gamma": [-1.0], "B": [[1.0, -1.0]],
                    "C": [-5e-324], "D1": [-1.0], "D2": [-1.0], "F1": [-1.0],
                    "F2": [-1.0]}),
    "fractional": (_spec(EnergySpec, kind="fractional"),
                   {"s": [0.0, 1.0], "m": []}),
    "ConcaveSpec": (_spec(ConcaveSpec, concave_q=3.0),
                    {"concave_q": [1.0], "concave_D": [-1.0, [1.0, -1.0]]}),
    "ReactionSpec": (_spec(ReactionSpec, kind="lotka_volterra"),
                     {"A": [0.0], "K": [0.0], "B": [-5e-324], "C": [-1.0],
                      "E": [-1.0]}),
    "none reaction": (_spec(ReactionSpec), {"A": [], "E": []}),
    "build_grid": (_spec(build_grid, dim=1, shape=3, spacing=0.5,
                         boundary="robin", robin_b=1.0),
                   {"dim": [0, 3, 1.0], "shape": [2, (3, 3), (0,), (3.7,)],
                    "spacing": [0.0, (0.5, 0.5)], "robin_b": [0.0]}),
    "Trajectory": (_spec(Trajectory, grid=line_grid(3), T=1.0,
                         values=np.zeros((2, 3))),
                   {"T": [0.0], "values": [np.zeros((1, 3)), np.zeros(3),
                                           np.zeros((2, 2))]}),
    "RITrajectory": (_spec(RITrajectory, grid=line_grid(3), T=1.0,
                           values=np.zeros((2, 3))),
                     {"values": [np.zeros((1, 3))]}),
    "RMap": (_spec(RMap, kind="rigid", permutation=[1, 0, 2]),
             {"permutation": [[0, 0, 1], [0.5, 1.0, 2.0], []],
              "level": [], "K": [], "axis": [2, -1], "direction": [0, 2]}),
    "truncate_lower": (_spec(RMap, kind="truncate_lower", level=-1.0),
                       {"level": [5e-324]}),
    "truncate_upper": (_spec(RMap, kind="truncate_upper", level=1.0),
                       {"level": [-5e-324]}),
    "lv_clamp": (_spec(RMap, kind="lv_clamp"), {"K": [0.0]}),
    "lagrangian_affine": (_spec(RMap, kind="lagrangian_affine", **_AFFINE),
                          {"r": [[[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0]]],
                           "shift": [[0.0] * 3]}),
    "check_schedule": (partial(check_schedule, T=1.0),
                       {"schedule": [[0.1, 0.2], [1.0], [0.0], []]}),
    "_check_deltas": (_check_deltas, {"deltas": [[0.0], [], [-1e-3]]}),
}

# what no argument may take without a ConfigurationError or a finite copy
_BAD = st.recursive(
    st.sampled_from([None, True, False, np.bool_(True), "1.0", "x", b"1",
                     NAN, np.inf, -np.inf, 1.5, -1.0, 0.0, 1, 2, 1j,
                     np.array([1j, 1.0]), 10 ** 400, -10 ** 400, 2 ** 1024]),
    lambda items: st.lists(items, max_size=3), max_leaves=6)


def _finite(obj) -> bool:
    """Whether every number obj stores (dataclass fields, arrays, sparse
    matrices, sequences, recursively) is finite; an int always is."""
    if dataclasses.is_dataclass(obj):
        return all(_finite(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return all(map(_finite, obj))
    if sp.issparse(obj):
        return bool(np.isfinite(obj.data).all())
    if obj is None or isinstance(obj, (str, bool, int, np.integer)):
        return True
    return bool(np.isfinite(np.asarray(obj, dtype=float)).all())


# where a check ties two arguments together, the other one, which its
# error may name: d sizes the states, r the shift and table_s the alpha
# table, and F'' is checked against lam as f_coeffs
_CHECKED_AGAINST = {"d": "initial", "r": "shift", "table_s": "table_alpha",
                    "lam": "f_coeffs"}


@st.composite
def _intake_draws(draw):
    name = draw(st.sampled_from(sorted(_INTAKE)))
    arg = draw(st.sampled_from(sorted(_INTAKE[name][1])))
    edges = _INTAKE[name][1][arg]
    edge = bool(edges) and draw(st.booleans())
    value = draw(st.sampled_from(edges)) if edge else draw(_BAD)
    return name, arg, value, edge


@settings(max_examples=400, deadline=None)
@given(_intake_draws())
@example(("check_schedule", "schedule", [None], False))
@example(("check_schedule", "schedule", 0.1, False))
@example(("DissipationSpec", "table_s", [NAN, 1.0], False))
@example(("DissipationSpec", "table_alpha", [-1.0, np.inf], False))
@example(("truncate_lower", "level", NAN, False))
@example(("lagrangian_affine", "shift", [0.0, -np.inf], False))
@example(("build_grid", "shape", (3.7,), True))
@example(("build_grid", "dim", 1.0, True))
@example(("LagrangianProblem", "d", 1.5, True))
@example(("WedProblem", "T", NAN, False))
@example(("RIProblem", "initial", [[0.0], [0.0, 1.0]], False))
@example(("WideWaveProblem", "rho", "x", False))
@example(("WideWaveProblem", "f_coeffs", None, False))
def test_every_constructor_checks_its_numbers(draw):
    # a draw constructs, with every stored number finite, or raises a
    # ConfigurationError naming the argument drawn; a Trajectory may hold
    # NaN and +-inf (the CSV writers write them), an RITrajectory not
    name, arg, value, edge = draw
    make, _ = _INTAKE[name]
    try:
        out = make(**{arg: value})
    except ConfigurationError as err:
        assert err.field in (arg, _CHECKED_AGAINST.get(arg)), \
            (name, arg, value, err.field)
        return
    assert not edge, (name, arg, value)
    if name == "Trajectory":
        out = replace(out, values=np.zeros((2, 3)))
    assert _finite(out), (name, arg, value)


# ---------------------------------------------------------------------------
# lattice operations and truncations
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
       st.lists(st.floats(-50, 50), min_size=3, max_size=3))
def test_lattice_pair_sums_exactly(a, b):
    g = build_grid(dim=1, shape=(3,), spacing=(1.0,))
    u = Trajectory(g, 1.0, np.array([a, b]))
    v = Trajectory(g, 1.0, np.array([b, a]))
    mn, mx = lattice_pair(u, v)
    # selections, not blends: the identity holds bitwise
    assert np.array_equal(mn.values + mx.values, u.values + v.values)
    assert np.all(mn.values <= mx.values)


def test_truncate_modes_and_sign_conventions():
    g = line_grid(5)
    u = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    lo = RMap("truncate_lower", level=-1.0).apply(u, g)
    assert np.array_equal(lo, [[-1.0, -0.5, 0.0, 0.5, 2.0]])
    hi = RMap("truncate_upper", level=1.0).apply(u, g)
    assert np.array_equal(hi, [[-2.0, -0.5, 0.0, 0.5, 1.0]])
    with pytest.raises(ConfigurationError):
        RMap("truncate_lower", level=0.5)
    with pytest.raises(ConfigurationError):
        RMap("truncate_upper", level=-0.5)
    with pytest.raises(ConfigurationError):
        RMap("truncate_sideways")


@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_sign_parts_decompose(a):
    g = build_grid(dim=1, shape=(4,), spacing=(1.0,))
    u = np.array([a])
    pos = RMap("positive_part").apply(u, g)
    neg = RMap("negative_part").apply(u, g)
    assert np.array_equal(pos + neg, u)
    assert np.all(pos >= 0.0) and np.all(neg <= 0.0)


# ---------------------------------------------------------------------------
# rearrangements
# ---------------------------------------------------------------------------

def test_symdec_order_frozen_examples():
    # distance from center, right node wins ties
    assert np.array_equal(rearrangement_order(line_grid(5),
                                              "symmetric_decreasing"),
                          [2, 3, 1, 4, 0])
    assert np.array_equal(rearrangement_order(line_grid(4),
                                              "symmetric_decreasing"),
                          [2, 1, 3, 0])


def test_rearrange_symdec_example():
    g = line_grid(5)
    u = np.array([0.0, 4.0, 1.0, 2.0, 0.0])
    r = rearrange(g, u[None], "symmetric_decreasing")[0]
    assert np.array_equal(r, [0.0, 1.0, 4.0, 2.0, 0.0])


def test_rearrange_monotone_directions():
    g = line_grid(4)
    u = np.array([1.0, 3.0, -2.0, 2.0])
    assert np.array_equal(rearrange(g, u[None], "monotone")[0],
                          [3.0, 2.0, 1.0, 0.0])
    assert np.array_equal(rearrange(g, u[None], "monotone",
                                    direction=-1)[0],
                          [0.0, 1.0, 2.0, 3.0])


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=9),
       st.sampled_from(["monotone", "symmetric_decreasing"]))
@settings(max_examples=60)
def test_rearrange_permutes_positive_part(vals, kind):
    n = len(vals)
    g = build_grid(dim=1, shape=(n,), spacing=(1.0,))
    u = np.array(vals)
    r = rearrange(g, u[None], kind)[0]
    assert np.array_equal(np.sort(r), np.sort(np.maximum(u, 0.0)))
    # idempotent: rearranging the rearranged state changes nothing
    assert np.array_equal(rearrange(g, r[None], kind)[0], r)


def test_steiner_rearranges_lines():
    g = build_grid(dim=2, shape=(3, 4), spacing=(1.0, 1.0))
    vals = np.arange(12.0)
    arr = rearrange(g, vals[None], "steiner", axis=0)[0].reshape(3, 4)
    order = rearrangement_order(line_grid(4), "symmetric_decreasing")
    for i in range(3):
        row = np.sort(vals.reshape(3, 4)[i])[::-1]
        expect = np.empty(4)
        expect[order] = row
        assert np.array_equal(arr[i], expect)


def test_steiner_axis_one_rearranges_columns():
    g = build_grid(dim=2, shape=(3, 4), spacing=(1.0, 1.0))
    vals = np.random.default_rng(2).standard_normal(12)
    arr = rearrange(g, vals[None], "steiner", axis=1)[0].reshape(3, 4)
    order = rearrangement_order(line_grid(3), "symmetric_decreasing")
    for j in range(4):
        expect = np.empty(3)
        expect[order] = np.sort(np.maximum(vals.reshape(3, 4)[:, j],
                                           0.0))[::-1]
        assert np.array_equal(arr[:, j], expect)


def test_rearrange_rejects_bad_axis_direction_and_row_size():
    g = build_grid(dim=2, shape=(3, 4), spacing=(1.0, 1.0))
    for axis in (2, -1):
        with pytest.raises(ConfigurationError):
            rearrange(g, np.ones((2, 12)), "steiner", axis=axis)
    with pytest.raises(ConfigurationError):
        rearrange(line_grid(4), np.ones((1, 4)), "monotone", direction=0)
    with pytest.raises(ConfigurationError):
        rearrange(line_grid(4), np.ones((1, 5)), "monotone")
    with pytest.raises(ConfigurationError):
        rearrange(line_grid(4), np.ones(4), "monotone")  # not a stack


def test_hardy_littlewood_exhaustive_small():
    # brute force over the full 3-value alphabet at n = 4
    g = build_grid(dim=1, shape=(4,), spacing=(1.0,))
    vecs = [np.array(v, dtype=float)
            for v in itertools.product((0.0, 1.0, 2.0), repeat=4)]
    for kind in ("monotone", "symmetric_decreasing"):
        rear = [rearrange(g, v[None], kind)[0] for v in vecs]
        worst = 0.0
        for (u, ru), (v, rv) in itertools.product(zip(vecs, rear), repeat=2):
            worst = min(worst, float(ru @ rv - u @ v))
        assert worst >= 0.0


def test_polya_szego_convention_counterexamples():
    # symdec pairs with padded differences, monotone with unpadded ones;
    # each vector below breaks the mismatched pairing
    g3 = build_grid(dim=1, shape=(3,), spacing=(1.0,))

    def unpadded(v, m):
        return np.sum(np.abs(np.diff(v)) ** m)

    def padded(v, m):
        return unpadded(np.concatenate([[0.0], v, [0.0]]), m)

    u = np.array([0.0, 1.0, 4.0])
    r = rearrange(g3, u[None], "symmetric_decreasing")[0]
    assert np.array_equal(r, [0.0, 4.0, 1.0])
    assert unpadded(r, 2) > unpadded(u, 2)       # wrong pairing inflates
    assert padded(r, 2) <= padded(u, 2)

    w = np.array([3.0, 4.0, 3.0])
    rm = rearrange(g3, w[None], "monotone")[0]
    assert np.array_equal(rm, [4.0, 3.0, 3.0])
    assert padded(rm, 2) > padded(w, 2)
    assert unpadded(rm, 2) <= unpadded(w, 2)


@pytest.mark.parametrize("m", [2.0, 3.0])
def test_polya_szego_exhaustive_small(m):
    for n in (3, 4, 5):
        g = build_grid(dim=1, shape=(n,), spacing=(1.0,))
        for v in itertools.product((0.0, 1.0, 2.0), repeat=n):
            u = np.array(v)
            rmono = rearrange(g, u[None], "monotone")[0]
            assert (np.sum(np.abs(np.diff(rmono)) ** m)
                    <= np.sum(np.abs(np.diff(u)) ** m) + 1e-12)
            rsym = rearrange(g, u[None], "symmetric_decreasing")[0]
            up = np.concatenate([[0.0], u, [0.0]])
            rp = np.concatenate([[0.0], rsym, [0.0]])
            assert (np.sum(np.abs(np.diff(rp)) ** m)
                    <= np.sum(np.abs(np.diff(up)) ** m) + 1e-12)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_reflection_is_an_involution():
    g = line_grid(7)
    perm = reflection_permutation(g)
    assert np.array_equal(perm[perm], np.arange(7))
    u = np.arange(7.0)[None]
    reflect = RMap("rigid", permutation=perm)
    assert np.array_equal(reflect.apply(reflect.apply(u, g), g), u)


def test_rigid_transform_preserves_values():
    g = line_grid(5)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(1, 5))
    perm = rng.permutation(5)
    v = RMap("rigid", permutation=perm).apply(u, g)
    assert np.array_equal(np.sort(v), np.sort(u))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_field_csv_roundtrip_is_exact():
    g = line_grid(8)
    rng = np.random.default_rng(11)
    u = rng.normal(size=8) * np.pi
    text = field_to_csv(g, u)
    head, *rows = text.splitlines()
    assert head == "index,coord0,value" and text.endswith("\n")
    cells = [r.split(",") for r in rows]
    assert [int(c[0]) for c in cells] == list(range(8))
    assert np.array_equal([float(c[1]) for c in cells], g.coords()[:, 0])
    # repr floats read back bit for bit
    assert np.array_equal([float(c[2]) for c in cells], u)


def _per_node_csv(grid, values) -> str:
    """field_to_csv's text, one repr per coordinate and value."""
    coords = grid.coords()
    head = ",".join(["index"] + [f"coord{k}" for k in range(grid.dim)]
                    + ["value"])
    rows = [f"{i},{','.join(repr(float(c)) for c in coords[i])},"
            f"{repr(float(values[i]))}" for i in range(grid.n_nodes)]
    return "\n".join([head] + rows) + "\n"


@pytest.mark.parametrize("grid", [
    line_grid(9), point_grid(),
    build_grid(dim=2, shape=(4, 5), spacing=(0.3, 0.1), boundary="neumann",
               domain_kind="rectangle"),
    build_grid(dim=2, shape=(3, 3), spacing=(1.0, 1.0), boundary="periodic",
               domain_kind="torus")], ids=["1d", "point", "2d", "torus"])
def test_field_to_csv_is_the_per_node_writer(grid):
    rng = np.random.default_rng(4)
    n = grid.n_nodes
    # repeats, both zeros and values whose repr takes exponent form
    pool = np.array([0.0, -0.0, 1e16, 9.9e-5, -1.0 / 3.0, 5e-324])
    for values in (rng.normal(size=n) * np.pi, pool[np.arange(n) % 6],
                   np.cos(grid.coords()[:, 0])):
        assert field_to_csv(grid, values) == _per_node_csv(grid, values)
