"""Grid construction, trajectories, lattice operations, and
rearrangements.

The rearrangement checks here are the small independent oracles: a frozen
node-order example, exhaustive brute force over a small alphabet, and the
two counterexamples that pin the difference-convention pairing. The full
1000-sample and length-7 exhaustive runs live in the rearrangement verify
suite and are exercised by the acceptance tests.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, LagrangianProblem, ReactionSpec, RMap,
                     Trajectory, WideWaveProblem, build_grid,
                     constant_trajectory, lattice_pair, rearrange,
                     rearrangement_order, reflection_permutation)
from wedflow.grids import field_to_csv

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

# the inertial problems' non-finite inputs, with the field each must name
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
}


@pytest.mark.parametrize("make", [
    lambda: build_grid(dim=1, shape=(3,), spacing=(NAN,)),
    lambda: build_grid(dim=1, shape=(3,), spacing=(np.inf,)),
    lambda: build_grid(dim=1, shape=(3,), boundary="robin", robin_b=NAN),
    lambda: build_grid(dim=1, shape=(3,), boundary="robin", robin_b=np.inf),
    lambda: Trajectory(line_grid(3), NAN, np.zeros((2, 3))),
    lambda: Trajectory(line_grid(3), np.inf, np.zeros((2, 3))),
    lambda: DissipationSpec(p=NAN),
    lambda: DissipationSpec(p=np.inf),
    lambda: EnergySpec(kind="m_laplace", m=NAN),
    lambda: EnergySpec(kind="m_laplace", m=np.inf),
    lambda: ConcaveSpec(concave_q=NAN),
    lambda: ConcaveSpec(concave_q=np.inf),
    lambda: ReactionSpec(kind="lotka_volterra", A=NAN),
    lambda: ReactionSpec(kind="lotka_volterra", K=np.inf),
    lambda: ReactionSpec(kind="lotka_volterra", B=NAN),
    lambda: ReactionSpec(kind="lotka_volterra", E=np.inf),
    lambda: _wave(nu=NAN),
    lambda: _wave(nu=np.inf),
    lambda: _wave(rho=np.inf),
    lambda: _lagrangian(nu=NAN),
    lambda: EnergySpec(gamma=np.inf),
    lambda: EnergySpec(kind="m_laplace", B=np.inf),
    lambda: ConcaveSpec(concave_q=3.0, concave_D=np.inf),
    lambda: heat_problem(T=np.inf),
    *(make for _, make in _WIDE_NON_FINITE.values()),
], ids=["spacing nan", "spacing inf", "robin_b nan", "robin_b inf", "T nan",
        "T inf", "p nan", "p inf", "m nan", "m inf", "q nan", "q inf",
        "A nan", "K inf", "B nan", "E inf", "wave nu nan", "wave nu inf",
        "rho inf", "lagrangian nu nan", "gamma inf", "energy B inf",
        "concave_D inf", "wed T inf", *_WIDE_NON_FINITE])
def test_range_checks_reject_non_finite_numbers(make):
    # each check used to read x <= bound, which NaN passes, or x >= 0 or
    # eps < T, which inf passes
    _wave(), _lagrangian(), heat_problem()  # the other data are valid
    with pytest.raises(ConfigurationError):
        make()


@pytest.mark.parametrize("field, make", _WIDE_NON_FINITE.values(),
                         ids=list(_WIDE_NON_FINITE))
def test_wide_problems_name_the_non_finite_field(field, make):
    # checked before any arithmetic on it: warnings are errors in tier-1,
    # and p_growth = inf used to warn in the growth probe first
    with pytest.raises(ConfigurationError) as err:
        make()
    assert err.value.field == field


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
