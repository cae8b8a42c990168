"""Grid construction, fields, lattice operations, and rearrangements.

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

from wedflow import (ConfigurationError, Field, RMap, Trajectory, apply_rmap,
                     build_grid, constant_trajectory, lattice_min_max,
                     rearrange, rearrangement_order, reflection_permutation,
                     zero_field)
from wedflow.grids import (field_from_csv, field_to_csv,
                           rotation_permutation_90,
                           torus_translation_permutation)

from conftest import line_grid, point_grid


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


def test_field_values_are_locked():
    g = line_grid(5)
    u = Field(g, np.arange(5.0))
    with pytest.raises(ValueError):
        u.values[0] = 7.0
    v = u.with_values(np.ones(5))
    assert v.values[0] == 1.0 and u.values[0] == 0.0


def test_trajectory_pin_is_bitwise():
    g = line_grid(4)
    vals = np.zeros((3, 4))
    traj = Trajectory(g, 1.0, vals, pinned_initial=np.zeros(4))
    assert traj.steps == 2 and traj.dt == 0.5
    with pytest.raises(ConfigurationError):
        Trajectory(g, 1.0, vals, pinned_initial=np.full(4, 1e-300))


def test_constant_trajectory_two_components():
    g = line_grid(3)
    traj = constant_trajectory(g, np.arange(6.0), 1.0, 4)
    assert traj.ncomp == 2
    assert np.array_equal(traj.component(2, 1).values, [3.0, 4.0, 5.0])
    with pytest.raises(ConfigurationError):
        traj.slice(0)  # slice() refuses stacked pairs


# ---------------------------------------------------------------------------
# lattice operations and truncations
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
       st.lists(st.floats(-50, 50), min_size=3, max_size=3))
def test_lattice_pair_sums_exactly(a, b):
    g = build_grid(dim=1, shape=(3,), spacing=(1.0,))
    u = Field(g, np.array(a))
    v = Field(g, np.array(b))
    mn, mx = lattice_min_max(u, v)
    # selections, not blends: the identity holds bitwise
    assert np.array_equal(mn.values + mx.values, u.values + v.values)
    assert np.all(mn.values <= mx.values)


def test_truncate_modes_and_sign_conventions():
    g = line_grid(5)
    u = Field(g, np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    lo = apply_rmap(RMap("truncate_lower", level=-1.0), u)
    assert np.array_equal(lo.values, [-1.0, -0.5, 0.0, 0.5, 2.0])
    hi = apply_rmap(RMap("truncate_upper", level=1.0), u)
    assert np.array_equal(hi.values, [-2.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ConfigurationError):
        RMap("truncate_lower", level=0.5)
    with pytest.raises(ConfigurationError):
        RMap("truncate_upper", level=-0.5)
    with pytest.raises(ConfigurationError):
        RMap("truncate_sideways")


@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_sign_parts_decompose(a):
    g = build_grid(dim=1, shape=(4,), spacing=(1.0,))
    u = Field(g, np.array(a))
    pos = apply_rmap(RMap("positive_part"), u)
    neg = apply_rmap(RMap("negative_part"), u)
    assert np.array_equal(pos.values + neg.values, u.values)
    assert np.all(pos.values >= 0.0) and np.all(neg.values <= 0.0)


def test_zero_field():
    g = line_grid(6)
    assert np.array_equal(zero_field(g).values, np.zeros(6))


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
    u = Field(g, np.array([0.0, 4.0, 1.0, 2.0, 0.0]))
    r = Field(g, rearrange(g, u.values[None], "symmetric_decreasing")[0])
    assert np.array_equal(r.values, [0.0, 1.0, 4.0, 2.0, 0.0])


def test_rearrange_monotone_directions():
    g = line_grid(4)
    u = Field(g, np.array([1.0, 3.0, -2.0, 2.0]))
    assert np.array_equal(rearrange(g, u.values[None], "monotone")[0],
                          [3.0, 2.0, 1.0, 0.0])
    assert np.array_equal(rearrange(g, u.values[None], "monotone",
                                    direction=-1)[0],
                          [0.0, 1.0, 2.0, 3.0])


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=9),
       st.sampled_from(["monotone", "symmetric_decreasing"]))
@settings(max_examples=60)
def test_rearrange_permutes_positive_part(vals, kind):
    n = len(vals)
    g = build_grid(dim=1, shape=(n,), spacing=(1.0,))
    u = Field(g, np.array(vals))
    r = Field(g, rearrange(g, u.values[None], kind)[0])
    assert np.array_equal(np.sort(r.values),
                          np.sort(np.maximum(u.values, 0.0)))
    # idempotent: rearranging the rearranged field changes nothing
    assert np.array_equal(rearrange(g, r.values[None], kind)[0], r.values)


def test_steiner_rearranges_lines():
    g = build_grid(dim=2, shape=(3, 4), spacing=(1.0, 1.0))
    vals = np.arange(12.0)
    r = Field(g, rearrange(g, vals[None], "steiner", axis=0)[0])
    arr = r.values.reshape(3, 4)
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
    u = Field(g, np.arange(7.0))
    reflect = RMap("rigid", permutation=perm)
    v = apply_rmap(reflect, apply_rmap(reflect, u))
    assert np.array_equal(v.values, u.values)


def test_torus_translation_composes():
    g = build_grid(dim=1, shape=(6,), spacing=(1.0,), boundary="periodic",
                   domain_kind="torus")
    p2 = torus_translation_permutation(g, 2)
    p4 = torus_translation_permutation(g, 4)
    assert np.array_equal(p2[p4], np.arange(6))


def test_rotation_90_has_order_four():
    g = build_grid(dim=2, shape=(5, 5), spacing=(1.0, 1.0))
    p = rotation_permutation_90(g)
    q = np.arange(25)
    for _ in range(4):
        q = p[q]
    assert np.array_equal(q, np.arange(25))


def test_rigid_transform_preserves_values():
    g = line_grid(5)
    rng = np.random.default_rng(3)
    u = Field(g, rng.normal(size=5))
    perm = rng.permutation(5)
    v = apply_rmap(RMap("rigid", permutation=perm), u)
    assert np.array_equal(np.sort(v.values), np.sort(u.values))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_field_csv_roundtrip_is_exact():
    g = line_grid(8)
    rng = np.random.default_rng(11)
    u = Field(g, rng.normal(size=8) * np.pi)
    text = field_to_csv(u)
    back = field_from_csv(g, text)
    assert np.array_equal(back.values, u.values)
    assert text.splitlines()[0].startswith("index,")
