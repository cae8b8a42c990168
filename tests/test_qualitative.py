"""Solution-class maps: application semantics, enforcement defaults, the
sampled structure checks, and invariant solves."""

import json

import numpy as np
import pytest

from wedflow import (ConfigurationError, EnergySpec, Field, RMap, Trajectory,
                     apply_rmap, check_r1, check_r2, fixed_point_solve,
                     invariance_residual, invariant_solve,
                     reflection_permutation)
from dataclasses import replace

from conftest import heat_problem, line_grid, point_grid


def symmetric_u0(n):
    g = line_grid(n)
    x = g.coords()[:, 0]
    raw = 1.0 + 0.4 * np.cos(2.0 * np.pi * x / x.max())
    return g, 0.5 * (raw + raw[::-1])  # exactly reflection-invariant


# ---------------------------------------------------------------------------
# map application
# ---------------------------------------------------------------------------

def test_rigid_map_application():
    g = line_grid(5)
    R = RMap(kind="rigid", permutation=reflection_permutation(g))
    u = Field(g, np.arange(5.0))
    assert np.array_equal(apply_rmap(R, u).values, [4.0, 3.0, 2.0, 1.0, 0.0])


def test_truncation_and_sign_maps():
    g = line_grid(4)
    u = Field(g, np.array([-2.0, -0.5, 0.5, 2.0]))
    assert np.array_equal(
        apply_rmap(RMap(kind="truncate_lower", level=-1.0), u).values,
        [-1.0, -0.5, 0.5, 2.0])
    assert np.array_equal(
        apply_rmap(RMap(kind="truncate_upper", level=1.0), u).values,
        [-2.0, -0.5, 0.5, 1.0])
    assert np.array_equal(
        apply_rmap(RMap(kind="positive_part"), u).values,
        [0.0, 0.0, 0.5, 2.0])
    assert np.array_equal(
        apply_rmap(RMap(kind="negative_part"), u).values,
        [-2.0, -0.5, 0.0, 0.0])


def test_lv_clamp_map_needs_pairs():
    g = line_grid(3)
    R = RMap(kind="lv_clamp", K=1.0)
    pair = Field(g, np.array([2.0, -1.0, 0.5]))
    with pytest.raises(ConfigurationError):
        apply_rmap(R, pair)  # 3 dofs is not a stacked pair on 3 nodes


def test_averaging_map_2d_axis():
    from wedflow import build_grid
    g = build_grid(dim=2, shape=(3, 3), spacing=(1.0, 1.0))
    vals = np.arange(9.0)
    out = apply_rmap(RMap(kind="averaging", axis=0), Field(g, vals)).values
    arr = vals.reshape(3, 3)
    assert np.allclose(out.reshape(3, 3), arr.mean(axis=0, keepdims=True))


def test_compose_applies_in_declared_order():
    g = line_grid(3)
    R = RMap(kind="compose", parts=(
        RMap(kind="monotone"),
        RMap(kind="rigid", permutation=reflection_permutation(g))))
    u = Field(g, np.array([0.0, 1.0, 4.0]))
    # monotone gives [4,1,0], the reflection flips it back
    assert np.array_equal(apply_rmap(R, u).values, [0.0, 1.0, 4.0])


def test_apply_rmap_trajectory_drops_stale_pin():
    g = line_grid(3)
    vals = np.array([[-1.0, 0.5, 2.0], [0.0, 0.0, 0.0]])
    traj = Trajectory(g, 1.0, vals, pinned_initial=vals[0])
    mapped = apply_rmap(RMap(kind="positive_part"), traj)
    assert mapped.pinned_initial is None
    assert np.array_equal(mapped.values[0], [0.0, 0.5, 2.0])


# ---------------------------------------------------------------------------
# enforcement defaults and validation
# ---------------------------------------------------------------------------

def test_enforcement_defaults():
    g = line_grid(4)
    refl = reflection_permutation(g)
    assert RMap(kind="rigid", permutation=refl).enforcement == "projected"
    assert RMap(kind="lv_clamp", K=1.0).enforcement == "posthoc"
    assert RMap(kind="truncate_upper", level=2.0).enforcement == "posthoc"
    assert RMap(kind="truncate_upper", level=0.0).enforcement == "projected"
    comp = RMap(kind="compose", parts=(
        RMap(kind="rigid", permutation=refl),
        RMap(kind="truncate_upper", level=2.0)))
    assert comp.enforcement == "posthoc"


def test_rmap_algebra_labels():
    g = line_grid(4)
    assert RMap(kind="rigid",
                permutation=reflection_permutation(g)).algebra \
        == "automorphism"
    assert RMap(kind="positive_part").algebra == "idempotent"


def test_rmap_validation():
    with pytest.raises(ConfigurationError):
        RMap(kind="shear")
    with pytest.raises(ConfigurationError):
        RMap(kind="rigid")
    with pytest.raises(ConfigurationError):
        RMap(kind="compose", parts=())
    with pytest.raises(ConfigurationError):
        RMap(kind="lv_clamp", K=0.0)
    with pytest.raises(ConfigurationError):
        RMap(kind="positive_part", enforcement="maybe")


def test_rmap_rejects_axis_direction_and_level_at_construction():
    for bad in (dict(kind="steiner", axis=2), dict(kind="steiner", axis=-1),
                dict(kind="averaging", axis=2),
                dict(kind="monotone", direction=0),
                dict(kind="truncate_lower", level=0.5),
                dict(kind="truncate_upper", level=-0.5),
                dict(kind="translation", permutation=np.zeros(4, int)),
                dict(kind="lagrangian_affine"),
                dict(kind="lagrangian_affine", r=np.eye(2),
                     shift=np.ones(3))):
        with pytest.raises(ConfigurationError):
            RMap(**bad)


def test_rmap_apply_checks_the_state_size():
    g = line_grid(4)
    with pytest.raises(ConfigurationError):
        RMap(kind="rigid", permutation=[1, 0]).apply(np.ones((3, 4)), g)
    with pytest.raises(ConfigurationError):
        RMap(kind="lagrangian_affine", r=np.eye(2)).apply(np.ones((3, 4)), g)
    with pytest.raises(ConfigurationError):
        RMap(kind="positive_part").apply(np.ones((3, 5)), g)
    with pytest.raises(ConfigurationError):
        RMap(kind="steiner").apply(np.ones((3, 4)), g)  # 1D grid


def _grid2(shape=(3, 5)):
    from wedflow import build_grid
    return build_grid(dim=2, shape=shape, spacing=(0.5, 0.25))


_refl = reflection_permutation(line_grid(6))
_rot = np.array([[0.6, -0.8], [0.8, 0.6]])


@pytest.mark.parametrize("R, grid", [
    (RMap(kind="rigid", permutation=_refl), line_grid(6)),
    (RMap(kind="translation", permutation=np.roll(np.arange(6), 1)),
     line_grid(6)),
    (RMap(kind="monotone"), line_grid(6)),
    (RMap(kind="monotone", direction=-1), line_grid(6)),
    (RMap(kind="symmetric_decreasing"), line_grid(6)),
    (RMap(kind="symmetric_decreasing"), _grid2()),
    (RMap(kind="steiner", axis=0), _grid2()),
    (RMap(kind="steiner", axis=1), _grid2()),
    (RMap(kind="truncate_lower", level=-0.3), line_grid(6)),
    (RMap(kind="truncate_upper", level=0.4), line_grid(6)),
    (RMap(kind="positive_part"), line_grid(6)),
    (RMap(kind="negative_part"), line_grid(6)),
    (RMap(kind="lv_clamp", K=0.8), line_grid(6)),
    (RMap(kind="averaging"), line_grid(6)),
    (RMap(kind="averaging", axis=0), _grid2()),
    (RMap(kind="averaging", axis=1), _grid2()),
    (RMap(kind="averaging"), point_grid()),
    (RMap(kind="lagrangian_affine", r=_rot, shift=np.array([0.3, -1.1])),
     point_grid()),
    (RMap(kind="compose", parts=(RMap(kind="truncate_lower", level=0.0),
                                 RMap(kind="rigid", permutation=_refl),
                                 RMap(kind="monotone"))), line_grid(6)),
])
def test_apply_on_a_stack_matches_single_rows_bit_for_bit(R, grid):
    n = 2 if R.kind in ("averaging", "lagrangian_affine") \
        and grid.domain_kind == "point" else grid.n_nodes * R.n_components()
    rows = np.random.default_rng(5).standard_normal((9, n)) * 1.7
    rows[3] = rows[2]  # ties across rows
    for velocity in (False, True):
        stacked = R.apply(rows, grid, velocity=velocity)
        single = np.stack([R.apply(row[None], grid, velocity=velocity)[0]
                           for row in rows])
        assert stacked.shape == rows.shape
        assert np.array_equal(stacked, single)
    if R.kind == "lagrangian_affine":
        # velocities see the map without its shift
        linear = RMap(kind="lagrangian_affine", r=R.r)
        assert np.array_equal(R.apply(rows, grid, velocity=True),
                              linear.apply(rows, grid))
        assert np.allclose(R.apply(rows, grid), rows @ R.r.T + R.shift)


# ---------------------------------------------------------------------------
# sampled structure checks
# ---------------------------------------------------------------------------

def test_check_r1_reflection_and_truncation_pass():
    g = line_grid(7)
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    assert check_r1(refl, g, samples=16).passed
    assert check_r1(RMap(kind="truncate_lower", level=0.0), g,
                    samples=16).passed


def test_check_r2_symmetric_heat_passes():
    g, u0 = symmetric_u0(9)
    problem = replace(heat_problem(n=9), initial=u0)
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    report = check_r2(refl, problem, samples=8)
    assert report.passed
    assert not report.notes


def test_check_r2_flags_asymmetric_forcing():
    g, u0 = symmetric_u0(9)
    f = np.zeros(9)
    f[0] = 0.9
    problem = replace(heat_problem(n=9), initial=u0,
                      energy2=EnergySpec(kind="none", forcing=f))
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    report = check_r2(refl, problem, samples=8)
    assert not report.passed
    assert any(note.startswith("compat:") for note in report.notes)
    payload = json.loads(report.to_json())
    assert payload["counterexample_csv"] is not None
    assert not payload["passed"]


def test_property_report_json_floats_are_repr():
    g = line_grid(5)
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    report = check_r1(refl, g, samples=4)
    payload = json.loads(report.to_json())
    for v in payload["conditions"].values():
        assert isinstance(v, str)
        float(v)  # parses back


# ---------------------------------------------------------------------------
# invariant solves
# ---------------------------------------------------------------------------

def test_invariant_solve_requires_exactly_invariant_initial():
    problem = heat_problem(n=9)  # cosine profile is not symmetric here
    g = problem.grid
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    assert not np.array_equal(problem.initial, problem.initial[::-1])
    with pytest.raises(ConfigurationError):
        invariant_solve(problem, refl, steps=8)


def test_invariant_solve_reflection_heat():
    g, u0 = symmetric_u0(9)
    problem = replace(heat_problem(n=9), initial=u0)
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    res = invariant_solve(problem, refl, steps=16, schedule=(0.2, 0.1))
    assert not res.flagged
    assert res.residual <= 1e-8
    assert invariance_residual(refl, res.trajectory) == res.residual


def test_invariant_solve_truncation_keeps_nonneg():
    g, raw = symmetric_u0(9)
    u0 = np.maximum(raw - 1.0, 0.0)
    problem = replace(heat_problem(n=9), initial=u0,
                      energy2=EnergySpec(kind="none",
                                         forcing=np.full(9, 0.3)))
    R = RMap(kind="truncate_lower", level=0.0)
    res = invariant_solve(problem, R, steps=16, schedule=(0.2, 0.1))
    assert not res.flagged
    assert res.trajectory.values.min() >= -1e-10
    # the plain solve stays nonnegative too; the map is not doing the work
    plain, rep = fixed_point_solve(replace(problem, epsilon=0.1), 16)
    assert rep.converged
    assert plain.values.min() >= -1e-10


def test_invariant_solve_flags_incompatible_data():
    g, u0 = symmetric_u0(9)
    f = np.zeros(9)
    f[0] = 0.9
    problem = replace(heat_problem(n=9), initial=u0,
                      energy2=EnergySpec(kind="none", forcing=f))
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    res = invariant_solve(problem, refl, steps=8, schedule=(0.2,))
    assert res.flagged


def test_check_r2_pairing_covers_every_source_slice():
    from wedflow import DissipationSpec, ReactionSpec, WedProblem
    from wedflow.qualitative import MARGIN_TOL
    g = line_grid(5)
    steps = 4
    table = -np.ones((steps + 1, 5))
    table[0] = 1.0

    def problem(source):
        return WedProblem(grid=g, dissipation=DissipationSpec(p=2.0),
                          energy1=EnergySpec(kind="m_laplace", m=2.0),
                          energy2=EnergySpec(kind="none"),
                          reaction=ReactionSpec(kind="constant_g", g=source),
                          T=1.0, epsilon=0.2, initial=np.zeros(5))

    R = RMap(kind="truncate_lower", level=0.0)
    indexed = check_r2(R, problem(table))
    constant = check_r2(R, problem(-np.ones(5)))
    # only slice 0 points up; the later slices see the same losing pairing
    # as a source that points down at every time
    assert constant.conditions["pairing_monotone"] < -MARGIN_TOL
    assert indexed.conditions["pairing_monotone"] \
        == constant.conditions["pairing_monotone"]
    assert not indexed.passed
