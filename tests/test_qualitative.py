"""Solution-class maps: application semantics, enforcement defaults, the
sampled structure checks, and invariant solves."""

import json

import numpy as np
import pytest

from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, ReactionSpec, RMap, Scenario,
                     WedProblem, check_r1, check_r2,
                     constant_trajectory, dual_field, fixed_point_solve,
                     invariance_residual, invariant_solve,
                     reflection_permutation)
from wedflow.cli import bundled_scenarios
from wedflow.energies import energy1_value_grad
from wedflow.grids import field_to_csv
from wedflow.qualitative import (MARGIN_TOL, PropertyReport, _fixed_point_of,
                                 _worsen, compatibility_issues)
from wedflow.wed import _dissipation_value
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
    u = np.arange(10.0).reshape(2, 5)
    assert np.array_equal(R.apply(u, g), [[4.0, 3.0, 2.0, 1.0, 0.0],
                                          [9.0, 8.0, 7.0, 6.0, 5.0]])


def test_truncation_and_sign_maps():
    g = line_grid(4)
    u = np.array([[-2.0, -0.5, 0.5, 2.0], [2.0, 0.5, -0.5, -2.0]])
    assert np.array_equal(
        RMap(kind="truncate_lower", level=-1.0).apply(u, g),
        [[-1.0, -0.5, 0.5, 2.0], [2.0, 0.5, -0.5, -1.0]])
    assert np.array_equal(
        RMap(kind="truncate_upper", level=1.0).apply(u, g),
        [[-2.0, -0.5, 0.5, 1.0], [1.0, 0.5, -0.5, -2.0]])
    assert np.array_equal(
        RMap(kind="positive_part").apply(u, g),
        [[0.0, 0.0, 0.5, 2.0], [2.0, 0.5, 0.0, 0.0]])
    assert np.array_equal(
        RMap(kind="negative_part").apply(u, g),
        [[-2.0, -0.5, 0.0, 0.0], [0.0, 0.0, -0.5, -2.0]])


def test_lv_clamp_map_needs_pairs():
    g = line_grid(3)
    R = RMap(kind="lv_clamp", K=1.0)
    with pytest.raises(ConfigurationError):
        # 3 dofs is not a stacked pair on 3 nodes
        R.apply(np.array([[2.0, -1.0, 0.5]]), g)
    assert np.array_equal(R.apply(np.array([[2.0, -1.0, 0.5] * 2]), g),
                          [[1.0, 0.0, 0.5, 2.0, 0.0, 0.5]])


def test_averaging_map_2d_axis():
    from wedflow import build_grid
    g = build_grid(dim=2, shape=(3, 3), spacing=(1.0, 1.0))
    vals = np.arange(9.0)
    out = RMap(kind="averaging", axis=0).apply(vals[None], g)[0]
    arr = vals.reshape(3, 3)
    assert np.allclose(out.reshape(3, 3), arr.mean(axis=0, keepdims=True))


def test_compose_applies_in_declared_order():
    g = line_grid(3)
    R = RMap(kind="compose", parts=(
        RMap(kind="monotone"),
        RMap(kind="rigid", permutation=reflection_permutation(g))))
    u = np.array([[0.0, 1.0, 4.0]])
    # monotone gives [4,1,0], the reflection flips it back
    assert np.array_equal(R.apply(u, g), u)


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
    # enforcement follows from the kind and level; it is no option
    with pytest.raises(TypeError):
        RMap(kind="positive_part", enforcement="posthoc")


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
    problem = replace(heat_problem(n=9), initial=u0, forcing=f)
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
    problem = replace(heat_problem(n=9), initial=u0, forcing=np.full(9, 0.3))
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
    problem = replace(heat_problem(n=9), initial=u0, forcing=f)
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
                          energy2=ConcaveSpec(), reaction=ReactionSpec(),
                          T=1.0, epsilon=0.2, initial=np.zeros(5),
                          forcing=source)

    R = RMap(kind="truncate_lower", level=0.0)
    indexed = check_r2(R, problem(table))
    constant = check_r2(R, problem(-np.ones(5)))
    # only slice 0 points up; the later slices see the same losing pairing
    # as a source that points down at every time
    assert constant.conditions["pairing_monotone"] < -MARGIN_TOL
    assert indexed.conditions["pairing_monotone"] \
        == constant.conditions["pairing_monotone"]
    assert not indexed.passed
    # the compatibility check reads the one source field
    for report in (indexed, constant):
        assert "compat:lower cutoff needs nonnegative forcing" in report.notes


# ---------------------------------------------------------------------------
# the stacked check_r2 against its per-sample loop
# ---------------------------------------------------------------------------

def _fixed_point_loop(R, grid, vec, iters=16):
    """One seed's fixed point of R, or None where the iteration does not
    settle, as a loop over single states finds it."""
    cur = vec[None]
    if R.kind in ("rigid", "translation"):
        orbit = [cur]
        for _ in range(iters):
            cur = R.apply(cur, grid)
            if np.array_equal(cur, orbit[0]):
                break
            orbit.append(cur)
        avg = np.mean(np.concatenate(orbit), axis=0)[None]
        return (0.5 * (avg + R.apply(avg, grid)))[0]
    for _ in range(iters):
        nxt = R.apply(cur, grid)
        if np.max(np.abs(nxt - cur)) <= 1e-13 * (1.0 + np.max(np.abs(cur))):
            return nxt[0]
        cur = nxt
    return None


def _check_r2_loop(R, problem, samples=16, seed=0):
    """check_r2 one sample at a time: each state is mapped, priced and
    paired alone, in draw order."""
    rng = np.random.default_rng(seed)
    grid = problem.grid
    n = problem.n_dof
    conds, state = {}, {}
    notes = [f"compat:{m}" for m in compatibility_issues(R, problem, seed)]
    steps = 6
    hd = grid.cell_measure
    f = problem.forcing
    source_steps = max(len(f) - 1, 1) if np.ndim(f) == 2 else 1
    for k in range(samples):
        u = rng.standard_normal(n) * 2.0
        if k % 2 == 1:
            u = R.apply(u[None], grid)[0] + 0.1 * rng.standard_normal(n)
        ru = R.apply(u[None], grid)[0]
        (eu, eru), _ = energy1_value_grad(problem.energy1, grid,
                                          np.stack([u, ru]))
        _worsen(conds, "energy_monotone",
                (eu - eru) / (1.0 + abs(eu)) + MARGIN_TOL, state, u)
        traj = np.cumsum(rng.standard_normal((steps + 1, n)) * 0.5, axis=0)
        rt = R.apply(traj, grid)
        dba, dbr = _dissipation_value(problem, np.stack([traj, rt]),
                                      problem.T / steps)
        _worsen(conds, "dissipation_monotone",
                (dba - dbr) / (1.0 + abs(dba)) + MARGIN_TOL, state,
                traj.ravel())
        if R.enforcement == "projected":
            src = _fixed_point_loop(R, grid, rng.standard_normal(n) * 2.0)
            if src is None:
                continue
        else:
            src = u
        duals = dual_field(problem, constant_trajectory(
            grid, src, problem.T, source_steps))
        for w in duals:
            margin = hd * float(w @ ru - w @ u)
            _worsen(conds, "pairing_monotone",
                    margin / (1.0 + abs(hd * float(w @ u))) + MARGIN_TOL,
                    state, u)
    return PropertyReport(name=f"r2:{R.kind}", conditions=conds,
                          samples=samples, seed=seed, notes=tuple(notes),
                          counterexample=state.get("worst"),
                          counterexample_grid=grid)


def _invariance_suite_cases():
    """The four (map, problem) pairs of `verify invariance`."""
    grid = line_grid(9, spacing=0.25)
    x = grid.coords()[:, 0]
    u0 = 1.0 + 0.5 * np.cos(np.pi * x / x.max())
    u0 = 0.5 * (u0 + u0[::-1])
    reflect = RMap(kind="rigid", permutation=reflection_permutation(grid))
    trunc = RMap(kind="truncate_lower", level=0.0)
    base = dict(grid=grid, dissipation=DissipationSpec(p=2.0),
                energy2=ConcaveSpec(), reaction=ReactionSpec(), T=0.5,
                epsilon=0.1)
    heat = EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0)
    mlap = EnergySpec(kind="m_laplace", m=3.0, B=1.0, C=0.5)
    truncated = WedProblem(energy1=heat, initial=np.maximum(u0 - 1.0, 0.0),
                           **base)
    return {
        "reflection_heat": (reflect, WedProblem(energy1=heat, initial=u0,
                                                **base)),
        "reflection_m_laplace": (reflect, WedProblem(energy1=mlap,
                                                     initial=u0, **base)),
        "truncation": (trunc, truncated),
        "composition": (RMap(kind="compose", parts=(trunc, reflect)),
                        truncated),
    }


def _lv_patch_case():
    sc = Scenario.from_text(bundled_scenarios()["lv_patch"])
    (clamp,) = sc.values["rmaps"]
    return clamp, sc.problem


def _time_indexed_source_case():
    """The time-indexed source of
    test_check_r2_pairing_covers_every_source_slice."""
    table = -np.ones((5, 5))
    table[0] = 1.0
    return RMap(kind="truncate_lower", level=0.0), WedProblem(
        grid=line_grid(5), dissipation=DissipationSpec(p=2.0),
        energy1=EnergySpec(kind="m_laplace", m=2.0), energy2=ConcaveSpec(),
        reaction=ReactionSpec(), T=1.0, epsilon=0.2, initial=np.zeros(5),
        forcing=table)


_R2_CASES = {**_invariance_suite_cases(), "lv_patch": _lv_patch_case(),
             "time_indexed_source": _time_indexed_source_case()}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("case", sorted(_R2_CASES))
def test_stacked_check_r2_is_the_per_sample_loop(case, seed):
    R, problem = _R2_CASES[case]
    got = check_r2(R, problem, seed=seed)
    want = _check_r2_loop(R, problem, seed=seed)
    assert got.to_json() == want.to_json()
    assert {"energy_monotone", "dissipation_monotone"} <= set(got.conditions)


def test_stacked_check_r2_keeps_the_loop_witness():
    # the failing case of test_check_r2_flags_asymmetric_forcing: the
    # witness is the last sample that worsened a failing margin
    g, u0 = symmetric_u0(9)
    f = np.zeros(9)
    f[0] = 0.9
    problem = replace(heat_problem(n=9), initial=u0, forcing=f)
    refl = RMap(kind="rigid", permutation=reflection_permutation(g))
    for samples in (1, 2, 8):
        got = check_r2(refl, problem, samples=samples, seed=3)
        want = _check_r2_loop(refl, problem, samples=samples, seed=3)
        assert got.to_json() == want.to_json()
    assert got.counterexample is not None


def test_stacked_fixed_points_are_the_one_seed_loop():
    g = line_grid(7)
    rng = np.random.default_rng(5)
    seeds = rng.standard_normal((12, 7)) * 2.0
    # orbits that close early: a mirror-symmetric row (length 1 under the
    # reflection) and a row fixed by the 2-cycle of a (2 3)-cycle map
    seeds[3] = seeds[3] + seeds[3][::-1]
    seeds[4, 1] = seeds[4, 0]
    cycles = np.array([1, 0, 3, 4, 2, 5, 6])
    maps = [RMap(kind="rigid", permutation=reflection_permutation(g)),
            RMap(kind="rigid", permutation=cycles),
            RMap(kind="truncate_lower", level=-0.5),
            RMap(kind="averaging"),
            RMap(kind="symmetric_decreasing"),
            # alternates between mirror images: settles only on a
            # symmetric row
            RMap(kind="compose", parts=(
                RMap(kind="positive_part"),
                RMap(kind="rigid", permutation=reflection_permutation(g))))]
    for R in maps:
        for iters in (1, 16):
            points, settled = _fixed_point_of(R, g, seeds, iters)
            for vec, point, ok in zip(seeds, points, settled):
                want = _fixed_point_loop(R, g, vec, iters)
                assert ok == (want is not None)
                if ok:
                    assert point.tobytes() == want.tobytes()
    assert not settled.all() and settled.any()


def test_check_r2_fails_a_non_finite_margin():
    # |d|^400 overflows on every sample, so every energy margin is NaN;
    # it stays in the report and fails it
    grid = line_grid(6)
    problem = replace(heat_problem(n=6), initial=np.ones(6),
                      energy1=EnergySpec(kind="m_laplace", m=400.0))
    R = RMap(kind="rigid", permutation=reflection_permutation(grid))
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_r2(R, problem)
        want = _check_r2_loop(R, problem)
    assert np.isnan(report.conditions["energy_monotone"])
    assert not report.passed
    assert json.loads(report.to_json())["conditions"]["energy_monotone"] \
        == "nan"
    assert report.counterexample is not None
    assert report.to_json() == want.to_json()


def test_worsen_keeps_the_first_non_finite_margin():
    conds, state = {}, {}
    vec = np.arange(3.0)
    _worsen(conds, "c", 0.5, state, vec)
    assert conds["c"] == 0.5 and "worst" not in state
    _worsen(conds, "c", np.nan, state, vec)
    assert np.isnan(conds["c"]) and np.array_equal(state["worst"], vec)
    for later in (-1.0, np.inf, -np.inf):
        _worsen(conds, "c", later, state, vec + 1.0)
        assert np.isnan(conds["c"])
    assert np.array_equal(state["worst"], vec)
    # an infinite margin fails too, where a NaN-blind test would pass it
    _worsen(conds, "d", np.inf, state, vec)
    assert conds["d"] == np.inf
    report = PropertyReport(name="x", conditions={"d": np.inf}, samples=1,
                            seed=0)
    assert not report.passed


def test_counterexample_csv_without_a_grid_is_the_per_value_writer():
    values = np.array([0.5, -0.0, 0.5, 0.0, 1e-5, np.pi, 1e16, 0.5])
    report = PropertyReport(name="x", conditions={}, samples=1, seed=0,
                            counterexample=values)
    rows = ["index,value"] + [f"{i},{repr(float(v))}"
                              for i, v in enumerate(values)]
    assert report._counterexample_csv() == "\n".join(rows) + "\n"
    # with its grid, the report writes the field
    g = line_grid(8)
    report = replace(report, counterexample_grid=g)
    assert report._counterexample_csv() == field_to_csv(g, values)
