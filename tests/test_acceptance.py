"""End-to-end acceptance gates.

One test per advertised guarantee. Each measures its quantity, emits a
single pass/fail line into the terminal summary, and then asserts, so a
red run still shows every measured number.
"""

import math
from dataclasses import replace

import numpy as np

from wedflow import (ConcaveSpec, DissipationSpec, EnergySpec, ReactionSpec,
                     RIProblem, RMap, WedProblem, build_grid,
                     energy1_value_grad, verify)
from wedflow.cli import main
from wedflow.comparison import ordered_minimizers
from wedflow.energies import lv_clamp, reaction_eval
from wedflow.qualitative import invariant_solve
from wedflow.rateind import (energetic_residuals, ordered_ri_minimizers,
                             ri_continuation, sign_condition)
from wedflow.wed import eps_continuation, fixed_point_solve, reference_solve
from wedflow.wide import (LagrangianProblem, equivariance_residual,
                          wide_continuation)

from conftest import (acceptance_line, heat_problem, point_grid,
                      scalar_decay_problem)


def gate(tag, detail, ok):
    acceptance_line(f"{tag}  {detail}  -- {'pass' if ok else 'FAIL'}")
    return ok


def scalar_bvp(eps, T, t):
    """Exact minimizer of the weighted scalar functional: the solution of
    -eps u'' + u' + u = 0 with u(0) = 1 and u'(T) = 0."""
    disc = math.sqrt(1.0 + 4.0 * eps)
    rp = (1.0 + disc) / (2.0 * eps)
    rm = (1.0 - disc) / (2.0 * eps)
    A = np.array([[1.0, 1.0],
                  [rp * math.exp(rp * T), rm * math.exp(rm * T)]])
    c = np.linalg.solve(A, np.array([1.0, 0.0]))
    return c[0] * np.exp(rp * t) + c[1] * np.exp(rm * t)


def test_scalar_minimizer_matches_two_point_bvp():
    N = 400
    traj, rep = fixed_point_solve(scalar_decay_problem(eps=0.1), N)
    t = np.linspace(0.0, 1.0, N + 1)
    err = float(np.max(np.abs(traj.values[:, 0] - scalar_bvp(0.1, 1.0, t))))
    ok = err <= 1e-3 and rep.converged
    assert gate("A01", f"scalar minimizer vs closed form: sup {err:.4e} "
                       "<= 1.0e-03", ok)


def test_small_eps_limit_approaches_gradient_flow():
    N = 400
    t = np.linspace(0.0, 1.0, N + 1)
    errs = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        traj, _ = fixed_point_solve(scalar_decay_problem(eps=eps), N)
        errs.append(float(np.max(np.abs(traj.values[:, 0] - np.exp(-t)))))
    ok = all(b < a for a, b in zip(errs, errs[1:])) and errs[-1] <= 2e-2
    shown = " > ".join(f"{e:.4f}" for e in errs)
    assert gate("A02", f"causal-limit errors {shown}, last <= 2.0e-02", ok)


def test_heat_continuation_matches_implicit_euler():
    problem = heat_problem(n=16, eps=0.2, spacing=1.0 / 16)
    cont = eps_continuation(problem, [0.2, 0.1, 0.05, 0.03125], 64)
    ref = reference_solve(problem, 64)
    diff = cont.final.values - ref.values
    rel = math.sqrt(float(np.sum(diff * diff)))
    rel /= math.sqrt(float(np.sum(ref.values * ref.values)))
    ok = rel <= 1e-2 and not cont.aborted
    assert gate("A03", f"heat continuation vs implicit Euler: rel L2 "
                       f"{rel:.4e} <= 1.0e-02", ok)


def test_rearrangement_identities_hold():
    rep = verify("rearrangement")
    worst = min(c["margin"] for c in rep["checks"].values())
    ok = rep["passed"] and worst >= -1e-12
    assert gate("A04", f"rearrangement identities: worst margin {worst:.2e} "
                       ">= -1.0e-12", ok)


def test_submodularity_sweep_holds():
    rep = verify("submodularity")
    worst = min(c["margin"] for c in rep["checks"].values())
    ok = rep["passed"] and worst >= -1e-10
    assert gate("A05", f"submodularity sweep: worst margin {worst:.2e} "
                       ">= -1.0e-10", ok)


def test_ordered_heat_minimizers_stay_ordered():
    problem = heat_problem(n=16, eps=0.2, spacing=1.0 / 16)
    base = 0.8 * problem.initial
    res = ordered_minimizers(problem, base, base + 0.2,
                             schedule=[0.2, 0.1, 0.05], steps=24)
    worst_rel = 0.0
    audits_ok = True
    for audit in res.audits:
        audits_ok = audits_ok and audit["meet_ok"] and audit["join_ok"]
        for side, anchor in (("meet", "value_u"), ("join", "value_v")):
            scale = 1.0 + abs(audit[anchor])
            worst_rel = max(worst_rel, audit[f"{side}_excess"] / scale)
    ok = (res.ordering_margin >= -1e-10 and res.submodularity_ok
          and audits_ok and worst_rel <= 1e-9)
    assert gate("A06", f"ordered pair: margin {res.ordering_margin:.2e} "
                       f">= -1.0e-10, lattice excess {worst_rel:.1e} "
                       "<= 1.0e-09", ok)


def test_symmetry_preservation_and_truncation():
    rep = verify("invariance")
    res_heat = -rep["checks"]["reflection_heat"]["margin"]
    res_ml = -rep["checks"]["reflection_m_laplace"]["margin"]

    # truncation at zero with a nonnegative source keeps the state
    # nonnegative as well
    grid = build_grid(dim=1, shape=(9,), spacing=(0.25,),
                      boundary="neumann")
    x = grid.coords()[:, 0]
    raw = 1.0 + 0.5 * np.cos(np.pi * x / x.max())
    problem = WedProblem(
        grid=grid, dissipation=DissipationSpec(p=2.0),
        energy1=EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0),
        energy2=ConcaveSpec(), reaction=ReactionSpec(), T=0.5, epsilon=0.1,
        initial=np.maximum(raw - 1.0, 0.0), forcing=np.full(9, 0.3))
    res = invariant_solve(problem, RMap(kind="truncate_lower", level=0.0),
                          steps=16, schedule=(0.1, 0.05))
    low = float(np.min(res.trajectory.values))
    ok = (rep["passed"] and max(res_heat, res_ml) <= 1e-8
          and not res.flagged and res.residual <= 1e-8 and low >= -1e-10)
    assert gate("A07", f"reflection residual {max(res_heat, res_ml):.1e} "
                       f"<= 1.0e-08, truncated min {low:.1e} >= -1.0e-10",
                ok)


def test_lv_solution_respects_population_box():
    grid = build_grid(dim=1, shape=(8,), spacing=(0.25,),
                      boundary="neumann")
    x = grid.coords()[:, 0]
    K = 2.0
    reaction = ReactionSpec(kind="lotka_volterra", A=1.0, K=K, B=0.5,
                            C=0.4, E=0.3)
    u0 = 1.0 + 0.5 * np.cos(np.pi * x / x.max())
    problem = WedProblem(
        grid=grid, dissipation=DissipationSpec(p=2.0),
        energy1=EnergySpec(kind="lv_quadratic", D1=0.05, D2=0.05,
                           F1=0.0, F2=0.0),
        energy2=ConcaveSpec(),
        reaction=reaction, T=1.0, epsilon=0.2,
        initial=np.concatenate([u0, np.full(8, 0.4)]))
    res = invariant_solve(problem, RMap(kind="lv_clamp", K=K), steps=32,
                          schedule=[0.2, 0.1])
    uu = res.trajectory.values[:, :8]
    vv = res.trajectory.values[:, 8:]
    box_ok = (not res.flagged and uu.min() >= -1e-10
              and uu.max() <= K + 1e-10 and vv.min() >= -1e-10)

    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(500):
        up = rng.uniform(-1.0, K + 1.0, 8)
        vp = rng.uniform(-1.0, 2.0, 8)
        fu, fv = reaction_eval(reaction, (up, vp))
        ru, rv = lv_clamp(reaction, up, vp)
        worst = min(worst,
                    float(fu @ ru + fv @ rv - fu @ up - fv @ vp))
    ok = box_ok and worst >= -1e-12
    assert gate("A08", f"population box [{uu.min():.2f}, {uu.max():.2f}] in "
                       f"[0, {K}], clamp margin {worst:.1e} >= -1.0e-12", ok)


def _lattice_semi(dist, w, s):
    """Independent seminorm oracle: exact-sum kernel accumulation over all
    node pairs, interior interactions only."""
    with np.errstate(divide="ignore"):
        kernel = 1.0 / dist ** (1.0 + 2.0 * s)
    np.fill_diagonal(kernel, 0.0)
    terms = kernel * (w[:, None] - w[None, :]) ** 2
    return math.fsum(terms.ravel().tolist())


def test_fractional_seminorm_is_lattice_submodular():
    rng = np.random.default_rng(0)
    worst = np.inf
    cross = 0.0
    for trial in range(500):
        n = int(rng.integers(4, 65))
        u = rng.random(n)
        v = rng.random(n)
        idx = np.arange(n, dtype=float)
        dist = np.abs(idx[:, None] - idx[None, :])
        for s in (0.25, 0.5, 0.75):
            su = _lattice_semi(dist, u, s)
            sv = _lattice_semi(dist, v, s)
            sj = _lattice_semi(dist, np.maximum(u, v), s)
            sm = _lattice_semi(dist, np.minimum(u, v), s)
            worst = min(worst, su + sv - sj - sm)
            if trial % 25 == 0:
                grid = build_grid(dim=1, shape=(n,), spacing=(1.0,),
                                  boundary="neumann")
                # twice phi1 of the fractional energy without its
                # quadratic term is the seminorm
                spec = EnergySpec(kind="fractional", s=s, gamma=0.0,
                                  exterior=False)
                lib = 2.0 * energy1_value_grad(spec, grid, u)[0]
                cross = max(cross, abs(lib - su) / (1.0 + su))
    ok = worst >= -1e-12 and cross <= 1e-10
    assert gate("A09", f"seminorm lattice margin {worst:.2e} >= -1.0e-12 "
                       f"(oracle agreement {cross:.1e})", ok)


def test_hysteresis_limit_matches_incremental_oracle():
    steps = 200
    t = np.linspace(0.0, 1.0, steps + 1)
    h = np.interp(t, [0.0, 0.5, 0.75, 1.0], [0.0, 1.5, 0.5, 0.5])
    problem = RIProblem(grid=point_grid(), phi_coeffs=(0.0, 0.0, 0.5),
                        a=0.0, forcing=h[:, None], T=1.0, epsilon=0.2,
                        initial=np.zeros(1))
    schedule = [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]
    family = ri_continuation(problem, schedule)
    eps_last, traj, rep = family[-1]

    # stay/slide closed form, written out here rather than imported
    oracle = np.zeros(steps + 1)
    for k in range(1, steps + 1):
        prev = oracle[k - 1]
        if abs(prev - h[k]) <= 1.0:
            oracle[k] = prev
        else:
            oracle[k] = h[k] - 1.0 if prev < h[k] else h[k] + 1.0
    sup = float(np.max(np.abs(traj.values[:, 0] - oracle)))

    sign = sign_condition(replace(problem, epsilon=eps_last), traj)
    en = energetic_residuals(traj, problem)
    pair = ordered_ri_minimizers(problem, np.zeros(1), 0.5 * np.ones(1),
                                 schedule=schedule)
    ok = (rep.converged and sup <= 5e-2
          and sign["worst_violation"] <= 1e-6
          and en.stability <= 1e-2 and en.balance <= 1e-2
          and pair.ordering_margin >= -1e-10)
    assert gate("A10", f"ramp sup {sup:.4e} <= 5.0e-02, stability "
                       f"{en.stability:.1e} balance {en.balance:.1e} "
                       f"<= 1.0e-02, ordering {pair.ordering_margin:.1e}",
                ok)


def test_wide_oscillator_tracks_cosine_and_rotations():
    osc = LagrangianProblem(d=1, M=np.eye(1), nu=0.0, u_kind="quadratic",
                            T=1.0, epsilon=0.04, initial=np.array([1.0]),
                            velocity=np.array([0.0]))
    family = wide_continuation(osc, (0.04, 0.02, 0.01), 200)
    traj = family[-1][1]
    t = np.linspace(0.0, 1.0, 201)
    err = float(np.max(np.abs(traj.values[:, 0] - np.cos(t))))

    planar = LagrangianProblem(d=2, M=np.eye(2), nu=0.1,
                               u_kind="quadratic", T=1.0, epsilon=0.05,
                               initial=np.array([1.0, 0.25]),
                               velocity=np.array([0.0, -0.5]))
    rot = RMap(kind="lagrangian_affine",
               r=np.array([[0.0, -1.0], [1.0, 0.0]]))
    eq = equivariance_residual(planar, rot, 64)
    ok = err <= 5e-2 and eq <= 1e-7
    assert gate("A11", f"oscillator sup {err:.4e} <= 5.0e-02, rotation "
                       f"equivariance {eq:.1e} <= 1.0e-07", ok)


def test_scenario_artifacts_are_reproducible(tmp_path, monkeypatch):
    names = ("scalar_decay", "heat_relaxation", "lv_patch", "ri_ramp",
             "wide_oscillator")
    compared = 0
    identical = True
    for tag, root in (("a", tmp_path / "a"), ("b", tmp_path / "b")):
        monkeypatch.setenv("WEDFLOW_OUT", str(root))
        for name in names:
            assert main(["run", name]) == 0, f"{name} run {tag}"
    for name in names:
        dir_a = tmp_path / "a" / name
        dir_b = tmp_path / "b" / name
        files_a = sorted(p.name for p in dir_a.iterdir())
        identical = identical and files_a == sorted(
            p.name for p in dir_b.iterdir())
        for fname in files_a:
            compared += 1
            identical = identical and ((dir_a / fname).read_bytes()
                                       == (dir_b / fname).read_bytes())
    ok = identical and compared >= 4 * len(names)
    assert gate("A12", f"repeated scenario runs byte-identical "
                       f"({compared} artifacts over {len(names)} "
                       "scenarios)", ok)
