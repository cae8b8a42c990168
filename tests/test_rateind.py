"""Rate-independent lane: the step weights, the functional value, the
subgradient certificate, energetic residuals, and ordered pairs."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from wedflow import (ConfigurationError, RIProblem, RITrajectory, Scenario,
                     Trajectory, build_grid, energetic_residuals,
                     _newton, lattice_pair, minimize_wed_ri,
                     ordered_ri_minimizers, rateind, ri_continuation, run,
                     sign_condition, verify, wed_ri_value)
from wedflow.cli import bundled_scenarios
from wedflow.energies import graph_laplacian
from wedflow.rateind import (_rho, _ri_weights, _sigma, ri_energy,
                             ri_energy_grad)

from conftest import count_newton, line_grid, point_grid


def ramp_problem(steps, eps=0.2):
    # single node pulled by a piecewise-linear load; quadratic potential
    t = np.linspace(0.0, 1.0, steps + 1)
    h = np.interp(t, [0.0, 0.5, 0.75, 1.0], [0.0, 1.5, 0.5, 0.5])
    return RIProblem(grid=point_grid(), phi_coeffs=(0.0, 0.0, 0.5), a=0.0,
                     forcing=h[:, None], T=1.0, epsilon=eps,
                     initial=np.zeros(1))


def coupled_problem(n=3, steps=5, eps=0.3, a=0.7):
    g = line_grid(n)
    rng = np.random.default_rng(5)
    forcing = rng.standard_normal((steps + 1, n))
    return RIProblem(grid=g, phi_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25), a=a,
                     forcing=forcing, T=1.0, epsilon=eps,
                     initial=rng.standard_normal(n))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_step_weights_telescope():
    eps, T, N = 0.07, 1.0, 9
    jw, pw, tw = _ri_weights(eps, T, N)
    # consuming one interval of weight lands exactly on the next jump
    assert np.allclose(jw[:-1] - pw[:-1], jw[1:], rtol=1e-13)
    assert np.isclose(jw[-1] - pw[-1], eps * tw, rtol=1e-13)
    # pw is the exact integral of the weight over each interval
    t = np.linspace(0.0, T, N + 1)
    exact = eps * (np.exp(-t[:-1] / eps) - np.exp(-t[1:] / eps))
    assert np.allclose(pw, exact, rtol=1e-13)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_problem_rejects_concave_potential():
    t = np.zeros((3, 1))
    with pytest.raises(ConfigurationError):
        RIProblem(grid=point_grid(), phi_coeffs=(0.0, 0.0, -1.0), a=0.0,
                  forcing=t, T=1.0, epsilon=0.2, initial=np.zeros(1))


def test_problem_validation():
    g = point_grid()
    ok = dict(grid=g, phi_coeffs=(0.0, 0.0, 0.5), a=0.0,
              forcing=np.zeros((3, 1)), T=1.0, epsilon=0.2,
              initial=np.zeros(1))
    RIProblem(**ok)
    with pytest.raises(ConfigurationError):
        RIProblem(**{**ok, "forcing": np.zeros(3)})
    with pytest.raises(ConfigurationError):
        RIProblem(**{**ok, "forcing": np.zeros((1, 1))})
    with pytest.raises(ConfigurationError):
        RIProblem(**{**ok, "a": -0.1})
    with pytest.raises(ConfigurationError):
        RIProblem(**{**ok, "epsilon": 1.5})
    with pytest.raises(ConfigurationError):
        RIProblem(**{**ok, "initial": np.zeros(2)})
    with pytest.raises(ConfigurationError):
        RIProblem(**{**ok, "T": 0.0})


@pytest.mark.parametrize("bad", [
    {"a": np.nan}, {"a": np.inf}, {"a": "x"}, {"a": None},
    {"phi_coeffs": (0.0, 0.0, np.nan)}, {"phi_coeffs": (np.inf, 0.0, 0.5)},
    {"phi_coeffs": ("a",)}, {"phi_coeffs": 5.0},
    {"initial": np.full(1, np.nan)},
], ids=["a nan", "a inf", "a str", "a None", "phi nan", "phi inf",
        "phi str", "phi scalar", "initial nan"])
def test_problem_rejects_non_finite_or_non_numeric_data(bad):
    # a NaN coefficient used to pass the convexity probe, min(NaN) < 0
    # being false
    ok = dict(grid=point_grid(), phi_coeffs=(0.0, 0.0, 0.5), a=0.0,
              forcing=np.zeros((3, 1)), T=1.0, epsilon=0.2,
              initial=np.zeros(1))
    with pytest.raises(ConfigurationError):
        RIProblem(**{**ok, **bad})


def test_trajectory_container():
    g = point_grid()
    vals = np.array([[0.0], [0.4], [0.4], [1.0]])
    traj = RITrajectory(g, 1.0, vals, pinned_initial=np.zeros(1))
    jm = traj.jump_magnitudes()
    assert jm[0] == 0.0
    assert np.allclose(jm, [0.0, 0.4, 0.0, 0.6])
    assert traj.variation() == pytest.approx(1.0)
    csv = traj.to_csv()
    assert csv.splitlines()[0] == "t,node_index,value,jump_magnitude"
    assert len(csv.splitlines()) == 1 + 4
    assert isinstance(traj, Trajectory)
    with pytest.raises(ConfigurationError):
        RITrajectory(g, 1.0, vals, pinned_initial=np.full(1, 0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_rejects_non_finite_values(bad):
    vals = np.array([[0.0], [0.4], [0.4], [1.0]])
    vals[2, 0] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        RITrajectory(point_grid(), 1.0, vals, pinned_initial=np.zeros(1))


def test_trajectory_requires_a_pin():
    vals = np.array([[0.0], [0.4]])
    with pytest.raises(ConfigurationError, match="pinned"):
        RITrajectory(point_grid(), 1.0, vals)


# ---------------------------------------------------------------------------
# functional value
# ---------------------------------------------------------------------------

def direct_ri_value(problem, traj):
    # hand-rolled: quartic node potential, explicit edge coupling, loads
    eps, T, N = problem.epsilon, problem.T, traj.steps
    t = np.linspace(0.0, T, N + 1)
    beta = np.exp(-t / eps)
    hd = problem.grid.cell_measure
    h = problem.grid.spacing[0]

    def phi(u, n):
        c = problem.phi_coeffs
        val = sum(ci * float(np.sum(u ** k)) for k, ci in enumerate(c)) * hd
        val += 0.5 * problem.a * float(np.sum(np.diff(u) ** 2)) * hd / h ** 2
        return val - hd * float(problem.forcing[n] @ u)

    U = traj.values
    value = beta[-1] * phi(U[N], N)
    for n in range(1, N + 1):
        jump = hd * float(np.sum(np.abs(U[n] - U[n - 1])))
        value += eps * beta[n - 1] * jump
        value += eps * (beta[n - 1] - beta[n]) * phi(U[n], n)
    return value


def test_ri_value_matches_direct_sum():
    problem = coupled_problem()
    rng = np.random.default_rng(1)
    vals = np.cumsum(rng.standard_normal((problem.steps + 1, 3)) * 0.5,
                     axis=0)
    vals[0] = problem.initial
    traj = RITrajectory(problem.grid, problem.T, vals,
                        pinned_initial=problem.initial)
    lib = wed_ri_value(problem, traj)
    ref = direct_ri_value(problem, traj)
    assert abs(lib - ref) <= 1e-12 * (1.0 + abs(ref))


def test_ri_value_uncoupled_case():
    problem = replace(coupled_problem(), a=0.0)
    rng = np.random.default_rng(2)
    vals = np.cumsum(rng.standard_normal((problem.steps + 1, 3)) * 0.5,
                     axis=0)
    vals[0] = problem.initial
    traj = RITrajectory(problem.grid, problem.T, vals,
                        pinned_initial=problem.initial)
    assert abs(wed_ri_value(problem, traj) - direct_ri_value(problem, traj)) \
        <= 1e-12


def test_ri_value_checks_knot_count():
    # the value and both certificates, on a shorter and a longer trajectory
    problem = coupled_problem(steps=5)
    for knots in (4, 8):
        traj = RITrajectory(problem.grid, problem.T,
                            np.tile(problem.initial, (knots, 1)),
                            pinned_initial=problem.initial)
        for check in (wed_ri_value, sign_condition,
                      lambda p, t: energetic_residuals(t, p)):
            with pytest.raises(ConfigurationError,
                               match="trajectory and forcing disagree on N"):
                check(problem, traj)


def test_ri_energy_is_polyval_plus_coupling():
    problem = coupled_problem()
    u = np.array([0.3, -0.2, 0.5])
    got = ri_energy(problem, u, 2)
    c = problem.phi_coeffs
    hd = problem.grid.cell_measure
    h = problem.grid.spacing[0]
    want = sum(ci * float(np.sum(u ** k)) for k, ci in enumerate(c)) * hd \
        + 0.5 * problem.a * float(np.sum(np.diff(u) ** 2)) * hd / h ** 2 \
        - hd * float(problem.forcing[2] @ u)
    assert got == pytest.approx(want, rel=1e-13)


def test_ri_energy_and_gradient_match_laplacian_form():
    # a stack of states on a coupled 1D grid, against u.L.u / 2 and L u
    problem = coupled_problem()
    L = graph_laplacian(problem.grid, problem.a).toarray()
    U = np.random.default_rng(3).standard_normal((4, 3))
    knots = np.array([1, 2, 4, 5])
    P = np.polynomial.polynomial
    c = problem.phi_coeffs
    hd = problem.grid.cell_measure
    h = problem.forcing[knots]
    want = hd * np.sum(P.polyval(U, c), axis=1) \
        + 0.5 * np.einsum("ki,ij,kj->k", U, L, U) - hd * np.sum(h * U, axis=1)
    want_grad = hd * P.polyval(U, P.polyder(c)) + U @ L - hd * h
    assert np.allclose(ri_energy(problem, U, knots), want, rtol=1e-13,
                       atol=0.0)
    assert np.allclose(ri_energy_grad(problem, U, knots), want_grad,
                       rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("coeffs", [(2.5,), (0.3, -1.2), (0.0, 0.0, 0.5),
                                    (0.0, 0.1, 0.5, 0.0, 0.25)],
                         ids=["constant", "linear", "quadratic", "quartic"])
def test_potential_and_derivatives_are_polyval_bit_for_bit(coeffs):
    problem = RIProblem(grid=point_grid(), phi_coeffs=coeffs, a=0.0,
                        forcing=np.zeros((3, 1)), T=1.0, epsilon=0.2,
                        initial=np.zeros(1))
    P = np.polynomial.polynomial
    u = 3.0 * np.random.default_rng(9).standard_normal((4, 6, 2))
    assert np.array_equal(problem.phi_tilde(u), P.polyval(u, coeffs))
    assert np.array_equal(problem.phi_tilde_d1(u),
                          P.polyval(u, P.polyder(coeffs, 1)))
    assert np.array_equal(problem._phi_d2(u),
                          P.polyval(u, P.polyder(coeffs, 2)))


def test_solve_computes_no_polynomial_derivative(monkeypatch):
    problem = coupled_problem()
    P = np.polynomial.polynomial
    real, calls = P.polyder, []
    monkeypatch.setattr(P, "polyder",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    _, report = minimize_wed_ri(problem)
    assert report.converged
    assert calls == []
    u = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(problem.phi_tilde_d1(u),
                          P.polyval(u, real(problem.phi_coeffs, 1)))


# ---------------------------------------------------------------------------
# minimization and certificates
# ---------------------------------------------------------------------------

def test_minimizer_never_leaves_load_corridor():
    problem = ramp_problem(60, eps=0.05)
    traj, report = minimize_wed_ri(problem)
    assert report.converged
    # the node either rests or trails the load at distance one
    h = problem.forcing[:, 0]
    assert np.all(traj.values[:, 0] <= np.maximum.accumulate(h) + 1e-6)
    assert np.all(np.diff(traj.values[:, 0]) >= -0.35)


def test_uncoupled_solve_matches_the_sparse_band_solve(monkeypatch):
    # a = 0 on three nodes: the tridiagonal solve against the sparse band
    # of the same diagonals, factored by splu
    problem = coupled_problem(a=0.0, steps=12)
    traj, report = minimize_wed_ri(problem)

    def sparse_band(diag, off):
        n = diag.shape[1]
        return _newton.SparseHessian(sp.diags(
            [diag.ravel(), off.ravel(), off.ravel()], [0, -n, n]).tocsc())

    monkeypatch.setattr(rateind, "KnotTridiagonal", sparse_band)
    ref, ref_report = minimize_wed_ri(problem)
    assert report.converged and ref_report.converged
    assert report.iterations == ref_report.iterations
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-12 * scale
    assert abs(report.value - ref_report.value) \
        <= 1e-12 * abs(ref_report.value)


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_solve_gradient_is_the_per_call_formula_bit_for_bit(monkeypatch, a):
    # the gradient each smoothing stage hands to the Newton front end,
    # against the formula that indexes the forcing by a knot array and
    # builds the weight columns on every call
    problem = coupled_problem(a=a)
    N, hd = problem.steps, problem.grid.cell_measure
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    pwt = pw.copy()
    pwt[-1] += tw
    U = np.random.default_rng(1).standard_normal((N + 1, 3))
    U[0] = problem.initial
    deltas = (1e-1, 1e-3)
    got = []
    real = rateind.pinned_solve

    def capture(solver, pinned, N, start, grad, hess, knot_scale, **opts):
        got.append(grad(U[1:]))
        return real(solver, pinned, N, start, grad, hess, knot_scale, **opts)

    monkeypatch.setattr(rateind, "pinned_solve", capture)
    minimize_wed_ri(problem, deltas=deltas)
    for g, delta in zip(got, deltas, strict=True):
        want = np.zeros_like(U)
        want[1:] = pwt[:, None] * ri_energy_grad(problem, U[1:],
                                                 np.arange(1, N + 1))
        _newton.time_divergence(want[1:], jw[:, None] * _sigma(
            np.diff(U, axis=0), delta) * hd)
        assert np.array_equal(g, want[1:])


def _lane_callbacks(monkeypatch, problem, delta) -> tuple:
    """The (grad, hess) that minimize_wed_ri hands to pinned_solve for the
    smoothing stage delta."""
    seen = []
    real = rateind.pinned_solve

    def capture(solver, pinned, N, start, grad, hess, knot_scale, **opts):
        seen.append((grad, hess))
        return real(solver, pinned, N, start, grad, hess, knot_scale, **opts)

    monkeypatch.setattr(rateind, "pinned_solve", capture)
    minimize_wed_ri(problem, deltas=(delta,))
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("delta", [1e-2, 1e-6])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("rows", [1, 10])
def test_lane_kernels_are_the_whole_trajectory_formula_bit_for_bit(
        monkeypatch, rows, n, a, delta):
    # the gradient rows and Hessian over the unknown knots, taken straight
    # from them and the pinned row, against the formula on the whole
    # trajectory: with_pins, a zero pinned row, np.diff, then the slice
    # h^d = 0.3 on the line, so that a regrouped product would show
    rng = np.random.default_rng(11)
    problem = RIProblem(grid=line_grid(n, spacing=0.3) if n > 1
                        else point_grid(),
                        phi_coeffs=(0.0, 0.1, 0.5, 0.0, 0.25), a=a,
                        forcing=rng.standard_normal((8, n)), T=1.0,
                        epsilon=0.3, initial=rng.standard_normal(n))
    N, hd = problem.steps, problem.grid.cell_measure
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    pwt = pw.copy()
    pwt[-1] += tw
    grad, hess = _lane_callbacks(monkeypatch, problem, delta)
    # jumps of the size of delta and far past it, zero jumps included
    V = problem.initial + np.cumsum(
        rng.choice([0.0, 1.0], (rows, N, n))
        * rng.standard_normal((rows, N, n)) * 10.0 ** rng.integers(
            -7, 1, (rows, N, n)), axis=1)
    U = _newton.with_pins(problem.initial[None], V)
    want = np.zeros_like(U)
    want[..., 1:, :] = pwt[:, None] * ri_energy_grad(problem, U[..., 1:, :],
                                                     slice(1, None))
    _newton.time_divergence(want[..., 1:, :], jw[:, None] * _sigma(
        np.diff(U, axis=-2), delta) * hd)
    G = grad(V)
    assert G.shape == V.shape
    assert np.array_equal(G, want[..., 1:, :])
    for row in range(rows):
        r = jw[:, None] * _rho(np.diff(U[row], axis=0), delta) * hd
        main = pwt[:, None] * problem._phi_d2(U[row, 1:]) * hd
        H = hess(V[row])
        if problem._lap is None:
            diag, off = _newton.band_diagonals(r, main)
            assert isinstance(H, _newton.KnotTridiagonal)
            assert np.array_equal(H.diag, diag)
            assert np.array_equal(H.off, off)
        else:
            ref = (_newton.time_band(r, main) + sp.kron(
                sp.diags(pwt), problem._lap, format="csc")).tocsc()
            assert isinstance(H, _newton.SparseHessian) and not H.symmetric
            assert np.array_equal(H.matrix.toarray(), ref.toarray())


@pytest.mark.parametrize("deltas", [(), [], (0.0,), (float("nan"),),
                                    (float("inf"),), (1e-2, -1e-3),
                                    (1e-2, 0.0), ("tiny",), None])
def test_smoothing_stages_must_be_finite_and_positive(deltas):
    problem = coupled_problem(a=0.0)
    with pytest.raises(ConfigurationError) as err:
        minimize_wed_ri(problem, deltas=deltas)
    assert err.value.field == "deltas"


def test_smoothing_stages_accept_the_schedule_and_any_positive_floats():
    problem = coupled_problem(a=0.0)
    _, ref = minimize_wed_ri(problem)
    _, again = minimize_wed_ri(problem, deltas=list(rateind.DELTA_SCHEDULE))
    assert again == ref
    _, one = minimize_wed_ri(problem, deltas=(np.float64(1e-3),))
    assert one.iterations >= 1 and np.isfinite(one.gradient_norm)


def test_ramp_scenario_newton_work_is_unchanged(tmp_path, monkeypatch):
    # the solves, iterations, gradient calls and trial rows of `wedflow
    # run ri_ramp`: 30 Newton solves for the main continuation and 30 for
    # the pair's v member; the pair's u member reuses the main
    # continuation. A backtracking sweep evaluates its trial steps ten rows
    # to a call: 1,857 calls evaluate the 5,026 rows that one row per call
    # would, and 3,581 trial rows past the accepted ones
    counts = count_newton(monkeypatch, rateind)
    raw = json.loads(bundled_scenarios()["ri_ramp"])
    raw["output_dir"] = str(tmp_path / "out")
    assert run(Scenario.from_dict(raw)) == 0
    assert counts == dict(solves=60, iterations=1047, grads=1857,
                          rows=8607, repeats=0)


def test_energetic_suite_newton_work(monkeypatch):
    # `wedflow verify energetic` solves the same ramp as ri_ramp
    counts = count_newton(monkeypatch, rateind)
    assert verify("energetic")["passed"]
    assert counts == dict(solves=60, iterations=1047, grads=1857,
                          rows=8607, repeats=0)


def test_minimize_wed_ri_rejects_init_with_wrong_knot_count():
    init = RITrajectory(point_grid(), 1.0, np.zeros((7, 1)),
                        pinned_initial=np.zeros(1))
    with pytest.raises(ConfigurationError, match="wrong number of knots"):
        minimize_wed_ri(ramp_problem(8), init=init)


def test_minimize_wed_ri_rejects_init_with_wrong_node_count():
    # 9 knots of 3 nodes for a 1-node problem: the knot count fits
    init = RITrajectory(line_grid(3), 1.0, np.zeros((9, 3)),
                        pinned_initial=np.zeros(3))
    with pytest.raises(ConfigurationError, match=r"init has shape \(9, 3\)"):
        minimize_wed_ri(ramp_problem(8), init=init)


def test_sign_condition_certificate_small():
    problem = ramp_problem(60, eps=0.05)
    traj, _ = minimize_wed_ri(problem)
    cert = sign_condition(problem, traj)
    assert set(cert) == {"worst_violation", "rest_excess",
                         "complementarity", "sigma"}
    assert cert["sigma"].shape == (60, 1)
    assert cert["worst_violation"] <= 1e-6  # measured 3.0e-7
    assert cert["rest_excess"] <= 1e-6


def test_sign_condition_flags_wrong_trajectory():
    problem = ramp_problem(40, eps=0.05)
    # lagging the load by 1.4 instead of 1.0 breaks the certificate
    h = problem.forcing[:, 0]
    vals = np.maximum.accumulate(np.maximum(h - 1.4, 0.0))[:, None]
    traj = RITrajectory(problem.grid, problem.T, vals,
                        pinned_initial=np.zeros(1))
    cert = sign_condition(problem, traj)
    assert cert["worst_violation"] > 1e-2


def test_reduced_resolution_tracks_incremental_oracle():
    from wedflow.runner import incremental_oracle, ri_eps_schedule
    steps = 80
    problem = ramp_problem(steps)
    schedule = ri_eps_schedule(steps)
    assert schedule == [0.2, 0.1, 0.05, 0.025]
    family = ri_continuation(problem, schedule)
    eps_last, traj, report = family[-1]
    assert report.converged
    err = float(np.max(np.abs(traj.values[:, 0]
                              - incremental_oracle(problem))))
    assert err <= 8e-2  # measured 0.0615 at this resolution
    cert = sign_condition(replace(problem, epsilon=eps_last), traj)
    assert cert["worst_violation"] <= 1e-6


def test_ri_continuation_requires_decreasing_schedule():
    problem = ramp_problem(20)
    with pytest.raises(ConfigurationError):
        ri_continuation(problem, [0.1, 0.2])


# ---------------------------------------------------------------------------
# energetic residuals
# ---------------------------------------------------------------------------

def loop_sign_condition(problem, traj):
    # knot-by-knot back substitution of the stationarity system
    N = traj.steps
    hd = problem.grid.cell_measure
    jw, pw, tw = _ri_weights(problem.epsilon, problem.T, N)
    U = traj.values
    jumps = np.diff(U, axis=0)
    grads = ri_energy_grad(problem, U[1:], np.arange(1, N + 1))
    sigma = np.zeros((N, problem.grid.n_nodes))
    rest = comp = 0.0
    for n in range(N, 0, -1):
        rhs = pw[n - 1] * grads[n - 1]
        if n == N:
            rhs = rhs + tw * grads[N - 1]
        else:
            rhs = rhs - jw[n] * sigma[n] * hd
        sigma[n - 1] = -rhs / (jw[n - 1] * hd)
        j = jumps[n - 1]
        rest = max(rest, float(np.max(np.abs(sigma[n - 1])) - 1.0))
        comp = max(comp, float(np.max(
            np.abs(j) * (1.0 - sigma[n - 1] * np.sign(j)))))
    return {"worst_violation": max(max(rest, 0.0), comp),
            "rest_excess": max(rest, 0.0), "complementarity": comp,
            "sigma": sigma}


def loop_energetic_residuals(traj, problem, probe_count):
    # one scalar energy per probe, and the balance as a running sum
    N = traj.steps
    hd = problem.grid.cell_measure
    U = traj.values
    svals = np.concatenate([-np.logspace(-3, 1, probe_count),
                            np.logspace(-3, 1, probe_count)])

    def stab(shift_left):
        worst = 0.0
        for n in range(N + 1):
            m = max(n - 1, 0) if shift_left else n
            base = ri_energy(problem, U[n], m)
            for i in range(problem.grid.n_nodes):
                for s in svals:
                    w = U[n].copy()
                    w[i] += s
                    worst = max(worst, base - ri_energy(problem, w, m)
                                - abs(s) * hd)
        return worst

    jm = traj.jump_magnitudes()
    balance = np.zeros(N + 1)
    acc_var = acc_work = 0.0
    e0 = ri_energy(problem, U[0], 0)
    for n in range(N + 1):
        if n > 0:
            acc_var += jm[n]
            dh = problem.forcing[n] - problem.forcing[n - 1]
            acc_work += hd * float(dh @ (0.5 * (U[n] + U[n - 1])))
        balance[n] = ri_energy(problem, U[n], n) + acc_var - e0 + acc_work
    return stab(False), stab(True), balance


# the quadratic ramp and a quartic potential on six coupled nodes
@pytest.mark.parametrize("problem", [ramp_problem(60, eps=0.05),
                                     coupled_problem(n=6, steps=40, a=0.7)],
                         ids=["ramp", "coupled"])
def test_certificates_match_their_knot_and_probe_loops(problem):
    traj, _ = minimize_wed_ri(problem)
    cert = sign_condition(problem, traj)
    ref = loop_sign_condition(problem, traj)
    assert np.allclose(cert["sigma"], ref["sigma"], rtol=1e-12, atol=1e-12)
    for key in ("worst_violation", "rest_excess", "complementarity"):
        assert cert[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-12)
    rep = energetic_residuals(traj, problem, probe_count=7)
    stab, stab_left, balance = loop_energetic_residuals(traj, problem, 7)
    assert rep.stability == pytest.approx(stab, rel=1e-12, abs=1e-12)
    assert rep.stability_left == pytest.approx(stab_left, rel=1e-12,
                                               abs=1e-12)
    assert np.array_equal(rep.per_knot_balance, balance)
    assert rep.balance == float(np.max(np.abs(balance)))
    assert rep.probes == 14


@pytest.mark.parametrize("count", [0, -3])
def test_energetic_residuals_need_a_probe(count):
    problem = ramp_problem(10)
    traj = RITrajectory(problem.grid, problem.T, np.zeros((11, 1)),
                        pinned_initial=np.zeros(1))
    with pytest.raises(ConfigurationError, match="probe_count"):
        energetic_residuals(traj, problem, probe_count=count)


def test_energetic_residuals_shrink_with_eps():
    steps = 100
    problem = ramp_problem(steps)
    family = ri_continuation(problem, [0.1, 0.05, 0.025])
    balances = []
    stabilities = []
    for _, traj, _ in family:
        rep = energetic_residuals(traj, problem, probe_count=10)
        balances.append(rep.balance)
        stabilities.append(rep.stability)
        assert rep.per_knot_balance.shape == (steps + 1,)
        assert rep.probes == 20
    # halving the weight cuts both residuals well below 3/4
    assert balances[1] <= 0.75 * balances[0]  # measured ratio 0.56
    assert balances[2] <= 0.75 * balances[1]  # measured ratio 0.42
    assert stabilities[2] <= 0.5 * stabilities[0]


def test_stationary_forcing_balances_exactly():
    # constant load, adapted start: nothing moves and no work is done.
    # The load must clear the terminal-weight threshold too, which is
    # stricter than the interior unit threshold at moderate eps; 0.25
    # rests everywhere at eps = 0.2, while 0.4 would drag the last knot.
    g = point_grid()
    forcing = np.full((9, 1), 0.25)
    problem = RIProblem(grid=g, phi_coeffs=(0.0, 0.0, 0.5), a=0.0,
                        forcing=forcing, T=1.0, epsilon=0.2,
                        initial=np.zeros(1))
    traj, report = minimize_wed_ri(problem)
    assert report.converged
    # resting up to the smoothing creep of the variation term
    assert np.max(np.abs(traj.values)) <= 1e-4
    rep = energetic_residuals(traj, problem, probe_count=8)
    assert rep.balance <= 1e-4


# ---------------------------------------------------------------------------
# ordered pairs
# ---------------------------------------------------------------------------

def test_ordered_ri_minimizers_ramp():
    problem = ramp_problem(60)
    pair = ordered_ri_minimizers(problem, np.zeros(1), np.full(1, 0.5),
                                 schedule=(0.2, 0.1))
    assert pair.ordering_margin >= -1e-10
    assert len(pair.audits) == 2
    for audit in pair.audits:
        assert set(audit) == {"epsilon", "value_u", "value_v", "value_meet",
                              "value_join", "meet_excess", "join_excess"}
        assert audit["meet_excess"] <= 1e-9 * (1 + abs(audit["value_u"]))
        assert audit["join_excess"] <= 1e-9 * (1 + abs(audit["value_v"]))
    assert np.array_equal(pair.u.values[0], [0.0])
    assert np.array_equal(pair.v.values[0], [0.5])
    for traj, pin in ((pair.u, [0.0]), (pair.v, [0.5])):
        assert type(traj) is RITrajectory
        assert np.array_equal(traj.pinned_initial, pin)


def test_lattice_pair_of_ri_trajectories():
    g = point_grid()
    u = RITrajectory(g, 1.0, [[0.0], [0.7], [0.2]], pinned_initial=[0.0])
    v = RITrajectory(g, 1.0, [[0.5], [0.5], [0.5]], pinned_initial=[0.5])
    meet, join = lattice_pair(u, v)
    assert type(meet) is RITrajectory and type(join) is RITrajectory
    assert np.array_equal(meet.pinned_initial, [0.0])
    assert np.array_equal(join.pinned_initial, [0.5])
    assert np.array_equal(meet.values, [[0.0], [0.5], [0.2]])
    assert meet.variation() == pytest.approx(0.8)


def test_ordered_ri_minimizers_rejects_unordered():
    problem = ramp_problem(20)
    with pytest.raises(ConfigurationError):
        ordered_ri_minimizers(problem, np.full(1, 0.5), np.zeros(1))


def assert_same_pair(a, b):
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.v.values, b.v.values)
    assert a.audits == b.audits
    assert a.ordering_margin == b.ordering_margin
    assert a.converged == b.converged


def count_member_solves(monkeypatch) -> list:
    # one entry per minimize_wed_ri call: the weight it solved at
    calls = []
    real = rateind.minimize_wed_ri

    def counted(problem, **options):
        calls.append(problem.epsilon)
        return real(problem, **options)

    monkeypatch.setattr(rateind, "minimize_wed_ri", counted)
    return calls


def test_ordered_ri_pair_reuses_the_main_continuation(monkeypatch):
    problem = ramp_problem(60)
    sched = (0.2, 0.1, 0.05)
    levels = ri_continuation(problem, sched)
    u0, v0 = np.zeros(1), np.full(1, 0.5)
    fresh = ordered_ri_minimizers(problem, u0, v0, schedule=sched)
    solved = count_member_solves(monkeypatch)
    reused = ordered_ri_minimizers(problem, u0, v0, schedule=sched,
                                   u_levels=levels)
    assert solved == list(sched)  # the v member only
    assert_same_pair(reused, fresh)


@pytest.mark.parametrize("case, solved", [
    ("epsilon", [0.2, 0.2, 0.1, 0.1]), ("u0", [0.2, 0.2, 0.1, 0.1]),
    ("signed_zero_u0", [0.2, 0.2, 0.1, 0.1]),
    ("fewer_levels", [0.2, 0.1, 0.1]), ("perturbed_level", [0.2, 0.1, 0.1])])
def test_ordered_ri_pair_solves_the_levels_that_do_not_fit(monkeypatch, case,
                                                          solved):
    problem = ramp_problem(60)
    sched = (0.2, 0.1)
    levels = ri_continuation(problem, sched)
    u0, v0 = np.zeros(1), np.full(1, 0.5)
    if case == "epsilon":
        levels = [(1.5 * eps, t, rep) for eps, t, rep in levels]
    elif case == "u0":
        u0 = np.full(1, 0.1)
    elif case == "signed_zero_u0":  # equal to the initial state, not bitwise
        u0 = np.full(1, -0.0)
    elif case == "fewer_levels":
        levels = levels[:1]
    else:
        # level 0 lifted above v at one knot: the meet that warm-starts
        # level 1 is no longer level 0's trajectory
        eps, t, rep = levels[0]
        vals = t.values.copy()
        vals[30] += 1.0
        levels = [(eps, replace(t, values=vals), rep), levels[1]]
    fresh = ordered_ri_minimizers(problem, u0, v0, schedule=sched)
    calls = count_member_solves(monkeypatch)
    pair = ordered_ri_minimizers(problem, u0, v0, schedule=sched,
                                 u_levels=levels)
    assert calls == solved
    if case != "perturbed_level":
        assert_same_pair(pair, fresh)
