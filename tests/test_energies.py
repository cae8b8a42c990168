"""Dissipation and state-energy evaluations against finite differences
and hand-computed small cases."""

import contextlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from wedflow import (ConcaveSpec, ConfigurationError, DissipationSpec,
                     EnergySpec, ReactionSpec, Trajectory, build_grid,
                     constant_trajectory, dual_field, energy1_value_grad,
                     energy2_value_grad, reaction_eval, wed_potential_value)
from wedflow.energies import (A_eval, alpha_eval,
                              alpha_prime, edge_differences, energy1_hessian,
                              energy1_modes, graph_laplacian,
                              grid_edges, lv_clamp, p_conjugate, polynomial,
                              polyval)

from wedflow import WedProblem, _newton, energies, minimize_wed, wed
from wedflow._newton import time_band
from wedflow.energies import _edge_operator, _fractional_matrix, _robin_diag
from wedflow.grids import Grid
from wedflow.wed import _weights

from conftest import (assert_same_csc, heat_problem, line_grid, point_grid,
                      same_bits)


def fd_gradient(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# dissipation
# ---------------------------------------------------------------------------

def test_p_conjugate():
    assert p_conjugate(2.0) == 2.0
    assert p_conjugate(3.0) == 1.5
    for p in (1.2, 1.7, 2.5, 4.0):
        assert 1.0 / p + 1.0 / p_conjugate(p) == pytest.approx(1.0)


def test_power_dissipation_values():
    s = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    spec2 = DissipationSpec(p=2.0)
    assert np.allclose(A_eval(spec2, s), 0.5 * s * s)
    assert np.allclose(alpha_eval(spec2, s), s)
    spec3 = DissipationSpec(p=3.0)
    assert np.allclose(A_eval(spec3, s), np.abs(s) ** 3 / 3.0)
    assert np.allclose(alpha_eval(spec3, s), np.abs(s) * s)


def test_alpha_prime_is_capped_below_two():
    spec = DissipationSpec(p=1.5)
    with np.errstate(divide="ignore"):
        d = alpha_prime(spec, np.array([0.0]))
    assert np.isfinite(d[0]) and d[0] <= 1e12


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_alpha_prime_at_rest_warns_nothing(p):
    # 0 ** (p - 2) is inf below p = 2; the cap takes it, without a
    # "divide by zero" warning, and every other entry is the power
    spec = DissipationSpec(p=p)
    v = np.array([0.0, -0.0, 1e-3, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = alpha_prime(spec, v)
    rest = (p - 1.0) * (1e12 if p < 2.0 else 0.0)
    moving = (p - 1.0) * np.abs(v[2:]) ** (p - 2.0)
    assert d.tobytes() == np.concatenate([[rest, rest], moving]).tobytes()


def test_table_dissipation_matches_power():
    s = np.linspace(-10.0, 10.0, 401)
    spec = DissipationSpec(p=2.0, alpha_kind="table", table_s=s,
                           table_alpha=s)
    probe = np.array([-7.3, -1.0, 0.0, 0.25, 9.9])
    assert np.allclose(alpha_eval(spec, probe), probe)
    # integral of a linear table is exact
    assert np.allclose(A_eval(spec, probe), 0.5 * probe * probe, atol=1e-12)


def test_table_dissipation_takes_a_longdouble_stack():
    # the extended-precision polish evaluates the gradient on
    # np.longdouble, which np.interp refuses; the value takes it too
    spec = DissipationSpec(p=2.0, alpha_kind="table",
                           table_s=np.array([-1.0, 0.0, 0.5, 1.0]),
                           table_alpha=np.array([-2.0, 0.0, 0.1, 1.0]))
    v = np.array([[-3.0, -1.0, -0.4, 0.0, 0.2, 0.5, 0.75, 1.0, 2.0]])
    for f in (alpha_eval, A_eval):
        wide = f(spec, v.astype(np.longdouble))
        assert wide.dtype == np.longdouble and wide.shape == v.shape
        assert np.allclose(wide.astype(float), f(spec, v), rtol=1e-15,
                           atol=1e-16)
    # float64 keeps np.interp's bits
    assert np.array_equal(alpha_eval(spec, v), np.interp(v, spec.table_s,
                                                         spec.table_alpha))


def test_dissipation_spec_validation():
    with pytest.raises(ConfigurationError):
        DissipationSpec(p=1.0)
    with pytest.raises(ConfigurationError):
        DissipationSpec(alpha_kind="table", table_s=np.array([0.0, 1.0]),
                        table_alpha=np.array([1.0, 0.0]))  # decreasing
    with pytest.raises(ConfigurationError):
        DissipationSpec(alpha_kind="table", table_s=np.array([1.0, 0.0]),
                        table_alpha=np.array([0.0, 1.0]))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dissipation_eval_gradient(p):
    """alpha is the derivative of A, node by node."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=6) + 0.3  # keep away from the p<2 kink at 0
    spec = DissipationSpec(p=p)

    def f(x):
        return float(np.sum(A_eval(spec, x)))

    assert np.allclose(alpha_eval(spec, v), fd_gradient(f, v), atol=1e-5)


# ---------------------------------------------------------------------------
# edges and laplacian
# ---------------------------------------------------------------------------

def test_grid_edges_counts():
    g = line_grid(6)
    src, dst, hs, phantom = grid_edges(g)
    assert src.size == 5 and not phantom.any()
    gd = line_grid(6, boundary="dirichlet")
    src, dst, hs, phantom = grid_edges(gd)
    assert src.size == 7 and phantom.sum() == 2
    g2 = build_grid(dim=2, shape=(3, 4), spacing=(1.0, 1.0))
    src, dst, hs, phantom = grid_edges(g2)
    assert src.size == 2 * 4 + 3 * 3


def test_graph_laplacian_matches_edge_form():
    g = line_grid(7)
    L = graph_laplacian(g, 1.3)
    rng = np.random.default_rng(1)
    u = rng.normal(size=7)
    diffs, emeas = edge_differences(g, u)
    assert float(u @ (L @ u)) == pytest.approx(
        1.3 * float(np.sum(diffs * diffs * emeas)), rel=1e-13)
    # neumann laplacian annihilates constants
    assert np.allclose(L @ np.ones(7), 0.0, atol=1e-14)
    Ld = graph_laplacian(line_grid(7, boundary="dirichlet"), 1.0)
    assert float(np.ones(7) @ (Ld @ np.ones(7))) > 0.0


def test_point_grid_has_no_laplacian():
    g = build_grid(dim=1, shape=(1,), spacing=(1.0,), boundary="neumann",
                   domain_kind="point")
    assert graph_laplacian(g, 1.0) is None


# ---------------------------------------------------------------------------
# state energies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,ndof", [
    (EnergySpec(kind="quadratic", gamma=0.7), 6),
    (EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0), 6),
    (EnergySpec(kind="m_laplace", m=3.0, B=0.8, C=0.5), 6),
    (EnergySpec(kind="fractional", s=0.5, gamma=0.4), 6),
    (EnergySpec(kind="lv_quadratic", D1=0.2, D2=0.1, F1=0.3, F2=0.0), 12),
])
def test_energy1_gradient_fd(spec, ndof):
    g = line_grid(6)
    rng = np.random.default_rng(2)
    x = rng.normal(size=ndof)

    def f(y):
        return energy1_value_grad(spec, g, y)[0]

    _, grad = energy1_value_grad(spec, g, x)
    assert np.allclose(grad, fd_gradient(f, x), atol=2e-5)


@pytest.mark.parametrize("spec", [
    EnergySpec(kind="m_laplace", m=3.0, B=1.0, C=0.5),
    EnergySpec(kind="fractional", s=0.3, gamma=0.2),
])
def test_energy1_hessian_matches_gradient_fd(spec):
    g = line_grid(5)
    rng = np.random.default_rng(3)
    x = rng.normal(size=5) + 0.1
    H = np.asarray(energy1_hessian(spec, g, x).todense())
    h = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        col = (energy1_value_grad(spec, g, x + e)[1]
               - energy1_value_grad(spec, g, x - e)[1]) / (2.0 * h)
        assert np.allclose(H[:, i], col, atol=2e-4)


def test_m2_energy_is_half_laplacian_form():
    g = line_grid(8, boundary="dirichlet")
    spec = EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0)
    L = graph_laplacian(g, 1.0)
    rng = np.random.default_rng(4)
    u = rng.normal(size=8)
    val, _ = energy1_value_grad(spec, g, u)
    assert val == pytest.approx(0.5 * float(u @ (L @ u)), rel=1e-13)


def test_fractional_matrix_properties():
    g = line_grid(8, spacing=1.0)
    for s in (0.25, 0.75):
        spec = EnergySpec(kind="fractional", s=s, gamma=0.0, exterior=False)
        const = np.ones(8)
        val, grad = energy1_value_grad(spec, g, const)
        # pure difference form: constants carry no energy
        assert abs(val) <= 1e-12 and np.allclose(grad, 0.0, atol=1e-12)
        conf = EnergySpec(kind="fractional", s=s, gamma=0.0, exterior=True)
        vc, _ = energy1_value_grad(conf, g, const)
        assert vc > 0.0  # the zero exterior extension confines


def test_fractional_seminorm_matches_direct_sum():
    n = 7
    g = line_grid(n, spacing=1.0)
    rng = np.random.default_rng(5)
    u = rng.uniform(size=n)
    s = 0.5
    direct = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                direct += (u[i] - u[j]) ** 2 / abs(i - j) ** (1 + 2 * s)
    # twice phi1 of the fractional energy without its quadratic term
    spec = EnergySpec(kind="fractional", s=s, gamma=0.0, exterior=False)
    val, _ = energy1_value_grad(spec, g, u)
    assert 2.0 * val == pytest.approx(direct, rel=1e-12)


def test_robin_boundary_adds_quadratic_term():
    gr = build_grid(dim=1, shape=(6,), spacing=(0.2,), boundary="robin",
                    robin_b=2.0)
    gn = build_grid(dim=1, shape=(6,), spacing=(0.2,), boundary="neumann")
    spec = EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0)
    rng = np.random.default_rng(6)
    u = rng.normal(size=6)
    vr, _ = energy1_value_grad(spec, gr, u)
    vn, _ = energy1_value_grad(spec, gn, u)
    bmeas = gr.cell_measure / gr.h
    expect = 0.5 * (bmeas / 2.0) * (u[0] ** 2 + u[-1] ** 2)
    assert vr - vn == pytest.approx(expect, rel=1e-12)


def test_energy_spec_validation():
    with pytest.raises(ConfigurationError):
        EnergySpec(kind="cubic")
    with pytest.raises(ConfigurationError):
        EnergySpec(kind="m_laplace", m=1.5)
    with pytest.raises(ConfigurationError):
        EnergySpec(kind="fractional", s=1.0)
    with pytest.raises(ConfigurationError):
        EnergySpec(kind="none")
    with pytest.raises(ConfigurationError):
        ConcaveSpec(concave_q=1.0)


@pytest.mark.parametrize("name", ["gamma", "B", "C", "D1", "D2", "F1", "F2",
                                  "concave_D"])
def test_energy_spec_rejects_negative_coefficients(name):
    spec = ConcaveSpec if name == "concave_D" else EnergySpec
    with pytest.raises(ConfigurationError, match=name):
        spec(**{name: -1.0})
    with pytest.raises(ConfigurationError, match=name):
        spec(**{name: np.array([1.0, 0.5, -1e-3, 2.0])})
    with pytest.raises(ConfigurationError, match=name):
        spec(**{name: float("nan")})
    with pytest.raises(ConfigurationError, match=name):
        spec(**{name: "abc"})
    spec(**{name: 0.0})
    nodal = np.array([1.0, 0.5, 0.0, 2.0])
    if name in ("B", "C", "concave_D"):
        spec(**{name: nodal})
    else:  # one number only
        with pytest.raises(ConfigurationError, match=name):
            spec(**{name: nodal})


# ---------------------------------------------------------------------------
# concave part and forcing
# ---------------------------------------------------------------------------

def test_energy2_concave_gradient_fd():
    g = line_grid(5)
    spec = ConcaveSpec(concave_q=1.5, concave_D=0.8)
    rng = np.random.default_rng(7)
    x = rng.normal(size=5) + 2.0  # stay away from the q<2 kink

    def f(y):
        return energy2_value_grad(spec, g, y)[0]

    _, grad = energy2_value_grad(spec, g, x)
    assert np.allclose(grad, fd_gradient(f, x), atol=1e-5)


def test_energy2_subgradient_selection_at_zero():
    g = line_grid(4)
    spec = ConcaveSpec(concave_q=1.5, concave_D=1.0)
    _, grad = energy2_value_grad(spec, g, np.zeros(4))
    assert np.array_equal(grad, np.zeros(4))


def test_forcing_time_table():
    # knot n reads row n of a forcing table: in the dual field, and in the
    # pairing -h^d <f_n, u_n> of the potential value
    table = np.arange(12.0).reshape(4, 3)
    plain = heat_problem(n=3, u0=np.ones(3))
    problem = replace(plain, forcing=table)
    traj = constant_trajectory(plain.grid, np.ones(3), plain.T, 3)
    hd = plain.grid.cell_measure
    w = dual_field(problem, traj)
    assert np.allclose(w[0], table[0]) and np.allclose(w[2], table[2])
    _, b = _weights(plain.epsilon, plain.T, 3)
    pairing = wed_potential_value(plain, traj) \
        - wed_potential_value(problem, traj)
    assert pairing == pytest.approx(
        sum(b[n - 1] * hd * table[n].sum() for n in (1, 2, 3)))
    # one row is the source at every knot
    w = dual_field(replace(problem, forcing=table[2]), traj)
    assert np.allclose(w, np.tile(table[2], (4, 1)))


# ---------------------------------------------------------------------------
# reactions
# ---------------------------------------------------------------------------

def test_lv_clamp_frozen_example():
    spec = ReactionSpec(kind="lotka_volterra", A=1.0, K=1.0)
    u, v = lv_clamp(spec, np.array([2.0, -1.0]), np.array([-3.0, 4.0]))
    assert np.array_equal(u, [1.0, 0.0])
    assert np.array_equal(v, [0.0, 4.0])


def test_lv_reaction_vanishes_outside_box():
    spec = ReactionSpec(kind="lotka_volterra", A=1.0, K=2.0, B=0.5, C=0.4,
                        E=0.3)
    fu, fv = reaction_eval(spec, (np.array([-1.0]), np.array([-1.0])))
    assert fu[0] == 0.0 and fv[0] == 0.0
    # saturated u: logistic part dies, interaction pulls down
    fu, fv = reaction_eval(spec, (np.array([5.0]), np.array([1.0])))
    inter = 2.0 * 1.0 / (1.0 + 0.3)
    assert fu[0] == pytest.approx(-0.5 * inter)
    assert fv[0] == pytest.approx(0.4 * inter)


def test_lv_interior_formula():
    spec = ReactionSpec(kind="lotka_volterra", A=1.2, K=2.0, B=0.5, C=0.4,
                        E=0.3)
    u, v = 1.0, 0.5
    fu, fv = reaction_eval(spec, (np.array([u]), np.array([v])))
    inter = u * v / (1.0 + 0.3 * v)
    assert fu[0] == pytest.approx(1.2 * u * (1.0 - u / 2.0) - 0.5 * inter)
    assert fv[0] == pytest.approx(0.4 * inter)


def test_reaction_validation():
    with pytest.raises(ConfigurationError):
        ReactionSpec(kind="lotka_volterra", A=0.0)
    with pytest.raises(ConfigurationError):
        ReactionSpec(kind="lotka_volterra", B=-0.1)
    with pytest.raises(ConfigurationError):
        ReactionSpec(kind="predator")


# ---------------------------------------------------------------------------
# stacked states and per-grid caches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,ndof", [
    (EnergySpec(kind="quadratic", gamma=0.7), 6),
    (EnergySpec(kind="m_laplace", m=3.0, B=0.8, C=0.5), 6),
    (EnergySpec(kind="fractional", s=0.5, gamma=0.4), 6),
    (EnergySpec(kind="lv_quadratic", D1=0.2, D2=0.1, F1=0.3, F2=0.05), 12),
])
def test_energy1_stack_is_the_rows_of_single_states(spec, ndof):
    g = line_grid(6, boundary="dirichlet", spacing=0.3)
    X = np.random.default_rng(6).normal(size=(4, ndof))
    vals, grads = energy1_value_grad(spec, g, X)
    H = energy1_hessian(spec, g, X).toarray()
    assert H.shape == (4 * ndof, 4 * ndof)
    for i, x in enumerate(X):
        v, grad = energy1_value_grad(spec, g, x)
        assert vals[i] == v  # values keep the rounding of one state
        assert np.allclose(grads[i], grad, rtol=1e-14, atol=1e-14)
        block = slice(i * ndof, (i + 1) * ndof)
        assert np.allclose(H[block, block],
                           energy1_hessian(spec, g, x).toarray(),
                           rtol=1e-14, atol=1e-14)
        H[block, block] = 0.0
    assert not H.any()  # no coupling between rows


def test_energy2_stack_reads_each_rows_slice():
    # phi2 of a stack is that of each row, and the dual field of a
    # trajectory adds each knot's own row of the forcing table
    g = line_grid(5)
    forcing = np.random.default_rng(7).normal(size=(3, 5))
    spec = ConcaveSpec(concave_q=3.0, concave_D=0.4)
    X = np.random.default_rng(8).normal(size=(3, 5))
    vals, grads = energy2_value_grad(spec, g, X)
    for n, x in enumerate(X):
        v, grad = energy2_value_grad(spec, g, x)
        assert vals[n] == v and np.array_equal(grads[n], grad)
    problem = replace(heat_problem(n=5), energy2=spec, forcing=forcing,
                      initial=X[0])
    w = dual_field(problem, Trajectory(g, 1.0, X))
    assert np.array_equal(w, grads / g.cell_measure + forcing)


def test_grid_caches_are_keyed_by_grid_values(monkeypatch):
    from wedflow import energies
    calls = []
    real = energies.grid_edges
    monkeypatch.setattr(energies, "grid_edges",
                        lambda grid: calls.append(grid) or real(grid))
    a = build_grid(dim=1, shape=(9,), spacing=(0.1875,),
                   boundary="dirichlet")
    b = build_grid(dim=1, shape=(9,), spacing=(0.1875,),
                   boundary="dirichlet")
    assert a is not b
    for grid in (a, b, a):
        energy1_value_grad(EnergySpec(kind="m_laplace", m=3.0), grid,
                           np.ones(9))
    assert len(calls) <= 1
    assert energies._fractional_matrix(a, 0.3, True) \
        is energies._fractional_matrix(b, 0.3, True)


def test_edge_operator_differences_match_the_gather():
    g = build_grid(dim=2, shape=(4, 5), spacing=(0.3, 0.2),
                   boundary="dirichlet", domain_kind="rectangle")
    from wedflow.energies import _edge_operator
    _, D, DT = _edge_operator(g)
    # the transpose is built once per grid, and is D's own transpose
    assert _edge_operator(g)[2] is DT
    assert DT.format == "csc" and DT.shape == D.shape[::-1]
    assert (DT != D.T).nnz == 0
    u = np.random.default_rng(9).normal(size=g.n_nodes)
    diffs, emeas = edge_differences(g, u)
    assert np.allclose(D @ u, diffs, rtol=1e-14, atol=1e-14)
    L = graph_laplacian(g, 1.7)
    assert np.allclose(L.toarray(),
                       1.7 * g.cell_measure * (D.T @ D).toarray(),
                       rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("grid, spec", [
    (build_grid(dim=2, shape=(4, 5), spacing=(0.3, 0.2),
                boundary="neumann", domain_kind="rectangle"),
     EnergySpec(kind="m_laplace", m=2.0, B=1.3, C=0.0)),
    (build_grid(dim=2, shape=(5, 3), spacing=(0.25, 0.5),
                boundary="dirichlet", domain_kind="rectangle"),
     EnergySpec(kind="m_laplace", m=2.0, B=0.6, C=0.8)),
    (build_grid(dim=2, shape=(4, 6), spacing=(0.2, 0.1),
                boundary="periodic", domain_kind="torus"),
     EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.2)),
    (build_grid(dim=2, shape=(3, 4), spacing=(0.5, 0.5),
                boundary="dirichlet", domain_kind="rectangle"),
     EnergySpec(kind="quadratic", gamma=1.7)),
    (line_grid(7, "dirichlet"), EnergySpec(kind="m_laplace", m=2.0)),
    # one axis at its kind's crossover, applied by numpy.fft
    (build_grid(dim=2, shape=(256, 3), spacing=(0.01, 0.3),
                boundary="neumann", domain_kind="rectangle"),
     EnergySpec(kind="m_laplace", m=2.0, B=0.9, C=0.1)),
    (build_grid(dim=2, shape=(4, 256), spacing=(0.2, 0.01),
                boundary="periodic", domain_kind="torus"),
     EnergySpec(kind="m_laplace", m=2.0)),
    (line_grid(640, "dirichlet"), EnergySpec(kind="quadratic", gamma=0.4)),
])
def test_energy1_modes_diagonalize_the_assembled_hessian(grid, spec):
    axes, lam, kdiag = energy1_modes(spec, grid)
    assert lam.shape == kdiag.shape == grid.shape
    Q = _dense(axes[0], grid.shape[0])
    for q, n in zip(axes[1:], grid.shape[1:]):
        Q = np.kron(Q, _dense(q, n))
    assert np.allclose(Q.T @ Q, np.eye(grid.n_nodes), atol=1e-14)
    K = energy1_hessian(spec, grid, np.zeros(grid.n_nodes)).toarray()
    scale = np.max(np.abs(K))
    assert np.allclose(Q @ np.diag(lam.ravel()) @ Q.T, K, rtol=0.0,
                       atol=1e-13 * scale)
    assert np.allclose(kdiag.ravel(), np.diag(K), rtol=1e-14, atol=0.0)


def _dense(axis, n: int) -> np.ndarray:
    """An axis of energy1_modes as its dense Q: the matrix itself, or the
    rows of the identity through its forward numpy.fft transform, which
    maps a row x to x Q."""
    return axis if isinstance(axis, np.ndarray) \
        else _newton._FFT[axis][0](np.eye(n))


def _axis_grid(kind: str, n: int, h: float):
    return build_grid(dim=1, shape=(n,), spacing=(h,), boundary=kind,
                      domain_kind="torus" if kind == "periodic"
                      else "interval")


KINDS = ("neumann", "dirichlet", "periodic")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("side", ["short", "below", "at"])
def test_closed_form_modes_are_those_of_the_assembled_hessian(kind, side):
    # odd and even n of 3, 4, 7 and 8 nodes, then the lengths just below
    # and at the kind's crossover, where the dense Q gives way to the FFT
    cross = energies.FFT_CROSSOVER[kind]
    lengths = {"short": (3, 4, 7, 8), "below": (cross - 1,),
               "at": (cross,)}[side]
    for n in lengths:
        grid = _axis_grid(kind, n, 0.7 / n)
        spec = EnergySpec(kind="m_laplace", m=2.0, B=1.3, C=0.2)
        (axis,), lam, kdiag = energy1_modes(spec, grid)
        assert isinstance(axis, str) == (side == "at")
        K = energy1_hessian(spec, grid, np.zeros(n)).toarray()
        scale = np.max(np.abs(K))
        evals, vecs = np.linalg.eigh(K)
        # the closed-form eigenvalues, ascending, are eigh's
        assert np.all(np.diff(lam) >= 0.0)
        assert np.max(np.abs(lam - evals)) <= 1e-13 * scale
        # and the closed-form Q, dense or by FFT, diagonalizes K
        Q = _dense(axis, n)
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-13
        assert np.max(np.abs(Q.T @ K @ Q - np.diag(lam))) <= 1e-13 * scale
        # each eigenvalue's space is eigh's (a periodic pair shares one)
        for value in np.unique(lam):
            mine, theirs = Q[:, lam == value], \
                vecs[:, np.abs(evals - value) <= 1e-9 * scale]
            assert mine.shape == theirs.shape
            assert np.allclose(np.abs(np.linalg.svd(mine.T @ theirs)[1]),
                               1.0, rtol=0.0, atol=1e-9)
        assert np.allclose(kdiag, np.diag(K), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [3, 4, 7, 8, 33, 255, 256, 639, 640])
def test_fft_transforms_apply_the_closed_form_q(kind, n):
    Q = energies.axis_eigenvectors(kind, n)
    forward, inverse = _newton._FFT[kind]
    X = np.random.default_rng(n).standard_normal((3, 5, n))
    for got, want in ((forward(X), X @ Q), (inverse(X), X @ Q.T)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_kron_modes_call_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    spec = EnergySpec(kind="m_laplace", m=2.0)
    for kind in KINDS:
        for n in (5, energies.FFT_CROSSOVER[kind] + 1):
            # a spacing no other test uses, so the cache cannot answer
            assert energy1_modes(spec, _axis_grid(kind, n, 0.0123)) \
                is not None


def test_the_mode_cache_holds_no_dense_q_for_a_long_axis():
    n = 512
    grid = build_grid(dim=2, shape=(n, 3), spacing=(1.0 / n, 0.25),
                      boundary="neumann", domain_kind="rectangle")
    energy1_modes(EnergySpec(kind="m_laplace", m=2.0, B=0.8), grid)
    (entry,) = [v for k, v in energies._kron_modes.cache.items()
                if k[:3] == (2, (n, 3), (1.0 / n, 0.25)) and k[-2] == 0.8]
    axes, lam, kdiag = entry
    assert axes[0] == "neumann" and axes[1].shape == (3, 3)
    assert lam.shape == kdiag.shape == (n, 3)
    assert all(np.size(a) < n * n for a in (*axes, lam, kdiag))


@pytest.mark.parametrize("grid, spec", [
    (build_grid(dim=2, shape=(4, 4), spacing=(0.3, 0.3), boundary="robin",
                domain_kind="rectangle", robin_b=1.0),
     EnergySpec(kind="m_laplace", m=2.0)),
    (line_grid(5), EnergySpec(kind="m_laplace", m=3.0)),
    (line_grid(5), EnergySpec(kind="m_laplace", m=2.0, B=np.ones(5))),
    (line_grid(5), EnergySpec(kind="m_laplace", m=2.0, C=np.ones(5))),
    (line_grid(5), EnergySpec(kind="fractional", s=0.5)),
    (build_grid(dim=1, shape=(1,), spacing=(1.0,), domain_kind="point"),
     EnergySpec(kind="quadratic")),
])
def test_energy1_modes_only_for_kronecker_sums(grid, spec):
    assert energy1_modes(spec, grid) is None


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", range(5))
def test_polyval_is_numpys_polyval_bit_for_bit(degree):
    P = np.polynomial.polynomial
    rng = np.random.default_rng(30 + degree)
    x = np.concatenate([3.0 * rng.standard_normal(40),
                        [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300,
                         -1e300]]).reshape(6, 8)
    random = tuple(float(c) for c in rng.standard_normal(degree + 1))
    # x^degree: at degree 1, the phi~' coefficients [0, 1] of `ri_ramp`
    monomial = (0.0,) * degree + (1.0,)
    signed = (-0.0,) + random[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (random, monomial, signed):
            assert same_bits(polyval(x, c), P.polyval(x, c))
            assert same_bits(polyval(x.astype(np.longdouble), c),
                             P.polyval(x.astype(np.longdouble), c))
            # at +-inf and NaN: NaN wherever numpy gives NaN, which the
            # _MIN_STEP fallback of the Newton line search reads
            bad = np.array([np.inf, -np.inf, np.nan, 2.0])
            assert np.array_equal(polyval(bad, c), P.polyval(bad, c),
                                  equal_nan=True)


def test_polyders_are_python_floats():
    c, (d1, d2) = polynomial((0, 0.1, 0.5, 0.0, 0.25), "c")
    assert c == (0.0, 0.1, 0.5, 0.0, 0.25)
    assert d1 == (0.1, 1.0, 0.0, 1.0) and d2 == (1.0, 0.0, 3.0)
    assert all(type(x) is float for x in c + d1 + d2)
    assert polynomial((2.0,), "c")[1] == (None, None)
    assert polynomial((2.0, 1.0), "c")[1][1] is None
    # a coefficient that overflows is a configuration error, not a warning
    with pytest.raises(ConfigurationError) as err:
        polynomial((0.0, 0.0, 1e308), "c")
    assert err.value.field == "c"


# ---------------------------------------------------------------------------
# the space-time Hessian of minimize_wed against the sparse chain
# ---------------------------------------------------------------------------

def _chain_edge_hessian(grid, curv):
    D = _edge_operator(grid)[1]
    Dk = sp.kron(sp.identity(curv.shape[0], format="csr"), D, format="csr")
    return (Dk.T @ sp.diags(curv.ravel()) @ Dk).tocsr()


def _chain_curvature(grid, X, B, m):
    edges = _edge_operator(grid)[0]
    diffs, emeas = edge_differences(grid, X)
    Be = B[..., edges[0]]
    return Be * (m - 1.0) * np.abs(diffs) ** (m - 2.0) * emeas


def _chain_energy1_hessian(spec, grid, x):
    X = np.atleast_2d(x)
    k, n_dof = X.shape
    hd = grid.cell_measure
    if spec.kind == "quadratic":
        return sp.identity(k * n_dof, format="csr") * (spec.gamma * hd)
    if spec.kind == "fractional":
        Q = _fractional_matrix(grid, spec.s, spec.exterior)
        return sp.kron(sp.identity(k, format="csr"),
                       sp.csr_matrix(Q + spec.gamma * hd * np.eye(n_dof)),
                       format="csr")
    if spec.kind == "lv_quadratic":
        n = grid.n_nodes
        curv = _chain_curvature(grid, X.reshape(-1, n), np.tile(
            [[spec.D1], [spec.D2]], (k, n)), 2.0)
        return (_chain_edge_hessian(grid, curv) + sp.diags(np.repeat(
            np.tile([spec.F1, spec.F2], k) * hd, n))).tocsr()
    B = np.full(grid.n_nodes, spec.B)
    C = np.full(grid.n_nodes, spec.C)
    curv = _chain_curvature(grid, X, B, spec.m)
    diag = hd * C * (spec.m - 1.0) * np.abs(X) ** (spec.m - 2.0) \
        + _robin_diag(grid)
    return (_chain_edge_hessian(grid, curv) + sp.diags(diag.ravel())).tocsr()


def _chain_hessian(problem, U):
    """The space-time Hessian as minimize_wed assembled it with scipy's
    sparse products and sums, kept as the bitwise reference."""
    N = U.shape[0] - 1
    dt = problem.T / N
    hd = problem.grid.cell_measure
    a, b = _weights(problem.epsilon, problem.T, N)
    row_b = sp.diags(np.repeat(b, problem.n_dof))
    r = a[:, None] * (alpha_prime(problem.dissipation,
                                  np.diff(U, axis=0) / dt) * hd / dt ** 2)
    Hphi = _chain_energy1_hessian(problem.energy1, problem.grid, U[1:])
    return (row_b @ Hphi + time_band(r)).tocsc()


HESSIAN_GRIDS = {
    "line-neumann": line_grid(6),
    "line-dirichlet": line_grid(6, "dirichlet"),
    "line-robin": build_grid(dim=1, shape=(6,), spacing=(0.2,),
                             boundary="robin", robin_b=0.7),
    "ring-1": Grid(1, (1,), (0.5,), "periodic", "torus"),
    "ring-2": Grid(1, (2,), (0.5,), "periodic", "torus"),
    "point": point_grid(),
    "rect-neumann": build_grid(dim=2, shape=(4, 3), spacing=(0.25, 0.4),
                               boundary="neumann", domain_kind="rectangle"),
    "rect-dirichlet": build_grid(dim=2, shape=(3, 4), spacing=(0.3, 0.2),
                                 boundary="dirichlet",
                                 domain_kind="rectangle"),
    "rect-robin": build_grid(dim=2, shape=(3, 3), spacing=(0.3, 0.3),
                             boundary="robin", domain_kind="rectangle",
                             robin_b=1.0),
    "torus-1x3": Grid(2, (1, 3), (0.5, 0.3), "periodic", "torus"),
    "torus-2x3": Grid(2, (2, 3), (0.5, 0.3), "periodic", "torus"),
}


def _hessian_energy(kind: str, n: int) -> EnergySpec:
    return {
        "m2": EnergySpec(kind="m_laplace", m=2.0, B=1.0, C=0.0),
        "m3": EnergySpec(kind="m_laplace", m=3.0, B=1.0, C=0.5),
        "nodal": EnergySpec(kind="m_laplace", m=3.0,
                            B=np.linspace(0.5, 1.5, n),
                            C=np.linspace(0.0, 1.0, n)),
        "lv_quadratic": EnergySpec(kind="lv_quadratic", D1=1.0, D2=0.5,
                                   F1=0.3, F2=0.2),
        "fractional": EnergySpec(kind="fractional", s=0.4, gamma=0.5),
        "quadratic": EnergySpec(kind="quadratic", gamma=1.3),
    }[kind]


HESSIAN_DISSIPATIONS = {
    "p2": DissipationSpec(),
    "p4-rest": DissipationSpec(p=4.0),
    "table": DissipationSpec(p=2.0, alpha_kind="table",
                             table_s=np.array([-1.0, 0.0, 1.0]),
                             table_alpha=np.array([-2.0, 0.0, 1.0])),
}


@pytest.mark.parametrize("dissipation", sorted(HESSIAN_DISSIPATIONS))
@pytest.mark.parametrize("energy", ["m2", "m3", "nodal", "lv_quadratic",
                                    "fractional", "quadratic"])
@pytest.mark.parametrize("grid", sorted(HESSIAN_GRIDS))
def test_wed_hessians_are_bitwise_the_sparse_chain(monkeypatch, grid, energy,
                                                   dissipation):
    grid = HESSIAN_GRIDS[grid]
    n = grid.n_nodes
    spec = _hessian_energy(energy, n)
    n_dof = 2 * n if spec.kind == "lv_quadratic" else n
    N = 3
    rng = np.random.default_rng(2)
    # states constant along the last axis in 2D, and on pairs of nodes in
    # 1D, so that m = 3 drops the zero-curvature edges there
    reps = grid.shape[-1] if grid.dim == 2 else 2 - n % 2

    def pieces(*shape):
        return np.tile(np.repeat(rng.standard_normal((*shape, n // reps)),
                                 reps, axis=-1), n_dof // n)

    u0 = 1.0 + 0.3 * pieces()
    problem = WedProblem(grid=grid,
                         dissipation=HESSIAN_DISSIPATIONS[dissipation],
                         energy1=spec, energy2=ConcaveSpec(),
                         reaction=ReactionSpec(), T=1.0, epsilon=0.2,
                         initial=u0)
    start = np.tile(u0, (N + 1, 1))
    w = np.tile(u0, (N + 1, 1))
    if dissipation != "p4-rest":
        # from a start that moves, with a field that keeps it moving
        start[1:] += 0.1 * pieces(N)
        w += pieces(N + 1)
    seen = []
    real = wed.newton_solve

    def compare(x0, grad_fn, hess_fn, scale, **options):
        def hess(x):
            H = hess_fn(x)
            # a constant Hessian is filled once and held: the chain at
            # every iterate checks that it is constant
            assert_same_csc(H.matrix, _chain_hessian(
                problem, np.vstack([problem.initial, x.reshape(N, n_dof)])))
            seen.append(H.matrix)
            return H
        return real(x0, grad_fn, hess, scale, **options)

    monkeypatch.setattr(wed, "newton_solve", compare)
    monkeypatch.setattr(wed, "energy1_modes", lambda spec, grid: None)
    # at rest, a zero energy Hessian (one node, C = 0) leaves H = 0: the
    # Levenberg shift starts at 1e-300 and the trial points overflow
    with np.errstate(over="ignore", invalid="ignore") \
            if dissipation == "p4-rest" else contextlib.nullcontext():
        traj, report = minimize_wed(
            problem, w, Trajectory(grid, problem.T, start), max_iter=4)
    assert seen
    # a stall goes to the extended-precision polish (table dissipation
    # included), which hands back float64 whatever it decides
    assert traj.values.dtype == np.float64
    assert type(report.gradient_norm) is float
    if dissipation == "p4-rest":
        # at rest the time band vanishes: each knot is its own block
        H = seen[0].tocoo()
        assert np.all(H.row // n_dof == H.col // n_dof)
    # within one scope of fill plans, fills at states with other exact
    # zeros (the start, whose time band vanishes at rest and whose m = 3
    # edges vanish where it is constant, then a state that moves
    # everywhere) and at the first state again are each the chain's: a
    # plan serves only the zero mask it was made for
    moved = start + 0.01 * rng.standard_normal(start.shape)
    moved[0] = problem.initial
    states = (start, moved, start)
    with _newton.plan_scope():
        fills = [wed._space_time_hessian(problem, U).matrix for U in states]
    for H, U in zip(fills, states):
        assert_same_csc(H, _chain_hessian(problem, U))
    if dissipation == "p4-rest":
        assert fills[0].nnz < fills[1].nnz
