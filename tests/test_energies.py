"""Dissipation and state-energy evaluations against finite differences
and hand-computed small cases."""

import numpy as np
import pytest

from wedflow import (ConfigurationError, DissipationSpec, EnergySpec, Field,
                     ReactionSpec, build_grid, dissipation_eval,
                     energy1_value_grad, energy2_value_grad, reaction_eval,
                     validate_growth)
from wedflow.energies import (A_eval, GrowthCertificate, alpha_eval,
                              alpha_prime, edge_differences, energy1_hessian,
                              energy1_modes,
                              fractional_seminorm, graph_laplacian,
                              grid_edges, lv_clamp, p_conjugate)

from conftest import line_grid


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


def test_table_dissipation_matches_power():
    s = np.linspace(-10.0, 10.0, 401)
    spec = DissipationSpec(p=2.0, alpha_kind="table", table_s=s,
                           table_alpha=s)
    probe = np.array([-7.3, -1.0, 0.0, 0.25, 9.9])
    assert np.allclose(alpha_eval(spec, probe), probe)
    # integral of a linear table is exact
    assert np.allclose(A_eval(spec, probe), 0.5 * probe * probe, atol=1e-12)


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
    g = line_grid(6)
    rng = np.random.default_rng(0)
    v = rng.normal(size=6) + 0.3  # keep away from the p<2 kink at 0
    spec = DissipationSpec(p=p)

    def f(x):
        return dissipation_eval(spec, Field(g, x))[0]

    _, grad = dissipation_eval(spec, Field(g, v))
    assert np.allclose(grad.values, fd_gradient(f, v), atol=1e-5)


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
    val, _ = fractional_seminorm(Field(g, u), s, exterior=False)
    assert val == pytest.approx(direct, rel=1e-12)


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
        EnergySpec(concave_q=1.0)


@pytest.mark.parametrize("name", ["gamma", "B", "C", "D1", "D2", "F1", "F2",
                                  "concave_D"])
def test_energy_spec_rejects_negative_coefficients(name):
    g = line_grid(4)
    with pytest.raises(ConfigurationError, match=name):
        EnergySpec(**{name: -1.0})
    with pytest.raises(ConfigurationError, match=name):
        EnergySpec(**{name: Field(g, np.array([1.0, 0.5, -1e-3, 2.0]))})
    with pytest.raises(ConfigurationError, match=name):
        EnergySpec(**{name: float("nan")})
    with pytest.raises(ConfigurationError, match=name):
        EnergySpec(**{name: "abc"})
    EnergySpec(**{name: 0.0})
    EnergySpec(**{name: Field(g, np.array([1.0, 0.5, 0.0, 2.0]))})


# ---------------------------------------------------------------------------
# concave part and forcing
# ---------------------------------------------------------------------------

def test_energy2_concave_gradient_fd():
    g = line_grid(5)
    spec = EnergySpec(kind="none", concave_q=1.5, concave_D=0.8)
    rng = np.random.default_rng(7)
    x = rng.normal(size=5) + 2.0  # stay away from the q<2 kink

    def f(y):
        return energy2_value_grad(spec, g, y)[0]

    _, grad = energy2_value_grad(spec, g, x)
    assert np.allclose(grad, fd_gradient(f, x), atol=1e-5)


def test_energy2_subgradient_selection_at_zero():
    g = line_grid(4)
    spec = EnergySpec(kind="none", concave_q=1.5, concave_D=1.0)
    _, grad = energy2_value_grad(spec, g, np.zeros(4))
    assert np.array_equal(grad, np.zeros(4))


def test_forcing_time_table():
    g = line_grid(3)
    table = np.arange(12.0).reshape(4, 3)
    spec = EnergySpec(kind="none", forcing=table)
    v0, g0 = energy2_value_grad(spec, g, np.ones(3), n_slice=0)
    v2, g2 = energy2_value_grad(spec, g, np.ones(3), n_slice=2)
    hd = g.cell_measure
    assert v0 == pytest.approx(hd * table[0].sum())
    assert v2 == pytest.approx(hd * table[2].sum())
    assert np.allclose(g2, hd * table[2])


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


def test_constant_g_time_indexed():
    g_table = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = ReactionSpec(kind="constant_g", g=g_table)
    assert np.array_equal(reaction_eval(spec, np.zeros(2), 1), [3.0, 4.0])


def test_reaction_validation():
    with pytest.raises(ConfigurationError):
        ReactionSpec(kind="lotka_volterra", A=0.0)
    with pytest.raises(ConfigurationError):
        ReactionSpec(kind="lotka_volterra", B=-0.1)
    with pytest.raises(ConfigurationError):
        ReactionSpec(kind="predator")


# ---------------------------------------------------------------------------
# growth certificates
# ---------------------------------------------------------------------------

def test_growth_certificate_validation():
    with pytest.raises(ConfigurationError):
        GrowthCertificate(k=1.0)
    with pytest.raises(ConfigurationError):
        GrowthCertificate(C1=-1.0)


def test_validate_growth_passes_and_fails():
    g = line_grid(5)
    e1 = EnergySpec(kind="quadratic", gamma=1.0)
    ok = validate_growth(GrowthCertificate(k=0.5, C1=5.0, C2=10.0), g,
                         e1, EnergySpec(kind="none"), ReactionSpec(),
                         DissipationSpec(p=2.0))
    assert ok["passed"] and ok["phi2_margin"] >= 0.0
    # a concave part the certificate cannot dominate
    bad = validate_growth(GrowthCertificate(k=0.0, C1=0.0, C2=10.0), g,
                          e1, EnergySpec(kind="none", concave_q=2.0,
                                         concave_D=50.0),
                          ReactionSpec(), DissipationSpec(p=2.0))
    assert not bad["passed"]


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
    g = line_grid(5)
    forcing = np.random.default_rng(7).normal(size=(3, 5))
    spec = EnergySpec(kind="quadratic", gamma=0.0, concave_q=3.0,
                      concave_D=0.4, forcing=forcing)
    X = np.random.default_rng(8).normal(size=(3, 5))
    vals, grads = energy2_value_grad(spec, g, X, np.arange(3))
    for n, x in enumerate(X):
        v, grad = energy2_value_grad(spec, g, x, n)
        assert vals[n] == v and np.array_equal(grads[n], grad)


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
    _, D = _edge_operator(g)
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
])
def test_energy1_modes_diagonalize_the_assembled_hessian(grid, spec):
    axes, lam, kdiag = energy1_modes(spec, grid)
    assert lam.shape == kdiag.shape == grid.shape
    Q = axes[0]
    for q in axes[1:]:
        Q = np.kron(Q, q)
    assert np.allclose(Q.T @ Q, np.eye(grid.n_nodes), atol=1e-14)
    K = energy1_hessian(spec, grid, np.zeros(grid.n_nodes)).toarray()
    scale = np.max(np.abs(K))
    assert np.allclose(Q @ np.diag(lam.ravel()) @ Q.T, K, rtol=0.0,
                       atol=1e-13 * scale)
    assert np.allclose(kdiag.ravel(), np.diag(K), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("grid, spec", [
    (build_grid(dim=2, shape=(4, 4), spacing=(0.3, 0.3), boundary="robin",
                domain_kind="rectangle", robin_b=1.0),
     EnergySpec(kind="m_laplace", m=2.0)),
    (line_grid(5), EnergySpec(kind="m_laplace", m=3.0)),
    (line_grid(5), EnergySpec(kind="m_laplace", m=2.0, B=np.ones(5))),
    (line_grid(5), EnergySpec(kind="m_laplace", m=2.0,
                              C=Field(line_grid(5), np.ones(5)))),
    (line_grid(5), EnergySpec(kind="fractional", s=0.5)),
    (build_grid(dim=1, shape=(1,), spacing=(1.0,), domain_kind="point"),
     EnergySpec(kind="quadratic")),
])
def test_energy1_modes_only_for_kronecker_sums(grid, spec):
    assert energy1_modes(spec, grid) is None
