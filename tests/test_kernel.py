"""The lean WED gradient kernel against the full-term kernel it replaced.

`wed._wed_kernel` and `energies.energy1_value_grad` evaluate only the
terms that can change a bit of the gradient (see their docstrings). The
reference below is the kernel as it was written before that, with every
term: the weights rebuilt per call, B multiplied in at every edge, the
nodal C and robin terms added at every node, np.where over phantom edges,
hd w subtracted at every knot and alpha(v) = v copied. Gradients and
values must match it bit for bit, -0.0 apart from +0.0, in float64 and in
the np.longdouble of the extended-precision polish.
"""

import itertools

import numpy as np
import pytest

from wedflow import (ConcaveSpec, DissipationSpec, EnergySpec, ReactionSpec,
                     WedProblem, build_grid, wed)
from wedflow._newton import _EXTENDED, time_divergence
from wedflow.energies import (A_eval, _coef, _edge_operator, _robin_diag,
                              _rowdot, _sequential_sum, alpha_eval)

from conftest import heat_problem


# ---------------------------------------------------------------------------
# the full-term reference kernel
# ---------------------------------------------------------------------------

def reference_weights(eps, T, N):
    dt = T / N
    t = np.linspace(0.0, T, N + 1)
    b = np.exp(-t / eps)[1:] * dt
    c0 = eps * np.expm1(dt / eps) / dt
    return c0 * eps * b, b


def reference_edge_energy(grid, X, B, m, value=True):
    (src, dst, hs, phantom), _, DT = _edge_operator(grid)
    uj = np.where(phantom, 0.0, np.take(X, np.where(phantom, 0, dst), -1))
    diffs = (uj - np.take(X, src, -1)) / hs
    emeas = np.full(src.size, grid.cell_measure)
    Be = B[..., src]
    val = np.sum(Be * np.abs(diffs) ** m * emeas, axis=-1) / m \
        if value else None
    if m == 2.0:
        force = Be * diffs * emeas
    else:
        force = Be * np.abs(diffs) ** (m - 2.0) * diffs * emeas
    return val, (DT @ force.T).T


def reference_energy1(spec, grid, x, value=True):
    hd = grid.cell_measure
    if spec.kind == "quadratic":
        val = 0.5 * spec.gamma * hd * _rowdot(x, x) if value else None
        return val, spec.gamma * hd * x
    if spec.kind == "lv_quadratic":
        n = grid.n_nodes
        Y = x.reshape(-1, n)
        Dc = np.tile([spec.D1, spec.D2], x.shape[0])
        Fc = np.tile([spec.F1, spec.F2], x.shape[0])
        ev, eg = reference_edge_energy(grid, Y, np.ones(n), 2.0, value)
        val = None
        if value:
            a = Dc * ev
            b = 0.5 * Fc * hd * _rowdot(Y, Y)
            val = a[0::2] + b[0::2] + a[1::2] + b[1::2]
        grad = Dc[:, None] * eg + Fc[:, None] * hd * Y
        return val, grad.reshape(x.shape)
    assert spec.kind == "m_laplace"
    n = grid.n_nodes
    B, C, m = _coef(spec.B, n), _coef(spec.C, n), spec.m
    val, grad = reference_edge_energy(grid, x, B, m, value)
    rob = _robin_diag(grid)
    if value:
        val = val + hd * np.sum(C * np.abs(x) ** m, axis=1) / m
        val = val + 0.5 * np.sum(rob * x * x, axis=1)
    grad += (hd * C * x if m == 2.0
             else hd * C * np.abs(x) ** (m - 2.0) * x) + rob * x
    return val, grad


def reference_kernel(problem, w, U, dt, value=True):
    N = U.shape[-2] - 1
    hd = problem.grid.cell_measure
    a, b = reference_weights(problem.epsilon, problem.T, N)
    rates = np.diff(U, axis=-2) / dt
    alph = alpha_eval(problem.dissipation, rates)
    V = U[..., 1:, :]
    v1, g1 = reference_energy1(problem.energy1, problem.grid,
                               np.ascontiguousarray(
                                   V.reshape(-1, V.shape[-1])), value)
    val = None
    if value:
        dissipation = np.sum(a[:, None] * A_eval(problem.dissipation, rates),
                             axis=(-2, -1)) * hd
        val = _sequential_sum(dissipation,
                              b * (v1.reshape(V.shape[:-1])
                                   - hd * _rowdot(w[1:], V)))
    grad = np.zeros_like(U)
    grad[..., 1:, :] = b[:, None] * (g1.reshape(V.shape) - hd * w[1:])
    time_divergence(grad[..., 1:, :], (a / dt)[:, None] * alph * hd)
    return val, grad


# ---------------------------------------------------------------------------
# bitwise comparison
# ---------------------------------------------------------------------------

# the bytes of an np.longdouble that hold its bits: 10 of the 16 of the
# x87 format (the rest is padding), all of them otherwise
_LONG_BYTES = 10 if np.finfo(np.longdouble).nmant == 63 \
    else np.dtype(np.longdouble).itemsize


def bits(a) -> np.ndarray:
    """a's bits, one row of integers per entry: int64 views for float64
    (so -0.0 is not +0.0), the significant bytes of np.longdouble."""
    a = np.ascontiguousarray(a)
    if a.dtype == np.float64:
        return a.view(np.int64)
    assert a.dtype == np.longdouble
    return a.view(np.uint8).reshape(*a.shape, -1)[..., :_LONG_BYTES]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


GRIDS = {
    (1, "neumann"): dict(dim=1, shape=(7,), spacing=(0.2,)),
    (1, "dirichlet"): dict(dim=1, shape=(7,), spacing=(0.2,),
                           boundary="dirichlet"),
    (1, "robin"): dict(dim=1, shape=(7,), spacing=(0.2,),
                       boundary="robin", robin_b=0.7),
    (1, "periodic"): dict(dim=1, shape=(7,), spacing=(0.2,),
                          boundary="periodic", domain_kind="torus"),
    # two spacings, so that the edges divide by an array of them
    (2, "neumann"): dict(dim=2, shape=(3, 4), spacing=(0.5, 0.25),
                         domain_kind="rectangle"),
    (2, "dirichlet"): dict(dim=2, shape=(3, 4), spacing=(0.5, 0.25),
                           boundary="dirichlet", domain_kind="rectangle"),
    (2, "robin"): dict(dim=2, shape=(3, 4), spacing=(0.5, 0.25),
                       boundary="robin", robin_b=0.7,
                       domain_kind="rectangle"),
    (2, "periodic"): dict(dim=2, shape=(3, 4), spacing=(0.5, 0.25),
                          boundary="periodic", domain_kind="torus"),
}


def _stack(rng, initial, N, rows=3):
    """A row stack of trajectories pinned at initial, with exact zeros of
    both signs among its entries. Node 1 of row 0 is +0.0, -0.0, +0.0 at
    knots 1-3: its rates are -0.0 and +0.0, so the flux difference at knot
    2 leaves the sign of the zero b_2 (g1 - hd w) there, which -0.0 in
    both g1 (a quadratic energy) and w turns to +0.0."""
    U = initial + np.cumsum(0.3 * rng.standard_normal(
        (rows, N + 1, initial.size)), axis=1)
    U[:, 0] = initial
    U[0, 1:4, 1] = 0.0, -0.0, 0.0
    U[0, 2, 0] = -0.0
    U[1, 3, 1:3] = 0.0
    U[2, 1:, 0] = U[2, 0, 0]  # a node at rest: rates of exactly 0
    return U


def _duals(rng, N, n):
    zero = np.zeros((N + 1, n))
    signed = zero.copy()
    signed[2, 1] = signed[N, 0] = -0.0
    return {"zero": zero, "signed_zero": signed,
            "nonzero": rng.standard_normal((N + 1, n))}


@pytest.mark.parametrize("dim,boundary", list(GRIDS))
def test_lean_kernel_is_bitwise_the_full_term_kernel(dim, boundary):
    """Every combination of m in {2, 3}, C in {0, 0.5, nodal with zeros},
    B in {1, 2, nodal}, p in {2, 3} and a dual w of +0.0, with -0.0
    entries, or nonzero: the gradient of value=False and value=True and
    the value match the reference on a row stack, in float64 and in
    np.longdouble."""
    grid = build_grid(**GRIDS[dim, boundary])
    n, N = grid.n_nodes, 5
    rng = np.random.default_rng(41)
    initial = 1.0 + 0.3 * rng.standard_normal(n)
    U = _stack(rng, initial, N)
    C_nodal = np.where(np.arange(n) % 3 == 0, 0.0, 0.5 + rng.random(n))
    B_nodal = 0.5 + rng.random(n)
    duals = _duals(rng, N, n)
    for m, C, B, p in itertools.product((2.0, 3.0), (0.0, 0.5, C_nodal),
                                        (1.0, 2.0, B_nodal), (2.0, 3.0)):
        problem = WedProblem(
            grid=grid, dissipation=DissipationSpec(p=p),
            energy1=EnergySpec(kind="m_laplace", m=m, B=B, C=C),
            energy2=ConcaveSpec(), reaction=ReactionSpec(), T=1.0,
            epsilon=0.2, initial=initial)
        for w in duals.values():
            for dtype in (np.float64, np.longdouble):
                X = U.astype(dtype)
                want_val, want = reference_kernel(problem, w, X, 0.2)
                val, grad = wed._wed_kernel(problem, w, X, 0.2)
                assert_bitwise(grad, want)
                assert_bitwise(np.asarray(val), np.asarray(want_val))
                assert_bitwise(wed._wed_kernel(problem, w, X, 0.2,
                                               value=False)[1], want)


@pytest.mark.parametrize("spec", [
    EnergySpec(kind="quadratic", gamma=1.5),
    EnergySpec(kind="lv_quadratic", D1=1.0, D2=0.0, F1=0.3, F2=0.0),
    EnergySpec(kind="m_laplace", m=4.0, B=1.0, C=0.0),
], ids=["quadratic", "lv_quadratic", "m4_C0"])
def test_other_energies_are_bitwise_the_full_term_kernel(spec):
    """The quadratic and two-species kinds, whose edge term has B = 1,
    and m = 4, where the C term stays in although C = 0."""
    grid = build_grid(dim=1, shape=(6,), spacing=(0.2,))
    n_dof = 2 * grid.n_nodes if spec.kind == "lv_quadratic" \
        else grid.n_nodes
    rng = np.random.default_rng(5)
    initial = 1.0 + 0.3 * rng.standard_normal(n_dof)
    problem = WedProblem(grid=grid, dissipation=DissipationSpec(),
                         energy1=spec, energy2=ConcaveSpec(),
                         reaction=ReactionSpec(), T=1.0, epsilon=0.2,
                         initial=initial)
    U = _stack(rng, initial, 5)
    for w in _duals(rng, 5, n_dof).values():
        for dtype in (np.float64, np.longdouble):
            X = U.astype(dtype)
            want_val, want = reference_kernel(problem, w, X, 0.2)
            val, grad = wed._wed_kernel(problem, w, X, 0.2)
            assert_bitwise(grad, want)
            assert_bitwise(np.asarray(val), np.asarray(want_val))


def test_rows_that_are_not_finite_stay_so():
    """The terms left out are exact only on finite rows; a row with an
    infinite or NaN entry has a gradient that is not finite either way.
    At m = 4 the C term stays in for C = 0: on a constant row of 1e200,
    where |x|^2 overflows, it makes the reference's gradient NaN, and so
    the lean one's."""
    grid = build_grid(dim=1, shape=(6,), spacing=(0.2,), boundary="robin",
                      robin_b=0.5)
    rng = np.random.default_rng(8)
    for m in (2.0, 4.0):
        problem = WedProblem(
            grid=grid, dissipation=DissipationSpec(),
            energy1=EnergySpec(kind="m_laplace", m=m, B=1.0, C=0.0),
            energy2=ConcaveSpec(), reaction=ReactionSpec(), T=1.0,
            epsilon=0.2, initial=np.full(6, 1e200))
        U = np.full((3, 6, 6), 1e200)
        U[1, 3, 2] = np.inf
        U[2, 4, 1] = np.nan
        w = rng.standard_normal((6, 6))
        with np.errstate(all="ignore"):
            want = reference_kernel(problem, w, U, 0.2, value=False)[1]
            grad = wed._wed_kernel(problem, w, U, 0.2, value=False)[1]
        finite = np.isfinite(grad).all(axis=(1, 2))
        assert np.array_equal(finite, np.isfinite(want).all(axis=(1, 2)))
        assert not finite[1:].any()
        assert finite[0] == (m == 2.0)
        assert_bitwise(grad[finite], want[finite])


def test_polish_path_is_bitwise_the_full_term_kernel(monkeypatch):
    """The 1D ladder continuation (n = 512, N = 64, schedule [0.2, 0.1,
    0.05]), whose every level stalls in float64 and is polished in
    np.longdouble, solved once with the lean kernel and once with the
    reference patched into wed: the same trajectories, bit for bit, and
    the same reports."""
    if not _EXTENDED:
        pytest.skip("np.longdouble is no wider than float64: no polish")
    problem = heat_problem(n=512, spacing=1.0 / 512)

    def solve():
        return wed.eps_continuation(problem, [0.2, 0.1, 0.05], 64)

    lean = solve()
    monkeypatch.setattr(wed, "_wed_kernel", lambda problem, w, U, dt,
                        value=True, plan=None:
                        reference_kernel(problem, w, U, dt, value))
    full = solve()
    notes = [r.inner_reports[-1].notes for r in lean.reports]
    assert notes == [("longdouble_polish_steps=1",)] * 3
    assert len(lean.family) == len(full.family) == 3
    for (e1, t1), (e2, t2) in zip(lean.family, full.family):
        assert e1 == e2
        assert_bitwise(t1.values, t2.values)
    for r1, r2 in zip(lean.reports, full.reports):
        assert r1.residual_history == r2.residual_history
        for i1, i2 in zip(r1.inner_reports, r2.inner_reports):
            assert (i1.iterations, i1.gradient_norm, i1.converged,
                    i1.notes) == (i2.iterations, i2.gradient_norm,
                                  i2.converged, i2.notes)
