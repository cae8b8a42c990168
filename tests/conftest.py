"""Shared builders for the test suite plus the acceptance summary hook.

The acceptance tests record one line per criterion; the terminal-summary
hook prints them after the test run so they appear even when pytest
captures stdout.
"""

import numpy as np

from wedflow import (ConcaveSpec, DissipationSpec, EnergySpec, ReactionSpec,
                     WedProblem, build_grid)

_ACCEPTANCE_LINES = []


def acceptance_line(text: str) -> None:
    _ACCEPTANCE_LINES.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)


def count_newton(monkeypatch, module) -> dict:
    """Patch module.newton_solve to count its solves, Newton iterations,
    gradient calls (`grads`), the trial rows those calls evaluate (`rows`)
    and the rows among them bitwise equal to the iterate (`repeats`, see
    watch_repeats); returns the live counts."""
    counts = dict(solves=0, iterations=0, grads=0, rows=0, repeats=0)
    real = module.newton_solve

    def counted(x0, grad_fn, hess_fn, scale, **options):
        out = real(x0, *watch_repeats(grad_fn, hess_fn, counts), scale,
                   **options)
        counts["solves"] += 1
        counts["iterations"] += out[2]
        return out

    monkeypatch.setattr(module, "newton_solve", counted)
    return counts


def watch_repeats(grad_fn, hess_fn, counts: dict) -> tuple:
    """Newton callbacks that add to counts: `grads` and `rows` per gradient
    call, and `repeats`, the rows bitwise equal (int64 views, so -0.0 is
    not +0.0) to the iterate, the point of the last Hessian call; a row of
    another dtype (the np.longdouble rows of an extended-precision polish)
    is never one."""
    iterate = []

    def grad(X):
        counts["grads"] += 1
        counts["rows"] += X.shape[0]
        if iterate and X.dtype == iterate[0].dtype:
            counts["repeats"] += int(np.sum(np.all(
                X.view(np.int64) == iterate[0].view(np.int64), axis=1)))
        return grad_fn(X)

    def hess(x):
        iterate[:] = [x.copy()]
        return hess_fn(x)

    return grad, hess


def assert_same_csc(A, B) -> None:
    """A and B are the same CSC matrix bit for bit: column pointers, row
    indices and their dtype, the bytes of the values, and sorted row
    indices in both."""
    assert A.format == B.format == "csc" and A.shape == B.shape
    assert A.indptr.dtype == B.indptr.dtype
    assert A.indices.dtype == B.indices.dtype
    assert A.has_sorted_indices and B.has_sorted_indices
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.dtype == B.data.dtype
    assert A.data.tobytes() == B.data.tobytes()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b have the same dtype, shape and bits. float64 is
    compared byte for byte. np.longdouble in the x87 format pads each
    value with bytes that hold none of its bits, so it is compared by
    value and sign (-0.0 is not +0.0), NaN matching NaN."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == np.float64:
        return a.tobytes() == b.tobytes()
    return bool(np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a), np.signbit(b)))


def line_grid(n: int, boundary: str = "neumann", spacing: float = None):
    if spacing is None:
        spacing = 1.0 / (n - 1)
    return build_grid(dim=1, shape=(n,), spacing=(spacing,),
                      boundary=boundary)


def point_grid():
    return build_grid(dim=1, shape=(1,), spacing=(1.0,),
                      boundary="neumann", domain_kind="point")


def scalar_decay_problem(eps: float = 0.1) -> WedProblem:
    """1-dof problem whose causal limit is u' + u = 0, u(0) = 1."""
    return WedProblem(grid=point_grid(),
                      dissipation=DissipationSpec(p=2.0),
                      energy1=EnergySpec(kind="quadratic", gamma=1.0),
                      energy2=ConcaveSpec(),
                      reaction=ReactionSpec(),
                      T=1.0, epsilon=eps, initial=np.ones(1))


def heat_problem(n: int = 16, eps: float = 0.2, T: float = 1.0,
                 boundary: str = "neumann", u0=None,
                 spacing: float = None) -> WedProblem:
    """Quadratic edge coupling, unit conductivity: the discrete heat flow."""
    grid = line_grid(n, boundary=boundary, spacing=spacing)
    if u0 is None:
        x = grid.coords()[:, 0]
        u0 = 1.0 + 0.3 * np.cos(np.pi * x / x.max())
    return WedProblem(grid=grid,
                      dissipation=DissipationSpec(p=2.0),
                      energy1=EnergySpec(kind="m_laplace", m=2.0, B=1.0,
                                         C=0.0),
                      energy2=ConcaveSpec(),
                      reaction=ReactionSpec(),
                      T=T, epsilon=eps, initial=np.asarray(u0, dtype=float))
