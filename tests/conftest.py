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
    gradient calls (`grads`) and the trial rows those calls evaluate
    (`rows`); returns the live counts."""
    counts = dict(solves=0, iterations=0, grads=0, rows=0)
    real = module.newton_solve

    def counted(x0, grad_fn, hess_fn, scale, **options):
        def grad(X):
            counts["grads"] += 1
            counts["rows"] += X.shape[0]
            return grad_fn(X)
        out = real(x0, grad, hess_fn, scale, **options)
        counts["solves"] += 1
        counts["iterations"] += out[2]
        return out

    monkeypatch.setattr(module, "newton_solve", counted)
    return counts


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
