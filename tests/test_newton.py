"""The damped Newton engine shared by the trajectory solvers."""

import numpy as np
import scipy.sparse as sp

from wedflow._newton import newton_solve


def test_full_step_solve_reuses_the_line_search_gradient():
    A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    calls = []

    def grad_fn(x):
        calls.append(x.copy())
        return A @ x - b

    x, res, iters, converged = newton_solve(np.zeros(2), grad_fn,
                                            lambda x: A, np.ones(2))
    assert converged and iters == 1
    assert np.allclose(A @ x, b, atol=1e-14)
    # the start point and the accepted full step, nothing recomputed
    assert len(calls) == 2
