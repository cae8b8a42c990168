"""Damped Newton iteration shared by the trajectory solvers.

The objective values here span many orders of magnitude across the time
horizon (the weight decays like e^{-t/eps}), so line searches on the raw
objective are numerically blind to improvements in the tail. The
globalization below backtracks on the ROW-SCALED residual max-norm
instead: each gradient row is divided by its weight scale, making the
acceptance test scale-free. Termination uses the same scaled norm.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


def newton_solve(x0: np.ndarray, grad_fn, hess_fn, scale: np.ndarray,
                 tol: float = 1e-10, max_iter: int = 100,
                 min_step: float = 1e-12):
    """Minimize a smooth convex objective given by its gradient and Hessian
    callbacks. Returns (x, scaled_residual, iterations, converged).

    grad_fn(x) -> flat gradient; hess_fn(x) -> sparse SPD(ish) Hessian;
    scale -> positive per-row weights for the residual norm.
    """
    x = x0.copy()
    g = grad_fn(x)
    res = float(np.max(np.abs(g / scale)))
    it = 0
    mu = 0.0  # Levenberg shift, raised only on factorization trouble
    while it < max_iter and res > tol:
        H = hess_fn(x)
        step = None
        for _ in range(8):
            try:
                Hmu = H if mu == 0.0 else H + mu * sp.identity(
                    H.shape[0], format="csr")
                step = splu(Hmu.tocsc()).solve(-g)
                if np.all(np.isfinite(step)):
                    break
            except RuntimeError:
                pass
            mu = max(mu * 10.0, 1e-14 * float(np.max(np.abs(H.diagonal()))),
                     1e-300)
            step = None
        if step is None:
            break
        a = 1.0
        accepted = False
        while a >= min_step:
            gnew = grad_fn(x + a * step)
            rnew = float(np.max(np.abs(gnew / scale)))
            if rnew <= (1.0 - 1e-4 * a) * res:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            # take the smallest damped step anyway; progress may be below
            # the acceptance threshold but the iteration must not cycle
            a = min_step
            gnew = grad_fn(x + a * step)
            rnew = float(np.max(np.abs(gnew / scale)))
            if rnew >= res:
                break
        x = x + a * step
        g = gnew
        res = rnew
        it += 1
        if accepted and a == 1.0 and mu > 0.0:
            mu = 0.0
    return x, res, it, res <= tol
