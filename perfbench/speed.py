"""Machine-speed control for the end-to-end times.

On a shared machine the speed of the benchmark's core drifts by 20% and
more, in slow and fast periods lasting seconds to minutes, which no number
of passes within a 36 s run averages out. A fixed control workload, timed
right before and right after each operation, measures that speed where the
operation ran. Its mix resembles wedflow's: scipy.sparse assembly of a
small path-graph Hessian (COO to CSR, diagonal update, block diagonal,
product), a sparse LU of a small 2D Laplacian and its solve, a 24x24
matrix product, numpy ufuncs on 400 values, and interpreter work. The
control calls nothing in wedflow, so no change to the program moves it.

`pass_s` scales each operation's wall time by REFERENCE_S over the mean of
its two control samples: the time the operation would take at the speed
the reference was taken at. On a 2-core x86_64 virtual machine, taking
three passes in one process as one estimate, this cut the coefficient of
variation of the estimates from 0.075 to 0.024 on `scenarios` (36
passes), from 0.066 to 0.019 on `large_grid` and from 0.060 to 0.029 on
`verify` (18 passes each). REFERENCE_S is the median of 200 samples on
that machine, rounded (0.068-0.081 s in three measurements; Python
3.11.7, numpy 2.4.6, scipy 1.17.1). Its value only sets the scale of
`pass_s`; re-measure it with `python3 perfbench/speed.py` whenever the
control changes.
"""

from __future__ import annotations

import os
import statistics
import time

if __name__ == "__main__":
    # as in run.py: one BLAS/OpenMP thread, set before numpy is imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

REFERENCE_S = 0.07
LU_REPS = 120
ASSEMBLY_REPS = 40


class Control:
    def __init__(self) -> None:
        n = 12
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self.a = (sp.kron(lap, eye) + sp.kron(eye, lap)
                  + sp.eye(n * n)).tocsc()
        rng = np.random.default_rng(0)
        self.b = rng.standard_normal(n * n)
        self.m = rng.standard_normal((24, 24))
        self.x = rng.standard_normal(400)
        self.y = rng.standard_normal(24)
        self.src = np.arange(23)
        self.dst = self.src + 1
        self.sample()  # warm-up

    def _assemble(self) -> None:
        src, dst, y = self.src, self.dst, self.y
        w = np.abs(y[src] - y[dst]) ** 0.5 + 1.0
        h = sp.coo_matrix((np.concatenate([w, w, -w, -w]),
                           (np.concatenate([src, dst, src, dst]),
                            np.concatenate([src, dst, dst, src]))),
                          shape=(24, 24)).tocsr()
        h = h + sp.diags(y ** 2)
        sp.block_diag((h, h), format="csr") @ np.concatenate([y, y])

    def sample(self) -> float:
        """Seconds for one fixed batch of control work."""
        t0 = time.perf_counter()
        for _ in range(LU_REPS):
            splu(self.a).solve(self.b)
            self.m @ self.m
            np.sin(self.x) * self.x + np.cumsum(self.x)
            {k: k * 2.0 for k in range(100)}
        for _ in range(ASSEMBLY_REPS):
            self._assemble()
        return time.perf_counter() - t0


if __name__ == "__main__":
    control = Control()
    samples = [control.sample() for _ in range(200)]
    q = statistics.quantiles(samples, n=4)
    print(f"control sample: median {statistics.median(samples):.6f} s, "
          f"quartiles {q[0]:.6f} / {q[2]:.6f} s over {len(samples)}")
