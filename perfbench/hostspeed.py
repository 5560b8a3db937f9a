"""A fixed reference task that measures the host's speed between CLI runs.

On a host whose cores are shared with other work, the same computation
can take tens of percent longer or shorter from one minute to the next,
for interpreted Python and sparse LU alike, and in CPU time as in wall
time. Each processor's speed can wander on its own, so the task runs an
equal share on each processor this process may use, pinned there in turn.
run.py runs it between the CLI processes it times and scales the run's
times by REFERENCE_S over the mean reference time of the run. The times it
reports are thus those of a host that runs the reference task in
REFERENCE_S seconds; a change to pmcgraph moves them, a slower or faster
minute of the host much less.

The task's two halves stand for the two kinds of work in pmcgraph:
interpreted Python (expression evaluation, the callbacks of `quad`) and a
sparse LU solve by scipy's `spsolve`, which the solver calls.
"""

import os
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

# median seconds of ReferenceTask.run() on the host the benchmark was
# tuned on (2 vCPU Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
REFERENCE_S = 0.7


class ReferenceTask:
    LOOP = 1_800_000    # interpreted iterations, about half the task
    GRID = 90           # 2-D Laplacian on GRID x GRID unknowns
    SOLVES = 8          # spsolve calls, about the other half

    def __init__(self):
        n = self.GRID
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(lap, eye) + sp.kron(eye, lap)
                       + 0.1 * sp.identity(n * n)).tocsc()
        self.rhs = np.ones(n * n)
        spsolve(self.matrix, self.rhs)  # warm up the first call's set-up

    def run(self):
        """-> seconds one fixed batch of Python and sparse LU work took,
        split evenly over the processors; the affinity is restored after."""
        cpus = sorted(os.sched_getaffinity(0))
        loop, solves = self.LOOP // len(cpus), max(1, self.SOLVES // len(cpus))
        total = 0.0
        t0 = time.perf_counter()
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                x, table = 0.0, {"a": 1.5}
                for i in range(loop):
                    x += (i % 7) * table["a"] - x * 1e-6
                total += x
                for _ in range(solves):
                    total += float(spsolve(self.matrix, self.rhs)[0])
        finally:
            os.sched_setaffinity(0, cpus)
        elapsed = time.perf_counter() - t0
        if not np.isfinite(total):
            raise RuntimeError("reference task produced a non-finite result")
        return elapsed
