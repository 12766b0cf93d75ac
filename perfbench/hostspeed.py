"""A fixed reference computation that tracks the host's CPU speed.

On a shared VM the same work can take 1.5x longer for seconds to minutes
at a time (see README.md, "Host noise"), which moves every wall-clock time
of a run together. The benchmark runs this reference between consecutive
commands and scales each command's time by the reference's nominal time
over its measured time next to the command. The reference does the kind
of work the program does (batched 3x3 solves, einsum over view stacks, a
Python loop) on fixed inputs and does not use `intact`, so a change to
the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of one reference computation on this host in its fast state
# (Intel Xeon VM at 2.1 GHz, one thread); only scales the reported values.
NOMINAL_S = 0.014
# One reading is the median of this many timings: a single 14 ms timing
# strays by 10 % or more within one host phase.
SAMPLES = 3


class Reference:
    """Fixed inputs shaped like a latent sweep: 9 views, 400 rows, d=3."""

    def __init__(self):
        m, n, d = 9, 400, 3
        rng = np.random.default_rng(0)
        G = rng.normal(size=(m, d, d))
        self.G = G @ G.transpose(0, 2, 1) + np.eye(d)
        self.Q = rng.random((m, n))
        self.P = rng.normal(size=(m, n, d))
        self.X = rng.normal(size=(n, d))
        self.eye = np.eye(d)

    def __call__(self) -> float:
        """Seconds one reference computation takes now (median of SAMPLES)."""
        return statistics.median(self._once() for _ in range(SAMPLES))

    def _once(self) -> float:
        t = time.perf_counter()
        for _ in range(50):
            H = np.einsum("vn,vij->nij", self.Q, self.G) + self.eye
            rhs = np.einsum("vn,vnd->nd", self.Q, self.P)
            L = np.linalg.cholesky(H)
            np.linalg.solve(L, rhs[..., None])
            np.einsum("nd,vde,ne->vn", self.X, self.G, self.X)
            acc = 0.0
            for i in range(200):
                acc += i * 0.5
        return time.perf_counter() - t
