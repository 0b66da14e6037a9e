"""Reference computations that measure how fast the host runs right now.

    calibrate.py KIND N M   (started by worker.py; one request per input line)

On a shared virtual machine the CPU time of the same work moves by tens of
percent within minutes, as the host's load changes, and memory-bound work
moves more than work that stays in the caches. This process times a fixed
computation shaped and sized like the workload's dominant layer whenever a
line arrives on standard input, and answers with its CPU seconds on one
line. N and M are the node and edge counts of the workload's graph.

    sweep   propagation sweeps over N x N arrays on a random graph with M
            edges: sparse times dense products, the element-wise division,
            the mirror of the upper triangle and the sup-norm change
    loop    a Python rejection loop over a set of pairs, like the AUC
            sampler, and a dense N x N linear solve, like Katz

worker.py divides each pass by the mean of the samples taken just before
and just after it. The computations are the benchmark's own code, so no
change to the program moves them, and they run in their own process, so
their memory never shows in the worker's peak RSS.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import scipy.sparse as sp

# On the 2-vCPU machine the benchmark was built on, the host's speed moves
# within seconds, so a sample should average over about a second: a sweep
# sample takes 1 to 1.5 s there, a loop sample 0.4 s (its workload's passes
# are shorter and steadier).
SWEEP_ENTRIES = 24_000_000  # sweeps per sample = this / N^2, at least 2
LOOP_DRAWS = 300_000


class Calibrator:
    def __init__(self, kind: str, n: int, m: int) -> None:
        rng = np.random.default_rng(20150216)
        self.kernel = {"sweep": self._sweeps, "loop": self._loop}[kind]
        self.n = n
        rows = rng.integers(0, n, size=m)
        cols = rng.integers(0, n, size=m)
        half = sp.coo_matrix((np.ones(m), (rows, cols)), shape=(n, n))
        self.adjacency = (half + half.T).tocsr()
        self.edge_prob = self.adjacency * 0.5
        self.scores = rng.random((n, n))
        self.denom = rng.random((n, n)) + 0.5
        self.sweeps = max(2, round(SWEEP_ENTRIES / n**2))
        pairs = rng.integers(0, n, size=(2 * m, 2))
        self.forbidden = {(int(min(a, b)), int(max(a, b))) for a, b in pairs}
        self.draws = rng.integers(0, n, size=(2, LOOP_DRAWS))
        if kind == "loop":
            self.system = np.eye(n) - 0.01 * self.adjacency.toarray()

    def _sweeps(self) -> None:
        scores = self.scores
        for _ in range(self.sweeps):
            ws = self.edge_prob @ scores
            cross = self.adjacency @ ws.T
            numerator = cross + cross.T
            out = np.zeros_like(scores)
            np.divide(numerator, self.denom, out=out, where=self.denom > 0)
            out *= 0.8
            np.fill_diagonal(out, 1.0)
            lower = np.tril_indices(self.n, -1)
            out[lower] = out.T[lower]
            float(np.max(np.abs(out - scores)))
            scores = out

    def _loop(self) -> None:
        lo = np.minimum(self.draws[0], self.draws[1])
        hi = np.maximum(self.draws[0], self.draws[1])
        out = np.empty(LOOP_DRAWS, dtype=np.int64)
        filled = 0
        for u, v in zip(lo.tolist(), hi.tolist()):
            if u == v or (u, v) in self.forbidden:
                continue
            out[filled] = u
            filled += 1
        np.linalg.solve(self.system, np.eye(self.n))

    def sample(self) -> float:
        """CPU seconds of one run of the computation."""
        start = time.process_time()
        self.kernel()
        return time.process_time() - start


def main(kind: str, n: int, m: int) -> int:
    calibrator = Calibrator(kind, n, m)
    calibrator.sample()  # warm-up
    for _ in sys.stdin:
        print(repr(calibrator.sample()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
