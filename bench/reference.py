"""Reference tasks that measure the machine's speed during a run.

The machine this benchmark was built on is shared, and its speed drifts by
up to a fifth over minutes, for compute and for imports alike. So each run
interleaves its rounds and set-up samples with fixed reference tasks that
use only the interpreter, numpy and scipy, never galpha, and the reported
times are scaled by NOMINAL / (the reference's median in the run). A
program change moves the rounds and not the references; a machine that is
slower for a while moves both.

Each workload is scaled by the task whose work is most like its own:

- ``heat``: dense and banded linear algebra on 1023-vectors with a few
  small vector operations per iteration, like one stage of the heat march;
- ``analysis``: 2x2 complex numpy blocks and scalar Python arithmetic, like
  the spectral kernel and the n = 1 integrator;
- ``import``: a fresh interpreter importing numpy, scipy.linalg, argparse
  and json, like a CLI command or a set-up (run by the parent with
  IMPORT_CODE).

NOMINAL holds each task's median on the reference machine (2 cores,
CPython 3.11.7, numpy 2.4.6, scipy 1.17.1), so a scaled time reads in that
machine's seconds. ``python3 bench/reference.py`` measures them again; run
it with OPENBLAS_NUM_THREADS=1, as the benchmark does.
"""

from time import perf_counter

NOMINAL = {"heat": 0.115, "analysis": 0.060, "import": 0.50}
IMPORT_CODE = "import numpy, scipy.linalg, argparse, json"
# which task scales which workload's rounds; set-up is always scaled by "import"
ROUND_REFERENCE = {"heat-march": "heat", "certify": "analysis", "cli-examples": "import"}


class HeatKernel:
    def __init__(self):
        import numpy as np
        from scipy.linalg import cho_solve_banded, cholesky_banded

        n = 1023
        self.np, self.solve = np, cho_solve_banded
        self.A = np.diag(np.full(n, 4.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        ab = np.zeros((2, n))
        ab[0, 1:] = 1.0
        ab[1, :] = 4.0
        self.factor = cholesky_banded(ab)
        self.index = np.arange(n)

    def __call__(self):
        np, A = self.np, self.A
        t0 = perf_counter()
        v = np.ones(A.shape[0])
        for _ in range(120):
            w = A @ v
            x = self.solve((self.factor, False), A @ w - w)
            f = np.zeros(v.size)
            np.add.at(f, self.index, 0.5 * x)
            v = (f + v) / np.abs(f).max()
        return perf_counter() - t0


class AnalysisKernel:
    def __init__(self):
        import numpy as np

        self.np = np

    def __call__(self):
        np = self.np
        t0 = perf_counter()
        radius = 0.0
        for i in range(9000):
            th = complex(1.0 + 1e-3 * i, 0.5)
            b = np.array([[1.0, 0.5], [-th, 1.0 + 0.3 * th]], dtype=complex) / (1.0 + th)
            tr = b[0, 0] + b[1, 1]
            det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
            s = np.sqrt(tr * tr - 4.0 * det)
            r = (tr + s) / 2.0 if abs(tr + s) >= abs(tr - s) else (tr - s) / 2.0
            radius = max(radius, abs(r))
        return perf_counter() - t0


KERNELS = {"heat": HeatKernel, "analysis": AnalysisKernel}


def main():
    """Print each task's median over fresh runs: the figures NOMINAL holds."""
    import statistics
    import subprocess
    import sys

    for kind, cls in KERNELS.items():
        task = cls()
        print("%-9s %.4f s" % (kind, statistics.median(task() for _ in range(21))))
    times = []
    for _ in range(11):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True)
        times.append(perf_counter() - t0)
    print("%-9s %.4f s" % ("import", statistics.median(times[1:])))


if __name__ == "__main__":
    main()
