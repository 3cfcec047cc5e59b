"""Machine-speed reference for the time metrics.

The 2-vCPU machine this benchmark was built on changes speed by up to 2×
over tens of seconds (measured: the same cold decompose takes 0.7 s or
1.4 s depending on when it runs; steal time stays below 1%, so the cause is
outside the container).  No statistic taken inside a 30 s run removes a
swing that slow, so every time metric is scaled to a fixed machine speed:
a fixed reference computation — the benchmark's own code, never the
program's — is timed next to the measured operations, and each measured
time ``t`` is reported as ``t × REFERENCE_S / r``, where ``r`` is the
reference time measured around it.  On the machine above this cut the
coefficient of variation of medians of four decompose times from 14–15% to
5–7%.  The raw times are printed too.

The kernel mixes what the program spends its time on: an interpreter loop,
sort-based numpy work, and a SuperLU factorization and solve of a sparse
Laplacian.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: one reference sample's time at nominal speed (its fast state on the
#: machine above); scaled times are "seconds on a machine where one sample
#: takes this long"
REFERENCE_S = 0.060
#: kernel runs per sample (one run takes ~20 ms; three keep the sample's own
#: noise small)
KERNEL_RUNS = 3


class Reference:
    """Fixed inputs and the timed reference kernel."""

    def __init__(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(20060606)
        self.items = list(range(40_000))
        self.ints = rng.integers(0, 1 << 20, 60_000)
        self.floats = rng.random(60_000)
        side = 48
        path = sp.diags([-np.ones(side - 1), 2.0 * np.ones(side), -np.ones(side - 1)],
                        [-1, 0, 1])
        eye = sp.identity(side)
        self.laplacian = (sp.kron(path, eye) + sp.kron(eye, path)
                          + 1e-3 * sp.identity(side * side)).tocsc()
        self.rhs = rng.random(side * side)
        self.samples: list[float] = []
        self._kernel()  # first run loads scipy's factorization code

    def _kernel(self) -> float:
        from scipy.sparse.linalg import splu

        acc = 0
        for v in self.items:
            acc += v & 7
        np.unique(self.ints)
        np.cumsum(np.sort(self.floats))
        x = splu(self.laplacian).solve(self.rhs)
        for _ in range(10):
            x = self.laplacian @ x
        return acc + float(x[0])

    def sample(self) -> float:
        """Time one sample; the time is also kept in ``samples``."""
        t0 = perf_counter()
        for _ in range(KERNEL_RUNS):
            self._kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference samples ``before`` and
    ``after``, at nominal speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
