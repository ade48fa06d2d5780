"""Machine-speed probe shared by the benchmark's parent and worker processes."""

from __future__ import annotations

import time

import numpy as np


class SpeedProbe:
    """A fixed numpy kernel timed next to every job.

    The host is shared: the same code runs up to 1.8x slower for seconds at
    a time.  Each job's time is scaled by REF_NOMINAL_S over the mean of the
    probe times just before and after it, giving seconds at the reference
    speed; the probe is benchmark code, so a change to trocap leaves it
    alone.  Raw times are reported next to the scaled ones.

    Import numpy only after the environment (BLAS threads) is set."""

    REF_NOMINAL_S = 0.0091  # the probe's median on the reference machine

    def __init__(self):
        rng = np.random.default_rng(12345)
        g = rng.standard_normal((8, 6, 6)) + 1j * rng.standard_normal((8, 6, 6))
        self.herm = [(m + m.conj().T) / 2 for m in g]
        self.tall = rng.standard_normal((300, 80)) + 1j * rng.standard_normal((300, 80))
        # bound now, so a traced pass (which rebinds numpy.linalg) leaves the probe alone
        self.eigh, self.svd = np.linalg.eigh, np.linalg.svd
        self()  # the first call pays LAPACK's set-up

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for i in range(150):
            h = self.herm[i % 8]
            w, v = self.eigh(h)
            m = (v * np.log2(np.abs(w) + 1.0)) @ v.conj().T
            float(np.trace(m @ h).real)
        self.svd(self.tall, full_matrices=False)
        return time.perf_counter() - t0

    def factor(self, before: float, after: float) -> float:
        """What a time measured between probes `before` and `after` is
        multiplied by to give seconds at the reference speed."""
        return 2 * self.REF_NOMINAL_S / (before + after)
