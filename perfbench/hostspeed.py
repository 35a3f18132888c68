"""Host speed probe: states the wall time of a timed block in seconds of a
reference host.

The benchmark shares its host's cores with other tenants. When one of them
is busy, every kind of work in this process -- numpy's own loops, BLAS
GEMMs, passes over arrays larger than the cache and the interpreter alike
-- runs up to 1.7x slower, in stretches of a few seconds to several
minutes. Ten runs of the same code then spread by up to 30% in wall time,
however long each run is.

A probe is a fixed piece of work of those four kinds, about 18 ms long. It
runs just before and just after each timed block, and the block's wall time
is scaled by ``REFERENCE_S`` over the mean of the two probes. The probe
never calls the program, so a change to the program moves the scaled time
exactly as it moves the wall time; only the host's speed is taken out.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

# The probe's time on an idle 2-vCPU x86-64 VM (Intel Xeon, numpy 2.4 with
# OpenBLAS 0.3.31 on one thread): the host the scaled times are stated for.
REFERENCE_S = 0.0185


class Probe:
    """Times the fixed work; keeps every sample it took."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._ai = rng.integers(-8, 8, (2048, 216))
        self._bi = rng.integers(-8, 8, (216, 24))
        self._af = rng.standard_normal((1024, 216)).astype(np.float32)
        self._bf = rng.standard_normal((216, 64)).astype(np.float32)
        self._big = np.ones(1 << 21, np.float32)      # 8 MiB
        self._big_out = np.empty_like(self._big)
        self.samples: list[float] = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._ai @ self._bi                 # numpy's own int64 loop
        for _ in range(20):
            self._af @ self._bf             # float32 BLAS GEMM
        for _ in range(4):
            np.multiply(self._big, 1.5, out=self._big_out)   # memory-bound pass
        acc = 0
        for k in range(100_000):            # interpreter
            acc += k
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    @contextlib.contextmanager
    def timed(self):
        """Times the block between two probes; the yielded clock's ``wall``
        and ``ref`` (reference seconds) are set when the block ends."""
        clock = Clock()
        before = self()
        t0 = time.perf_counter()
        try:
            yield clock
        finally:
            clock.wall = time.perf_counter() - t0
            clock.ref = clock.wall * REFERENCE_S * 2.0 / (before + self())


class Clock:
    """Wall seconds and reference seconds of one timed block."""

    wall = 0.0
    ref = 0.0
