"""A host-speed reference measured in the same run as the workload.

The machines this benchmark runs on share their cores with other
tenants, and the speed they give one process drifts by tens of percent
over minutes (on a 2-vCPU Xeon VM, ``infer`` measured 5942 and then
3916 samples/s in two ten-seed sets of the same code half an hour
apart).  Quartile spreads inside a run absorb seconds of interference,
not such drifts.

So every run also times a fixed reference kernel: interpreter work, a
memory-bound gather, a small GEMM, small-array numpy calls and scattered
dict lookups, all in this file and none from the program, so no change
to the program moves it.  Slices of it are
interleaved with the workload (between set-ups, rounds, pipelines,
campaigns or serve phases), and the host-time metrics are reported at
the reference speed: a time is multiplied by
``REFERENCE_MS / median slice ms``, a rate divided by it.  A host
running the kernel at half speed runs the workload at about half speed
too, and the two cancel.  The raw figures and the factor are printed
above the result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Nominal duration of one reference slice; the scaled metrics read as if
#: the kernel had taken this long (about its median on a 2-vCPU Xeon VM).
REFERENCE_MS = 12.0

_RNG = np.random.default_rng(0)
_TABLE = np.arange(1 << 20, dtype=np.int64)  # 8 MB: beyond the private caches
_INDEX = _RNG.integers(1 << 20, size=1 << 16)
_A = _RNG.random((128, 128))
_B = _RNG.random((128, 128))
_SMALL = [_RNG.random((3, 8, 8)) for _ in range(32)]
_ONES = np.ones((3, 4))
_OBJECTS = {i: 7 * i for i in range(100_000)}  # about 8 MB of dict and ints
_KEYS = _RNG.integers(100_000, size=10_000).tolist()


def reference_kernel() -> float:
    """Fixed work: an interpreter loop, a random gather, a GEMM, many
    small-array numpy calls and lookups scattered over a large dict.

    The last two have the large code and data footprint of a request
    through the serving runtime, whose latency moves with the host's
    cache pressure far more than a tight loop's does.
    """
    acc = 0.0
    for i in range(30_000):
        acc += i * 3 % 7
    acc += float(_TABLE[_INDEX].sum())
    for _ in range(4):
        acc += float((_A @ _B)[0, 0])
    for x in _SMALL:
        y = np.maximum(x.reshape(3, -1).T @ _ONES, 0.0)
        acc += float(np.argmax(np.concatenate([y.ravel(), x.ravel()[:8]])))
    for k in _KEYS:
        acc += _OBJECTS[k]
    return acc


class HostSpeed:
    """Interleaved reference slices and the clock that leaves them out.

    :meth:`now` is ``time.perf_counter`` minus the time spent in slices,
    so operation time stamps taken with it never count a slice.
    """

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.slices: list[float] = []
        self.paused = 0.0
        self._last = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, repeats: int = 1) -> None:
        """Run ``repeats`` reference slices now."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_kernel()
            took = time.perf_counter() - t0
            self.slices.append(took)
            self.paused += took
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Run one slice per ``every_s`` passed since the last slices (at most 20).

        Called between operations of any length, this keeps the slices
        at about the same share of the run.
        """
        owed = int((time.perf_counter() - self._last) / self.every_s)
        if owed:
            self.sample(min(owed, 20))

    def factor(self) -> float:
        """Reference speed over this run's speed: below 1 on a slow host."""
        return REFERENCE_MS / (1e3 * statistics.median(self.slices))
