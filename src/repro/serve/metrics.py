"""Per-model serving instrumentation.

:class:`ModelMetrics` is the one instrumentation object the runtime
keeps per hosted model: request counters (submitted / completed /
rejected / crashed), batch-fill accounting, a live queue-depth gauge, a
bounded latency reservoir with percentile readout, and wall-clock
throughput.

The queue-depth gauge is **owned by the counters**, not by call sites:
``record_submit`` is the only increment and ``record_claim`` the only
decrement, so admission-control rejections (``record_reject``) cannot
leak a depth increment and the gauge can never drift from the queue it
describes.  Requests removed from the queue without being served
(shutdown without drain, quarantine) are a claim *followed by* a
reject — two calls, one invariant: ``depth == submitted admitted - claimed``.

The clock is injectable (any zero-argument callable returning seconds)
so tests drive a fake clock and assert exact latencies and throughput;
production code uses ``time.monotonic``.  All mutators take the
instance lock — workers and client threads record concurrently.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Optional

#: Most recent per-request latencies kept for percentile readout.
LATENCY_RESERVOIR = 4096


class ModelMetrics:
    """Thread-safe counters, gauges and latency percentiles for one model.

    Args:
        model: Model name the metrics describe (echoed in snapshots).
        clock: Seconds-valued monotonic clock; injectable for tests.
    """

    def __init__(self, model: str, clock: Callable[[], float] = time.monotonic):
        self.model = model
        self.clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.crashed = 0
        self.batches = 0
        self.batch_samples = 0
        self.queue_depth = 0
        self._latencies: deque = deque(maxlen=LATENCY_RESERVOIR)

    # -- recording ---------------------------------------------------------
    def record_submit(self) -> float:
        """Count one admitted request (gauge +1); returns its admission time."""
        now = self.clock()
        with self._lock:
            self.submitted += 1
            self.queue_depth += 1
        return now

    def record_claim(self, n: int) -> None:
        """Count ``n`` requests leaving the queue (gauge -n).

        Every departure is a claim — whether the requests go on to
        execute, get rejected at shutdown, or fall to quarantine — so
        the gauge always equals the number of requests actually
        pending.
        """
        with self._lock:
            self.queue_depth -= n
            if self.queue_depth < 0:  # pragma: no cover - call-site bug guard
                raise AssertionError(
                    f"queue-depth gauge for {self.model!r} went negative; "
                    f"record_claim({n}) without matching record_submit calls"
                )

    def record_reject(self, n: int = 1) -> None:
        """Count ``n`` requests refused; never touches the depth gauge.

        Admission-control sheds were never queued; post-admission
        rejections (shutdown, quarantine) must call :meth:`record_claim`
        first — rejection itself is depth-neutral by construction.
        """
        with self._lock:
            self.rejected += n

    def record_crash(self, n: int = 1) -> None:
        """Count ``n`` requests failed by an actor crash (poisoned batch)."""
        with self._lock:
            self.crashed += n

    def record_batch(self, n: int) -> None:
        """Count one executed batch of ``n`` samples."""
        with self._lock:
            self.batches += 1
            self.batch_samples += n

    def record_done(self, submitted_at: float) -> None:
        """Count one completed request; latency = now - admission time."""
        now = self.clock()
        with self._lock:
            self.completed += 1
            self._latencies.append(now - submitted_at)

    # -- readout -----------------------------------------------------------
    @property
    def mean_fill(self) -> float:
        """Average samples per executed batch (0.0 before any batch).

        Counts the samples each batch *claimed* (``record_batch``), not
        completions, so a failed batch does not skew the fill.
        """
        with self._lock:
            return self.batch_samples / self.batches if self.batches else 0.0

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of recorded latencies, in seconds.

        Nearest-rank always returns an observed latency and is monotone
        in ``q``; returns ``nan`` before any completion.  Edge cases are
        pinned, never accidental: ``q=0`` is the minimum and ``q=100``
        the maximum recorded latency; ``q`` outside ``[0, 100]``
        (including NaN) raises the documented ``ValueError``.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")  # repro-lint: disable=error-taxonomy (public-API argument validation; ValueError is the documented contract)
        with self._lock:
            recent = list(self._latencies)
        if not recent:
            return float("nan")
        ordered = sorted(recent)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def throughput_rps(self, now: Optional[float] = None) -> float:
        """Completed requests per second of wall clock since construction."""
        if now is None:
            now = self.clock()
        elapsed = now - self._started
        with self._lock:
            completed = self.completed
        return completed / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> dict:
        """One consistent dict of every counter, gauge and percentile."""
        now = self.clock()
        with self._lock:
            counters = {
                "model": self.model,
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "crashed": self.crashed,
                "batches": self.batches,
                "queue_depth": self.queue_depth,
                "mean_fill": self.batch_samples / self.batches if self.batches else 0.0,
            }
        counters["throughput_rps"] = self.throughput_rps(now)
        counters["latency_p50_s"] = self.latency_percentile(50)
        counters["latency_p99_s"] = self.latency_percentile(99)
        return counters
