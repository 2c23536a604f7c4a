"""SLO-driven micro-batch sizing for the supervised serving runtime.

:class:`AdaptiveBatchPolicy` is the sizing rule the
:class:`~repro.serve.runtime.ServerRuntime` actors consult at every
claim: batches grow under queue pressure and shrink when the recent p99
latency exceeds the target (``benchmarks/bench_serve_slo.py`` gates the
resulting sustained-load latency).  Batching never changes values: the
compiled engine is bit-identical to running each sample alone, whatever
the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AdaptiveBatchPolicy:
    """SLO-driven micro-batch sizing: grow under pressure, shrink on latency.

    A pure decision function the serving actors consult at every claim:
    given the current batch size, the queue depth behind it, and the
    recent p99 latency, return the next batch size.  The feedback loop
    is multiplicative-increase/multiplicative-decrease over
    ``[min_batch, max_batch]``:

    * **shrink** when the recent p99 exceeds ``target_p99_s`` — smaller
      batches bound per-request queueing delay at the cost of
      vectorization efficiency;
    * **grow** when the queue holds at least ``grow_pressure`` batches'
      worth of work and the SLO is currently met — pressure means the
      throughput of bigger batches is worth more than their latency;
    * otherwise hold.

    With ``target_p99_s=None`` the policy is latency-blind and sizing
    stays pinned at ``max_batch`` (the pre-supervision greedy-fill
    behaviour); deterministic tests rely on that.  The policy object is
    frozen — all mutable sizing state lives in the actor, so one policy
    instance can steer any number of models.
    """

    min_batch: int = 1
    max_batch: int = 64
    target_p99_s: Optional[float] = None
    grow_pressure: float = 2.0
    step: float = 2.0
    slo_window: int = 256

    def __post_init__(self):
        if self.min_batch < 1:
            raise ValueError(f"min_batch must be at least 1, got {self.min_batch}")
        if self.max_batch < self.min_batch:
            raise ValueError(
                f"max_batch ({self.max_batch}) must be >= min_batch ({self.min_batch})"
            )
        if self.target_p99_s is not None and self.target_p99_s <= 0:
            raise ValueError(f"target_p99_s must be positive, got {self.target_p99_s}")
        if self.grow_pressure <= 0:
            raise ValueError(f"grow_pressure must be positive, got {self.grow_pressure}")
        if self.step <= 1:
            raise ValueError(f"step must exceed 1, got {self.step}")
        if self.slo_window < 1:
            raise ValueError(f"slo_window must be positive, got {self.slo_window}")

    @property
    def initial(self) -> int:
        """The starting batch size (greedy fill until the SLO pushes back)."""
        return self.max_batch

    def next_size(self, current: int, queue_depth: int, p99_s: float = float("nan")) -> int:
        """The batch size to claim next (see class docstring for the loop)."""
        current = min(max(current, self.min_batch), self.max_batch)
        if self.target_p99_s is None:
            return self.max_batch
        if not math.isnan(p99_s) and p99_s > self.target_p99_s:
            return max(self.min_batch, int(current / self.step))
        if queue_depth >= self.grow_pressure * current:
            return min(self.max_batch, max(current + 1, int(current * self.step)))
        return current
