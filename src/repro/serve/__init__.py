"""Serving runtime for deployed MF-DFP networks.

A supervised, concurrent, multi-tenant server in front of the compiled
:class:`repro.core.engine.BatchedEngine`:

* :class:`repro.serve.registry.ModelRegistry` — named deployable
  models, built lazily and compiled once in the process-wide
  content-addressed :func:`repro.core.engine.engine_cache`; store-backed
  registries pin and roll model versions.
* :class:`repro.serve.supervisor.Supervisor` /
  :class:`repro.serve.supervisor.ModelActor` — the supervision tree:
  per-model actors whose deaths (build crashes, poisoned batches) are
  restarted with capped exponential backoff
  (:class:`repro.serve.supervisor.SupervisorPolicy`) and quarantined
  after repeated failure, isolating faults per model.
* :class:`repro.serve.runtime.ServerRuntime` — the facade: admission
  control (typed load shedding), greedy micro-batching (each claim
  takes up to ``max_batch`` pending requests), zero-downtime version
  rollover, the structured health surface, and per-model
  :class:`repro.serve.metrics.ModelMetrics`.
* :mod:`repro.serve.errors` — the typed rejections
  (:class:`UnknownModelError`, :class:`QueueFullError`,
  :class:`ServerClosedError`, :class:`ModelQuarantinedError`) and
  :class:`CrashError`, the failure injected at the supervisor's
  ``serve.engine.run`` / ``serve.builder.build`` chaos sites.

Exposed on the command line as ``python -m repro serve``.
"""

from repro.serve.errors import (
    CrashError,
    ModelQuarantinedError,
    QueueFullError,
    ServeError,
    ServerClosedError,
    UnknownModelError,
)
from repro.serve.metrics import ModelMetrics
from repro.serve.registry import ModelRegistry
from repro.serve.runtime import ServerRuntime
from repro.serve.supervisor import ModelActor, Supervisor, SupervisorPolicy

__all__ = [
    "CrashError",
    "ModelActor",
    "ModelMetrics",
    "ModelQuarantinedError",
    "ModelRegistry",
    "QueueFullError",
    "ServeError",
    "ServerClosedError",
    "ServerRuntime",
    "Supervisor",
    "SupervisorPolicy",
    "UnknownModelError",
]
