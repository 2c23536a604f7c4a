"""Supervised concurrent multi-tenant serving runtime.

:class:`ServerRuntime` hosts any number of registered models at once,
each behind its own supervised actor (see
:mod:`repro.serve.supervisor`): per-model worker threads drain per-model
bounded mailboxes, executing each claim as one micro-batch on the
model's compiled :class:`~repro.core.engine.BatchedEngine`.  The design
in one breath::

    clients ──submit()──▶ per-model actor mailboxes ──claim──▶ per-model workers
                │ admission control                       │ greedy batch ≤ max
                ▼ (QueueFullError /                       ▼
            Future     ModelQuarantinedError)   engine.run(batch) → futures
                                                    │ crash = actor death
                                                    ▼
                              supervisor: restart w/ capped backoff,
                              quarantine after N consecutive failures

Guarantees:

* **Admission control** — each model's mailbox is bounded at
  ``max_queue``; a submit beyond the bound is shed immediately with a
  typed :class:`~repro.serve.errors.QueueFullError` (never silently
  queued or dropped), and the shed is counted in that model's metrics.
* **Failure isolation** — an exception escaping a model build or a
  batch execution kills only that model's actor: the dead batch's
  futures fail with the original error, the supervisor restarts the
  actor with capped exponential backoff, and after
  ``policy.max_failures`` consecutive failures the model is quarantined
  (typed :class:`~repro.serve.errors.ModelQuarantinedError`) while
  every other model keeps serving.
* **No cross-model bleed** — a claim takes requests from exactly one
  mailbox, so a batch only ever contains one model's samples, and each
  future is resolved from its own batch row (a private copy).
* **Greedy batching** — each claim takes ``min(max_batch, pending)``
  requests: the whole backlog, up to the batch bound.
* **Zero-downtime rollover** — :meth:`rollover` resolves the new
  version while the old engine keeps serving, then swaps atomically:
  requests claimed before the swap finish on the old engine, requests
  claimed after run on the new one, nothing is dropped, and every
  future's ``serving_version`` attribute names the version that
  produced its (bit-identical) output.  Rolling over a quarantined
  model reinstates it.
* **Clean shutdown** — ``stop(drain=True)`` serves every admitted
  request before returning (crashed actors restart or quarantine mid-
  drain, so the drain always terminates); ``stop(drain=False)`` fails
  the in-flight futures with
  :class:`~repro.serve.errors.ServerClosedError`.  Either way nothing
  is silently dropped.
* **Determinism** — requests can be submitted before ``start()``; with
  one worker and one model, service order is submission order, and
  outputs are bit-identical to running each sample alone (the engine
  guarantee), whatever the interleaving.  The clock *and* the backoff
  sleep are injectable, so every supervision path is testable on a fake
  clock.

Throughput comes from micro-batching (the engine's per-sample speedup)
and per-model worker concurrency (the numpy/BLAS kernels release the
GIL, so batches of *different* models genuinely overlap).  For real
cores past the GIL, ``backend="process"`` executes batches in a
:class:`repro.parallel.ProcessPoolRunner` against engines built over
shared-memory weight planes (one mapping per model per host; see
:mod:`repro.parallel.arena`) — bit-identical outputs, identical
metrics/health surface.  ``benchmarks/bench_serve_slo.py`` gates raw
throughput over a serialized baseline, sustained-load p99 latency,
rollover-under-load with zero drops, and crash isolation;
``benchmarks/bench_scaleout.py`` gates process-worker scaling and
cross-placement bit-identity.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Callable, Iterable, Optional

import numpy as np

from repro.serve.errors import (
    ModelQuarantinedError,
    QueueFullError,
    ServerClosedError,
    UnknownModelError,
)
from repro.serve.metrics import ModelMetrics
from repro.serve.registry import ModelRegistry
from repro.serve.supervisor import (
    QUARANTINED,
    ModelActor,
    Request,
    Supervisor,
    SupervisorPolicy,
)

#: ``version`` value a rollover passes the engine provider to mean "the
#: newest published version, re-resolved now" — distinct from ``None``,
#: which restarts use to mean "whatever this model currently serves".
LATEST = "latest"


class ServerRuntime:
    """Supervised per-model actors serving micro-batch traffic concurrently.

    Args:
        registry: Where model names resolve to compiled engines (and
            versioned artifacts, when store-backed).
        models: Names to host.  Each is resolved — and compiled, once —
            up front; a *failing* build does not fail construction, it
            starts that model's actor in supervised backoff.
        workers: Worker threads per hosted model started by
            :meth:`start`.
        max_batch: Largest micro-batch one claim may execute.
        max_queue: Per-model pending bound for admission control.
        clock: Seconds-valued monotonic clock used by the metrics and
            the supervisor (injectable for tests).
        accelerator: Optional :class:`repro.hw.Accelerator` whose
            modeled silicon numbers :meth:`hw_profile` surfaces next to
            the measured metrics.
        policy: Restart/quarantine rule (default:
            :class:`SupervisorPolicy` defaults).
        sleep: Backoff sleep used by the supervisor (injectable; tests
            pass a fake-clock-advancing sleep).
        engine_provider: ``provider(name, version) -> (engine, label)``
            override for how actors obtain engines (tests script
            version labels and build failures through it).
        backend: ``"thread"`` (default) executes batches on the actor
            worker threads in-process.  ``"process"`` is the opt-in
            scale-out mode: each model's decoded weight planes are
            published once into a :class:`repro.parallel.SharedWeightArena`
            segment and actors execute batches in
            :class:`repro.parallel.ProcessPoolRunner` workers through
            :class:`repro.parallel.SharedEngineProxy` — supervision,
            metrics, health, and rollover behave identically (a crashed
            pool surfaces as actor death with a typed
            :class:`repro.parallel.WorkerCrashedError`).
        pool_workers: Process count for ``backend="process"``
            (default: ``os.cpu_count()``).  The pool forks eagerly in
            the constructor, before any serving thread starts.  Setting
            it on the thread backend raises ``ValueError``.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        models: Iterable[str],
        workers: int = 2,
        max_batch: int = 64,
        max_queue: int = 256,
        clock: Callable[[], float] = time.monotonic,
        accelerator=None,
        policy: Optional[SupervisorPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        engine_provider=None,
        backend: str = "thread",
        pool_workers: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker per model")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        names = list(models)
        if not names:
            raise ValueError("need at least one model to host")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names in {names}")
        self.registry = registry
        self.workers = workers
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.accelerator = accelerator
        self.policy = policy or SupervisorPolicy()
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}; choose 'thread' or 'process'")
        if pool_workers is not None and backend != "process":
            raise ValueError("pool_workers needs backend='process'")
        self.backend = backend
        self._runner = None
        self._arena = None
        provider = engine_provider or self._default_provider
        if backend == "process":
            import os as _os

            from repro.parallel import ProcessPoolRunner, SharedWeightArena
            from repro.parallel import worker as _worker

            self._arena = SharedWeightArena()
            # Eager fork: no serving threads exist yet, so the pool's
            # workers never inherit a mid-critical-section lock.
            self._runner = ProcessPoolRunner(
                pool_workers or (_os.cpu_count() or 1),
                initializer=_worker.mark_decode_baseline,
            )
            provider = self._wrap_process_provider(provider)
        for name in names:
            if name not in registry:
                raise UnknownModelError(name, tuple(registry.names()))
        self._actors: dict[str, ModelActor] = {
            name: ModelActor(name, ModelMetrics(name, clock=clock), max_batch)
            for name in names
        }
        self._order = list(self._actors.values())
        self._supervisor = Supervisor(
            self._order,
            self.policy,
            provider,
            workers=workers,
            clock=clock,
            sleep=sleep,
        )
        self._stopping = False
        self._started = False
        self._supervisor.prime()

    def _wrap_process_provider(self, inner):
        """Decorate a provider so resolved engines execute in pool workers.

        The inner provider still resolves/compiles the engine (registry
        memoization and version pinning keep working); its deployed
        artifact's weight planes are published to the shared arena —
        once per content per host — and the actor gets a
        :class:`~repro.parallel.SharedEngineProxy` instead.  Engines
        without a deployed artifact pass through and execute in-process.
        Swapping the engine does not hide it from fault injection: the
        supervisor fires the ``serve.engine.run`` and
        ``serve.builder.build`` chaos sites in the parent process, around
        whatever engine the actor holds.
        """

        def provider(name: str, version):
            engine, label = inner(name, version)
            deployed = getattr(engine, "deployed", None)
            if deployed is None:
                return engine, label
            from repro.parallel import SharedEngineProxy

            spec = self._arena.publish(deployed)
            return SharedEngineProxy(self._runner, deployed, spec), label

        return provider

    def _default_provider(self, name: str, version):
        """Resolve an engine (+ version label) through the registry.

        ``version`` is ``None`` (the model's *current* content,
        memoized — what restarts rebuild), :data:`LATEST` (re-resolve
        the newest published version — what a default rollover asks
        for), or an int pinning one store version.
        """
        if version is None:
            engine = self.registry.engine(name)
        elif version is LATEST:
            engine = self.registry.reload(name, None)
        else:
            engine = self.registry.reload(name, version)
        return engine, self.registry.version_label(name)

    def _actor(self, model: str) -> ModelActor:
        actor = self._actors.get(model)
        if actor is None:
            raise UnknownModelError(model, tuple(self._actors))
        return actor

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ServerRuntime":
        """Spawn the per-model worker threads (idempotent); returns ``self``."""
        if self._stopping:
            raise ServerClosedError("cannot start a stopped runtime")
        self._started = True
        self._supervisor.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down; drain admitted requests or reject them, never drop.

        ``drain=True`` serves everything already admitted (inline on the
        calling thread if :meth:`start` was never called) before
        returning.  ``drain=False`` fails every pending future with
        :class:`ServerClosedError` and counts the rejections.  Further
        submits raise :class:`ServerClosedError`; ``stop`` is
        idempotent.
        """
        self._stopping = True
        self._supervisor.stop(drain)
        # Only after the drain: pool workers may still be executing the
        # final batches, and the arena segments back their engines.
        if self._runner is not None:
            self._runner.close()
        if self._arena is not None:
            self._arena.close()

    def __enter__(self) -> "ServerRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission --------------------------------------------------------
    def models(self) -> list[str]:
        """Hosted model names, in hosting order."""
        return [actor.name for actor in self._order]

    def submit(self, model: str, sample: np.ndarray) -> Future:
        """Admit one sample for ``model``; resolves to its logits row.

        Raises :class:`UnknownModelError` for unhosted models,
        ``ValueError`` for a shape mismatch,
        :class:`ModelQuarantinedError` while the model is quarantined,
        :class:`QueueFullError` when the model's mailbox is at bound
        (the request is shed, never queued), and
        :class:`ServerClosedError` after :meth:`stop`.  The returned
        future gains a ``serving_version`` attribute when it resolves —
        the version label of the engine that produced (or failed) it.
        """
        actor = self._actor(model)
        sample = np.asarray(sample)
        with actor.work:
            if self._stopping or actor.stopping:
                raise ServerClosedError(f"server is closed; {model!r} request refused")
            if actor.state == QUARANTINED:
                actor.metrics.record_reject()
                raise actor.quarantine_error()
            if actor.input_shape is not None and sample.shape != actor.input_shape:
                raise ValueError(  # repro-lint: disable=error-taxonomy (caller-input shape validation; ValueError is the documented submit contract)
                    f"model {model!r} expects one sample of shape "
                    f"{actor.input_shape}, got {sample.shape}"
                )
            if len(actor.pending) >= self.max_queue:
                actor.metrics.record_reject()
                raise QueueFullError(model, len(actor.pending), self.max_queue)
            future: Future = Future()
            submitted_at = actor.metrics.record_submit()
            actor.pending.append(Request(sample, future, submitted_at))
            actor.work.notify()  # each admitted request can employ one more worker
        return future

    def queue_depth(self, model: str) -> int:
        """Pending (admitted, not yet claimed) requests for ``model``."""
        actor = self._actor(model)
        with actor.lock:
            return len(actor.pending)

    # -- rollover ----------------------------------------------------------
    def rollover(self, model: str, version: Optional[int] = None) -> Optional[str]:
        """Atomically swap ``model`` to a new version; returns its label.

        The new engine is resolved *before* the swap — through the
        registry (``version`` pins a store version; ``None`` re-resolves
        the newest content) or the injected provider — so the old engine
        serves every request claimed in the meantime.  The swap itself
        happens under the actor lock: no request is dropped, each is
        served bit-identically by whichever version claimed it (recorded
        on the future's ``serving_version``).  A resolution failure
        raises to the caller and leaves the old version serving —
        rollover is never a supervision event.  Success resets the
        failure budget and reinstates a quarantined model.
        """
        actor = self._actor(model)
        if self._stopping:
            raise ServerClosedError("cannot roll over a stopped runtime")
        engine, label = self._supervisor.resolve(model, LATEST if version is None else version)
        with actor.work:
            actor.consecutive_failures = 0
            actor.install_engine_locked(engine, label)
        return label

    # -- readout -----------------------------------------------------------
    def metrics(self, model: str) -> ModelMetrics:
        """The live :class:`ModelMetrics` for one hosted model."""
        return self._actor(model).metrics

    def metrics_summary(self) -> dict[str, dict]:
        """``{model: metrics snapshot}`` for every hosted model."""
        return {actor.name: actor.metrics.snapshot() for actor in self._order}

    def health(self) -> dict:
        """The structured admin surface: supervision + metrics per model.

        JSON-serializable (modulo NaN percentiles before any traffic):
        per model the full metrics snapshot plus ``state`` /
        ``active_version`` / ``restarts`` / ``consecutive_failures`` /
        ``restart_budget_remaining`` / ``crashes`` / ``last_error``,
        alongside runtime-level configuration.  Exposed on the
        command line as ``python -m repro serve --health``.
        """
        return {
            "models": {
                actor.name: self._supervisor.health_locked_snapshot(actor)
                for actor in self._order
            },
            "workers_per_model": self.workers,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "stopping": self._stopping,
            "policy": {
                "max_failures": self.policy.max_failures,
                "backoff_initial_s": self.policy.backoff_initial_s,
                "backoff_factor": self.policy.backoff_factor,
                "backoff_cap_s": self.policy.backoff_cap_s,
            },
        }

    def hw_profile(self, model: str, batch_size: Optional[int] = None) -> Optional[dict]:
        """Modeled silicon profile for one hosted model, if available.

        Returns :meth:`repro.hw.Accelerator.batch_profile` for the
        model's deployed artifact at ``batch_size`` (default: the
        runtime's ``max_batch``), or ``None`` when the runtime was built
        without an accelerator or the model has no live engine (crashed
        or quarantined).
        """
        if self.accelerator is None:
            return None
        actor = self._actor(model)
        with actor.lock:
            engine = actor.engine
        deployed = getattr(engine, "deployed", None)
        if deployed is None:
            return None
        return self.accelerator.batch_profile(deployed, batch_size or self.max_batch)
