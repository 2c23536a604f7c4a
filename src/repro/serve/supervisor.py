"""Per-model supervised actors: crash detection, restart, quarantine.

This module is the supervision tree under
:class:`~repro.serve.runtime.ServerRuntime` (the style of message-driven
runtime gridworks-scada's ``proactor``/``actors`` packages build for
SCADA nodes, transplanted to model serving):

* :class:`ModelActor` — one hosted model's mailbox and serving state: a
  bounded pending deque, the live engine (plus the version label it
  serves), and the failure bookkeeping supervision steers on.  Actors
  never share queues, so one model's failures cannot starve another's
  traffic.
* :class:`SupervisorPolicy` — the restart rule: capped exponential
  backoff between restarts and quarantine after ``max_failures``
  consecutive crashes.
* :class:`Supervisor` — owns the actors and their worker threads.  A
  worker draining an actor's queue treats any exception escaping a
  model build or a batch execution as **actor death**: the dead batch's
  futures fail with the original error, the engine is discarded, and
  the actor re-enters service through rebuild-with-backoff — or, once
  the consecutive-failure budget is spent, is quarantined (pending and
  future requests fail with
  :class:`~repro.serve.errors.ModelQuarantinedError`) without taking
  the runtime down.

Determinism hooks: the clock *and* the backoff sleep are injectable, so
the fault-injection tests (``tests/serve``) drive crashes, restarts and
quarantine entirely on a fake clock — no wall-clock races.  Engine
(re)solution goes through an injectable ``provider(name, version)``
callable, which is also how :meth:`ServerRuntime.rollover` swaps model
versions without dropping requests: every claim pins the engine object,
version label, and actor *generation* it executes under, and stale
completions/crashes from a retired generation are recognised and kept
from corrupting the new one's supervision state.

Chaos sites: ``serve.engine.run`` fires before each batch and
``serve.builder.build`` before each engine resolution (prime, rebuild,
rollover), with the model's ``name`` in the context.  Both fire in the
parent process, so a :class:`~repro.chaos.FaultPlan` schedules the same
crashes on the thread and the process backend.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.chaos.registry import inject, register_site
from repro.retry import RetryPolicy
from repro.serve.errors import ModelQuarantinedError, ServerClosedError
from repro.serve.metrics import ModelMetrics

#: Actor lifecycle states, as reported by the health surface.
RUNNING = "running"
BACKOFF = "backoff"
QUARANTINED = "quarantined"

register_site(
    "serve.engine.run",
    layer="serve",
    description="each batch an actor executes, just before engine.run(); "
    "context has the model name",
)
register_site(
    "serve.builder.build",
    layer="serve",
    description="each engine resolution (prime, rebuild, rollover); "
    "context has the model name",
)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Restart-with-backoff and quarantine rule for model actors.

    ``backoff_s(k)`` after the ``k``-th consecutive failure is
    ``backoff_initial_s * backoff_factor**(k-1)`` capped at
    ``backoff_cap_s``; once ``max_failures`` consecutive failures
    accumulate (each with no successful batch in between), the actor is
    quarantined instead of restarted.
    """

    max_failures: int = 3
    backoff_initial_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.max_failures < 1:
            raise ValueError(f"max_failures must be at least 1, got {self.max_failures}")
        if self.backoff_initial_s <= 0:
            raise ValueError(f"backoff_initial_s must be positive, got {self.backoff_initial_s}")
        if self.backoff_factor < 1:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_cap_s < self.backoff_initial_s:
            raise ValueError(
                f"backoff_cap_s ({self.backoff_cap_s}) must be >= backoff_initial_s "
                f"({self.backoff_initial_s})"
            )

    def retry_policy(self) -> RetryPolicy:
        """This policy's backoff schedule as the repo-wide :class:`RetryPolicy`.

        ``attempts`` maps from ``max_failures`` (the k-th failure being
        terminal is the same shape as "k attempts, then give up");
        supervision keeps its own quarantine bookkeeping and uses only
        the backoff curve.
        """
        return RetryPolicy(
            attempts=self.max_failures,
            backoff_initial_s=self.backoff_initial_s,
            backoff_factor=self.backoff_factor,
            backoff_cap_s=self.backoff_cap_s,
        )

    def backoff_s(self, consecutive_failures: int) -> float:
        """Backoff before the restart following the k-th consecutive failure."""
        if consecutive_failures < 1:
            raise ValueError("backoff is only defined after at least one failure")  # repro-lint: disable=error-taxonomy (precondition on a diagnostics property; ValueError is the documented contract)
        return self.retry_policy().backoff_s(consecutive_failures)


@dataclass
class Request:
    """One admitted request: its payload, its future, its admission time."""

    sample: np.ndarray
    future: Future
    submitted_at: float


class ModelActor:
    """One hosted model's mailbox and supervised serving state.

    All mutable state is guarded by ``self.work`` (a condition on the
    actor's own lock); the actor owns no threads itself — the
    :class:`Supervisor` runs worker loops against it.
    """

    def __init__(self, name: str, metrics: ModelMetrics, max_batch: int):
        self.name = name
        self.metrics = metrics
        self.max_batch = max_batch
        self.lock = threading.Lock()
        self.work = threading.Condition(self.lock)
        self.pending: deque = deque()
        self.engine = None
        self.input_shape: Optional[tuple] = None
        self.version: Optional[str] = None
        #: Bumped whenever the engine binding changes (install, crash,
        #: rollover) so in-flight work can detect it raced a swap.
        self.generation = 0
        self.state = RUNNING
        self.building = False
        self.stopping = False
        self.restarts = 0
        self.consecutive_failures = 0
        self.crashes = 0
        self.last_error: Optional[str] = None
        self.retry_at = 0.0

    # All methods below expect ``self.work`` to be held by the caller.
    def install_engine_locked(self, engine, version: Optional[str]) -> None:
        """Bind a live engine (initial build, restart, or rollover)."""
        self.engine = engine
        self.input_shape = tuple(engine.input_shape)
        self.version = version
        self.generation += 1
        self.state = RUNNING
        self.retry_at = 0.0
        self.work.notify_all()

    def claim_locked(self) -> list[Request]:
        """Pop up to ``max_batch`` requests off the mailbox (greedy fill)."""
        n = min(self.max_batch, len(self.pending))
        requests = [self.pending.popleft() for _ in range(n)]
        self.metrics.record_claim(n)
        return requests

    def fail_pending_locked(self, error: BaseException) -> int:
        """Reject every queued request with ``error`` (never silently drop)."""
        n = len(self.pending)
        if n:
            self.metrics.record_claim(n)
            self.metrics.record_reject(n)
            for request in self.pending:
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(error)
            self.pending.clear()
        return n

    def quarantine_error(self) -> ModelQuarantinedError:
        return ModelQuarantinedError(
            self.name, self.consecutive_failures, self.last_error or ""
        )


class Supervisor:
    """Owns the model actors and the worker threads draining them.

    Args:
        actors: The hosted :class:`ModelActor` objects, in hosting order.
        policy: Restart/quarantine rule.
        provider: ``provider(name, version) -> (engine, version_label)``;
            raising is an actor failure, handled by supervision.
        workers: Worker threads **per actor**.
        clock: Seconds-valued monotonic clock (injectable for tests).
        sleep: Backoff sleep (injectable; tests advance a fake clock).
    """

    def __init__(
        self,
        actors: list[ModelActor],
        policy: SupervisorPolicy,
        provider: Callable[[str, Optional[int]], tuple],
        workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.actors = list(actors)
        self.policy = policy
        self.provider = provider
        self.workers = workers
        self.clock = clock
        self.sleep = sleep
        self.threads: list[threading.Thread] = []

    def resolve(self, name: str, version) -> tuple:
        """``provider(name, version)``, behind the ``serve.builder.build`` site."""
        inject("serve.builder.build", name=name)
        return self.provider(name, version)

    # -- lifecycle ---------------------------------------------------------
    def prime(self) -> None:
        """Attempt the initial engine build of every actor, supervised.

        A builder crash here is the first failure of that actor — it
        starts life in backoff (or straight in quarantine when
        ``max_failures == 1``) instead of failing construction, so one
        broken model cannot keep the whole runtime from starting.
        """
        for actor in self.actors:
            try:
                engine, label = self.resolve(actor.name, None)
            except Exception as error:
                with actor.work:
                    self._record_failure_locked(actor, error)
            else:
                with actor.work:
                    actor.install_engine_locked(engine, label)

    def start(self) -> None:
        """Spawn ``workers`` daemon threads per actor (idempotent)."""
        if self.threads:
            return
        self.threads = [
            threading.Thread(
                target=self._worker,
                args=(actor,),
                name=f"serve-{actor.name}-{i}",
                daemon=True,
            )
            for actor in self.actors
            for i in range(self.workers)
        ]
        for thread in self.threads:
            thread.start()

    def stop(self, drain: bool) -> None:
        """Signal shutdown, then join the workers.

        ``drain=True`` lets the workers serve everything already
        admitted (including surviving restarts/backoff mid-drain — a
        permanently broken model quarantines, which fails its backlog
        with a typed error, so drains always terminate).  ``drain=False``
        fails every pending future with :class:`ServerClosedError`
        immediately.  If no workers were ever started, a draining stop
        serves the backlog inline on the calling thread.
        """
        for actor in self.actors:
            with actor.work:
                actor.stopping = True
                if not drain:
                    actor.fail_pending_locked(
                        ServerClosedError(
                            f"server stopped before serving this {actor.name!r} request"
                        )
                    )
                actor.work.notify_all()
        threads, self.threads = self.threads, []
        for thread in threads:
            thread.join()
        if drain and not threads:
            for actor in self.actors:
                self._worker(actor)  # stopping is set: runs the backlog, returns

    # -- the worker loop ---------------------------------------------------
    def _worker(self, actor: ModelActor) -> None:
        while True:
            kind, payload = self._next_action(actor)
            if kind == "exit":
                return
            if kind == "sleep":
                self.sleep(payload)
            elif kind == "build":
                self._build(actor)
            else:  # "execute"
                self._execute(actor, *payload)

    def _next_action(self, actor: ModelActor):
        """Block until there is something to do for this actor.

        Returns one of ``("exit", None)``, ``("sleep", seconds)``,
        ``("build", None)`` or ``("execute", (engine, version,
        generation, requests))``.  Sleeping and building happen outside
        the actor lock so the mailbox stays live throughout.
        """
        with actor.work:
            while True:
                if not actor.pending:
                    if actor.stopping:
                        return ("exit", None)
                    actor.work.wait()
                    continue
                if actor.state == QUARANTINED:
                    # Late arrivals that raced the quarantine decision.
                    actor.fail_pending_locked(actor.quarantine_error())
                    continue
                if actor.engine is None:
                    if actor.building:
                        actor.work.wait()  # another worker is rebuilding
                        continue
                    now = self.clock()
                    if now < actor.retry_at:
                        return ("sleep", actor.retry_at - now)
                    actor.building = True
                    return ("build", None)
                requests = actor.claim_locked()
                return ("execute", (actor.engine, actor.version, actor.generation, requests))

    def _build(self, actor: ModelActor) -> None:
        """(Re)build the actor's engine outside the lock; supervised."""
        with actor.lock:
            generation = actor.generation
        try:
            engine, label = self.resolve(actor.name, None)
        except Exception as error:
            with actor.work:
                actor.building = False
                if actor.generation == generation:
                    self._record_failure_locked(actor, error)
                actor.work.notify_all()
            return
        with actor.work:
            actor.building = False
            if actor.generation == generation and actor.engine is None:
                if actor.consecutive_failures > 0:
                    actor.restarts += 1
                actor.install_engine_locked(engine, label)
            actor.work.notify_all()  # wake waiters even if the build went stale

    def _execute(self, actor: ModelActor, engine, version, generation, requests) -> None:
        """Run one micro-batch; a crash escaping the engine kills the actor."""
        live = [r for r in requests if r.future.set_running_or_notify_cancel()]
        good = []
        for request in live:
            if request.sample.shape != engine.input_shape:
                # A malformed request admitted before the first build
                # resolved the input shape: fail it alone, don't let it
                # poison the whole batch (or the actor).
                actor.metrics.record_reject()
                request.future.set_exception(
                    ValueError(
                        f"model {actor.name!r} expects one sample of shape "
                        f"{engine.input_shape}, got {request.sample.shape}"
                    )
                )
            else:
                good.append(request)
        if not good:
            return
        actor.metrics.record_batch(len(good))
        try:
            inject("serve.engine.run", name=actor.name)
            logits = engine.run(np.stack([r.sample for r in good]))
        except BaseException as error:  # actor death: poisoned batch / broken engine
            actor.metrics.record_crash(len(good))
            for request in good:
                request.future.serving_version = version
                request.future.set_exception(error)
            with actor.work:
                if actor.generation == generation:
                    self._record_failure_locked(actor, error)
                actor.work.notify_all()
            return
        for request, row in zip(good, logits):
            request.future.serving_version = version
            request.future.set_result(row.copy())  # private row: no aliasing
            actor.metrics.record_done(request.submitted_at)
        with actor.lock:
            if actor.generation == generation:
                actor.consecutive_failures = 0

    def _record_failure_locked(self, actor: ModelActor, error: BaseException) -> None:
        """Supervision decision after an actor death (caller holds the lock)."""
        actor.crashes += 1
        actor.consecutive_failures += 1
        actor.last_error = f"{type(error).__name__}: {error}"
        actor.engine = None  # input_shape survives: submits stay validated
        actor.generation += 1
        if actor.consecutive_failures >= self.policy.max_failures:
            actor.state = QUARANTINED
            actor.fail_pending_locked(actor.quarantine_error())
        else:
            actor.state = BACKOFF
            actor.retry_at = self.clock() + self.policy.backoff_s(actor.consecutive_failures)
        actor.work.notify_all()

    # -- readout -----------------------------------------------------------
    def health_locked_snapshot(self, actor: ModelActor) -> dict:
        """One actor's supervision state + metrics, consistently."""
        with actor.lock:
            snap = actor.metrics.snapshot()
            snap.update(
                state=actor.state,
                active_version=actor.version,
                restarts=actor.restarts,
                consecutive_failures=actor.consecutive_failures,
                restart_budget_remaining=max(
                    0, self.policy.max_failures - actor.consecutive_failures
                ),
                crashes=actor.crashes,
                last_error=actor.last_error,
            )
            return snap
