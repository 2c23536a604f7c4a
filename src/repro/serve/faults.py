"""Deterministic fault-injection doubles for the serving supervision tree.

The supervision paths in :mod:`repro.serve.supervisor` — actor death on
a poisoned batch, death inside a model build, restart with backoff,
quarantine — only matter when something breaks, so this module ships the
breakage: engine and builder doubles whose failures are *scheduled*, not
random.  Everything is driven by explicit call indices (optionally drawn
once from a seeded RNG via :func:`crash_schedule`), so a test that
injects "crash on the 2nd and 5th call" replays bit-identically on every
run and under any thread interleaving that preserves call order.

Since the cross-layer chaos harness landed, the doubles are thin fronts
over :mod:`repro.chaos`: each owns a private
:class:`~repro.chaos.plan.FaultPlan` firing the registered serve sites
(``serve.engine.run``, ``serve.builder.build``), so the same trigger
grammar, thread-safe call counting and fault catalog drive scheduled
serve failures and the io/parallel drills alike.  The public API —
class names, constructor signatures, ``.calls``, the exact crash-message
format — is unchanged.

These live in the installed package (not under ``tests/``) on purpose:
``tests/`` is not importable as a package here, and the doubles are also
what ``benchmarks/bench_serve_slo.py`` uses to gate crash-recovery
behaviour under load.

* :class:`CrashError` — the marker exception every double raises, so
  tests can assert the *original* error surfaces on failed futures.
* :class:`CrashingEngine` — wraps a real engine; ``run`` raises on the
  scheduled call numbers and delegates otherwise.  Drop-in wherever an
  engine is expected (duck-typed: ``run``/``input_shape``/
  ``output_shape``/``deployed``).
* :class:`FlakyBuilder` — a zero-argument builder (registry-compatible)
  raising on the scheduled build numbers; also usable as the engine
  provider seam's resolution step via :meth:`provider`.
* :func:`crash_schedule` — draw a reproducible set of 1-based call
  indices from a seeded RNG, for property tests that randomise *which*
  calls fail while staying replayable from the seed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.chaos.plan import FaultPlan, FaultRule
from repro.chaos.registry import register_site


class CrashError(RuntimeError):
    """The deterministic injected failure (distinguishable from real bugs)."""


ENGINE_RUN_SITE = register_site(
    "serve.engine.run",
    layer="serve",
    description="Every run() call on a CrashingEngine double; context has label.",
)
BUILDER_BUILD_SITE = register_site(
    "serve.builder.build",
    layer="serve",
    description="Every build/resolution attempt on a FlakyBuilder double; "
    "context has label.",
)


def crash_schedule(
    seed: int, n_calls: int, n_crashes: int
) -> frozenset[int]:
    """A reproducible set of 1-based call indices that should crash.

    Draws ``n_crashes`` distinct indices from ``1..n_calls`` using a
    generator seeded with ``seed`` — same seed, same schedule, forever.
    """
    if n_crashes > n_calls:
        raise ValueError(f"cannot schedule {n_crashes} crashes in {n_calls} calls")  # repro-lint: disable=error-taxonomy (argument validation in the test-harness helper; ValueError is the documented contract)
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_calls, size=n_crashes, replace=False)
    return frozenset(int(i) + 1 for i in picks)


def _schedule_plan(site: str, schedule, what: str, name: str) -> FaultPlan:
    """A private one-rule plan crashing ``site`` on the scheduled calls.

    ``schedule`` is an iterable of 1-based call numbers, or
    :data:`FlakyBuilder.ALWAYS` for every call; an empty schedule yields
    a rule-free plan (the site still counts firings — ``.calls`` keeps
    working — but nothing ever fires).
    """
    if schedule == FlakyBuilder.ALWAYS:
        trigger = {"always": True}
    else:
        calls = sorted(int(c) for c in schedule)
        if not calls:
            return FaultPlan(rules=(), name=name)
        trigger = {"calls": calls}
    rule = FaultRule(site=site, fault="crash", trigger=trigger, params={"what": what})
    return FaultPlan(rules=(rule,), name=name)


class CrashingEngine:
    """An engine double that raises :class:`CrashError` on scheduled calls.

    Wraps a real :class:`~repro.core.engine.BatchedEngine` and delegates
    ``run`` except on the 1-based call numbers in ``crash_on`` (count
    shared across threads is monotone: each ``run`` attempt takes the
    next number whether it crashes or not).  ``crash_on=()`` never
    crashes — useful as the post-restart "healthy replacement".

    Args:
        engine: The real engine to delegate to.
        crash_on: 1-based ``run`` call numbers that raise.
        label: Echoed in the crash message, for assertable errors.
    """

    def __init__(self, engine, crash_on: Iterable[int] = (), label: str = "injected"):
        self._engine = engine
        self.crash_on = frozenset(crash_on)
        self.label = label
        self._plan = _schedule_plan(
            ENGINE_RUN_SITE, self.crash_on, "crash on run() call", f"{label}-engine"
        )

    @property
    def calls(self) -> int:
        """How many ``run`` attempts this engine has seen (crashed or not)."""
        return self._plan.calls(ENGINE_RUN_SITE)

    @property
    def input_shape(self):
        return self._engine.input_shape

    @property
    def output_shape(self):
        return self._engine.output_shape

    @property
    def deployed(self):
        return self._engine.deployed

    def run(self, batch: np.ndarray) -> np.ndarray:
        self._plan.fire(ENGINE_RUN_SITE, {"label": self.label})
        return self._engine.run(batch)


class FlakyBuilder:
    """A builder double that raises :class:`CrashError` on scheduled builds.

    Callable with zero arguments (a :class:`ModelRegistry` builder) —
    returns ``artifact`` except on the 1-based build numbers in
    ``fail_on``.  ``fail_on=range(1, N+1)`` models a build broken for
    the first N attempts that then heals (restart-path recovery);
    ``fail_on=ALWAYS`` never succeeds (quarantine path).

    :meth:`provider` adapts the same schedule to the runtime's
    ``engine_provider(name, version)`` seam, compiling the artifact on
    each successful resolution.
    """

    #: Sentinel schedule: every build fails, forever.
    ALWAYS = "always"

    def __init__(self, artifact, fail_on, label: str = "flaky"):
        self.artifact = artifact
        self.fail_on = fail_on if fail_on == self.ALWAYS else frozenset(fail_on)
        self.label = label
        self._plan = _schedule_plan(
            BUILDER_BUILD_SITE, self.fail_on, "failure on build", f"{label}-builder"
        )

    @property
    def calls(self) -> int:
        """How many build attempts this builder has seen (failed or not)."""
        return self._plan.calls(BUILDER_BUILD_SITE)

    def _attempt(self):
        self._plan.fire(BUILDER_BUILD_SITE, {"label": self.label})

    def __call__(self):
        self._attempt()
        return self.artifact

    def provider(
        self, engine_factory: Callable, version_label: str = "flaky-v1"
    ) -> Callable:
        """An ``engine_provider(name, version)`` running this schedule.

        ``engine_factory(artifact)`` turns the artifact into an engine
        on each successful resolution (pass ``BatchedEngine``, or a
        lambda wrapping it in a :class:`CrashingEngine`).
        """

        def provide(name: str, version: Optional[int]):
            self._attempt()
            return engine_factory(self.artifact), version_label

        return provide
