"""Supervision tree under fault injection: crash, restart, quarantine, rollover.

Every test here is deterministic: crashes are scheduled per model by
call number (a :class:`~repro.chaos.FaultPlan` over the supervisor's
``serve.engine.run`` / ``serve.builder.build`` sites, installed with
:func:`repro.chaos.installed`), the clock is fake, and the backoff sleep
advances that clock while logging each requested duration — so restart
sequences are asserted *exactly*, with no wall-clock waits.  Threaded
tests synchronise only on future resolution (never ``time.sleep``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultRule, installed
from repro.core.engine import BatchedEngine
from repro.io.store import ArtifactStore
from repro.serve import (
    CrashError,
    ModelQuarantinedError,
    ModelRegistry,
    ServerClosedError,
    ServerRuntime,
    SupervisorPolicy,
)
from repro.serve.supervisor import BACKOFF, QUARANTINED, RUNNING

from conftest import tiny_deployed

RUN = "serve.engine.run"
BUILD = "serve.builder.build"


def crashes(site, name, **trigger):
    """A plan crashing ``site`` for model ``name`` on ``trigger``'s calls.

    ``match`` numbers the calls per model: ``calls=[1]`` is that
    model's first batch (or build), whatever the other models do.
    """
    rule = FaultRule(site=site, fault="crash", trigger={"match": {"name": name}, **trigger})
    return FaultPlan(rules=[rule], name=f"{name}-{site}")


class ScriptedProvider:
    """An ``engine_provider`` that replays a scripted outcome per call.

    Each hosted model maps to a list of outcomes consumed in call order
    (the last entry is sticky): an exception instance is raised, a
    ``(engine, label)`` tuple is returned.  Calls are recorded so tests
    can assert exactly when the runtime resolved engines.
    """

    def __init__(self, scripts):
        self.scripts = {name: list(items) for name, items in scripts.items()}
        self.calls = []

    def __call__(self, name, version):
        self.calls.append((name, version))
        script = self.scripts[name]
        item = script.pop(0) if len(script) > 1 else script[0]
        if isinstance(item, BaseException):
            raise item
        return item


@pytest.fixture
def samples_a():
    return np.random.default_rng(7).normal(scale=0.5, size=(16, 6)).astype(np.float32)


@pytest.fixture
def samples_b():
    return np.random.default_rng(8).normal(scale=0.5, size=(16, 5)).astype(np.float32)


class TestSupervisorPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = SupervisorPolicy(
            max_failures=10, backoff_initial_s=0.05, backoff_factor=4.0, backoff_cap_s=0.4
        )
        assert [policy.backoff_s(k) for k in (1, 2, 3, 4, 5)] == pytest.approx(
            [0.05, 0.2, 0.4, 0.4, 0.4]
        )

    def test_backoff_undefined_before_first_failure(self):
        with pytest.raises(ValueError, match="failure"):
            SupervisorPolicy().backoff_s(0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(max_failures=0), "max_failures"),
            (dict(backoff_initial_s=0.0), "backoff_initial_s"),
            (dict(backoff_factor=0.5), "backoff_factor"),
            (dict(backoff_initial_s=1.0, backoff_cap_s=0.5), "backoff_cap_s"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SupervisorPolicy(**kwargs)


class TestCrashRestart:
    def test_poisoned_batch_kills_actor_and_restart_serves_the_rest(
        self, registry, engine_a, fake_clock, fake_sleep, backoff_log, samples_a
    ):
        provider = ScriptedProvider(
            {"tiny_a": [(engine_a, "bad-v1"), (engine_a, "good-v2")]}
        )
        with installed(crashes(RUN, "tiny_a", calls=[1])):
            runtime = ServerRuntime(
                registry,
                ["tiny_a"],
                workers=1,
                max_batch=2,
                clock=fake_clock,
                sleep=fake_sleep,
                engine_provider=provider,
                policy=SupervisorPolicy(max_failures=3, backoff_initial_s=0.05),
            )
            futures = [runtime.submit("tiny_a", s) for s in samples_a[:4]]
            runtime.stop(drain=True)  # unstarted: drains inline, deterministically

        # First claimed batch (2 requests) died with the injected error...
        for future in futures[:2]:
            with pytest.raises(CrashError, match="scheduled crash"):
                future.result(timeout=0)
            assert future.serving_version == "bad-v1"
        # ...and the rest were served bit-identically after the restart.
        got = np.stack([f.result(timeout=0) for f in futures[2:]])
        assert np.array_equal(got, engine_a.run(np.stack(samples_a[2:4])))
        assert [f.serving_version for f in futures[2:]] == ["good-v2", "good-v2"]

        assert backoff_log == pytest.approx([0.05])
        snap = runtime.health()["models"]["tiny_a"]
        assert snap["state"] == RUNNING
        assert snap["restarts"] == 1 and snap["crashes"] == 1
        assert snap["consecutive_failures"] == 0  # reset by the successful batch
        assert snap["active_version"] == "good-v2"
        metrics = runtime.metrics("tiny_a")
        assert metrics.submitted == 4 and metrics.completed == 2
        assert metrics.crashed == 2 and metrics.queue_depth == 0

    def test_crash_in_one_model_never_touches_the_other(
        self, registry, engine_b, fake_clock, fake_sleep, samples_a, samples_b
    ):
        with installed(crashes(RUN, "tiny_a", always=True)):
            runtime = ServerRuntime(
                registry,
                ["tiny_a", "tiny_b"],
                workers=1,
                max_batch=4,
                clock=fake_clock,
                sleep=fake_sleep,
                policy=SupervisorPolicy(max_failures=2, backoff_initial_s=0.05),
            )
            futures_a = [runtime.submit("tiny_a", s) for s in samples_a[:8]]
            futures_b = [runtime.submit("tiny_b", s) for s in samples_b[:8]]
            runtime.stop(drain=True)

        assert all(f.exception(timeout=0) is not None for f in futures_a)
        got_b = np.stack([f.result(timeout=0) for f in futures_b])
        assert np.array_equal(got_b, engine_b.run(np.stack(samples_b[:8])))
        health = runtime.health()["models"]
        assert health["tiny_a"]["state"] == QUARANTINED
        assert health["tiny_b"]["state"] == RUNNING
        assert health["tiny_b"]["crashes"] == 0


class TestQuarantine:
    def test_quarantined_after_max_consecutive_failures(
        self, registry, fake_clock, fake_sleep, backoff_log, samples_a
    ):
        with installed(crashes(RUN, "tiny_a", always=True)):
            runtime = ServerRuntime(
                registry,
                ["tiny_a"],
                workers=1,
                max_batch=2,
                clock=fake_clock,
                sleep=fake_sleep,
                policy=SupervisorPolicy(
                    max_failures=3, backoff_initial_s=0.05, backoff_factor=2.0
                ),
            )
            futures = [runtime.submit("tiny_a", s) for s in samples_a[:6]]
            runtime.stop(drain=True)

        for future in futures:
            with pytest.raises(CrashError):
                future.result(timeout=0)
        # Two restarts (after failures 1 and 2), then quarantine — never a
        # third backoff.  Exact capped-exponential sequence:
        assert backoff_log == pytest.approx([0.05, 0.1])
        snap = runtime.health()["models"]["tiny_a"]
        assert snap["state"] == QUARANTINED
        assert snap["consecutive_failures"] == 3
        assert snap["restart_budget_remaining"] == 0
        assert "CrashError" in snap["last_error"]

    def test_submit_to_quarantined_model_raises_typed_error(
        self, registry, fake_clock, samples_a
    ):
        with installed(crashes(RUN, "tiny_a", always=True)):
            runtime = ServerRuntime(
                registry,
                ["tiny_a"],
                workers=1,
                max_batch=8,
                clock=fake_clock,
                sleep=fake_clock.sleeper(),
                policy=SupervisorPolicy(max_failures=1),
            )
            runtime.start()
            future = runtime.submit("tiny_a", samples_a[0])
            with pytest.raises(CrashError):
                future.result(timeout=10)
            # The single failure spent the whole budget: quarantined.
            with pytest.raises(ModelQuarantinedError, match="quarantined after 1"):
                runtime.submit("tiny_a", samples_a[1])
            assert runtime.metrics("tiny_a").rejected == 1
            runtime.stop(drain=True)

    def test_backoff_sequence_is_capped_exponential_until_quarantine(
        self, registry, fake_clock, fake_sleep, backoff_log, samples_a
    ):
        provider = ScriptedProvider({"tiny_a": [CrashError("build always fails")]})
        runtime = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            clock=fake_clock,
            sleep=fake_sleep,
            engine_provider=provider,
            policy=SupervisorPolicy(
                max_failures=6, backoff_initial_s=0.05, backoff_factor=4.0, backoff_cap_s=0.4
            ),
        )
        future = runtime.submit("tiny_a", samples_a[0])
        runtime.stop(drain=True)
        with pytest.raises(ModelQuarantinedError):
            future.result(timeout=0)
        # prime = failure 1; five backoffs before failures 2..6; then
        # quarantine fails the backlog so the drain terminates.
        assert backoff_log == pytest.approx([0.05, 0.2, 0.4, 0.4, 0.4])
        assert len(provider.calls) == 6


class TestFlakyBuilds:
    def test_build_crash_at_construction_starts_supervised_not_fatal(
        self, registry, engine_a, fake_clock, fake_sleep, backoff_log, samples_a
    ):
        with installed(crashes(BUILD, "tiny_a", calls=[1])) as plan:
            runtime = ServerRuntime(
                registry,
                ["tiny_a"],
                workers=1,
                max_batch=4,
                clock=fake_clock,
                sleep=fake_sleep,
                policy=SupervisorPolicy(max_failures=3, backoff_initial_s=0.05),
            )
            # Construction survived the build crash; the actor starts in backoff.
            snap = runtime.health()["models"]["tiny_a"]
            assert snap["state"] == BACKOFF
            assert snap["consecutive_failures"] == 1
            futures = [runtime.submit("tiny_a", s) for s in samples_a[:4]]
            runtime.stop(drain=True)
        got = np.stack([f.result(timeout=0) for f in futures])
        assert np.array_equal(got, engine_a.run(np.stack(samples_a[:4])))
        assert backoff_log == pytest.approx([0.05])
        assert plan.calls(BUILD) == 2
        assert runtime.health()["models"]["tiny_a"]["restarts"] == 1

    def test_permanently_broken_build_quarantines_and_drain_terminates(
        self, registry, fake_clock, fake_sleep, samples_a
    ):
        with installed(crashes(BUILD, "tiny_a", always=True)):
            runtime = ServerRuntime(
                registry,
                ["tiny_a"],
                workers=1,
                max_batch=4,
                clock=fake_clock,
                sleep=fake_sleep,
                policy=SupervisorPolicy(max_failures=2, backoff_initial_s=0.05),
            )
            futures = [runtime.submit("tiny_a", s) for s in samples_a[:3]]
            runtime.stop(drain=True)  # must return: quarantine fails the backlog
        for future in futures:
            with pytest.raises(ModelQuarantinedError):
                future.result(timeout=0)
        metrics = runtime.metrics("tiny_a")
        assert metrics.rejected == 3 and metrics.queue_depth == 0

    def test_flaky_registry_builder_is_supervised_too(
        self, deployed_a, engine_a, fake_clock, fake_sleep, samples_a
    ):
        # No injected provider: the *registry's* builder crashes once, and
        # the default provider path routes that through supervision.
        builds = []

        def flaky_build():
            builds.append(len(builds) + 1)
            if len(builds) == 1:
                raise CrashError("registry builder broke on build 1")
            return deployed_a

        reg = ModelRegistry()
        reg.register("tiny_a", flaky_build)
        runtime = ServerRuntime(
            reg,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            clock=fake_clock,
            sleep=fake_sleep,
            policy=SupervisorPolicy(max_failures=3, backoff_initial_s=0.05),
        )
        assert runtime.health()["models"]["tiny_a"]["state"] == BACKOFF
        futures = [runtime.submit("tiny_a", s) for s in samples_a[:2]]
        runtime.stop(drain=True)
        got = np.stack([f.result(timeout=0) for f in futures])
        assert np.array_equal(got, engine_a.run(np.stack(samples_a[:2])))


class TestRollover:
    def test_in_memory_rollover_swaps_content_and_labels_versions(
        self, registry, engine_a, fake_clock, samples_a
    ):
        runtime = ServerRuntime(
            registry, ["tiny_a"], workers=1, max_batch=4, clock=fake_clock
        ).start()
        first = [runtime.submit("tiny_a", s) for s in samples_a[:4]]
        got = np.stack([f.result(timeout=10) for f in first])
        assert np.array_equal(got, engine_a.run(np.stack(samples_a[:4])))
        v1 = runtime.health()["models"]["tiny_a"]["active_version"]

        new_artifact = tiny_deployed(seed=99, in_features=6, out_features=3, name="tiny_a")
        registry.register("tiny_a", lambda: new_artifact, replace=True)
        label = runtime.rollover("tiny_a")
        assert label is not None and label != v1
        second = [runtime.submit("tiny_a", s) for s in samples_a[4:8]]
        got2 = np.stack([f.result(timeout=10) for f in second])
        assert np.array_equal(got2, BatchedEngine(new_artifact).run(np.stack(samples_a[4:8])))
        assert all(f.serving_version == v1 for f in first)
        assert all(f.serving_version == label for f in second)
        runtime.stop(drain=True)

    def test_store_backed_rollover_tracks_published_versions(
        self, tmp_path, deployed_a, engine_a, fake_clock, samples_a
    ):
        store = ArtifactStore(tmp_path / "store")
        assert store.publish_deployed("tiny_a", deployed_a) == 1
        reg = ModelRegistry.from_store(store)
        runtime = ServerRuntime(
            reg, ["tiny_a"], workers=1, max_batch=4, clock=fake_clock
        ).start()
        f1 = runtime.submit("tiny_a", samples_a[0])
        assert np.array_equal(
            f1.result(timeout=10), engine_a.run(samples_a[0][None])[0]
        )
        assert f1.serving_version == "v0001"

        newer = tiny_deployed(seed=77, in_features=6, out_features=3, name="tiny_a")
        assert store.publish_deployed("tiny_a", newer) == 2
        assert runtime.rollover("tiny_a") == "v0002"  # None = newest published
        f2 = runtime.submit("tiny_a", samples_a[1])
        assert np.array_equal(
            f2.result(timeout=10), BatchedEngine(newer).run(samples_a[1][None])[0]
        )
        assert f2.serving_version == "v0002"

        # Roll *back* by pinning the explicit version.
        assert runtime.rollover("tiny_a", version=1) == "v0001"
        f3 = runtime.submit("tiny_a", samples_a[2])
        assert np.array_equal(
            f3.result(timeout=10), engine_a.run(samples_a[2][None])[0]
        )
        assert f3.serving_version == "v0001"
        runtime.stop(drain=True)

    def test_rollover_reinstates_a_quarantined_model(
        self, registry, engine_a, fake_clock, samples_a
    ):
        provider = ScriptedProvider(
            {"tiny_a": [CrashError("broken"), (engine_a, "fixed")]}
        )
        runtime = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            clock=fake_clock,
            sleep=fake_clock.sleeper(),
            engine_provider=provider,
            policy=SupervisorPolicy(max_failures=1),
        ).start()
        # prime spent the whole failure budget: quarantined immediately.
        with pytest.raises(ModelQuarantinedError):
            runtime.submit("tiny_a", samples_a[0])
        assert runtime.rollover("tiny_a") == "fixed"
        snap = runtime.health()["models"]["tiny_a"]
        assert snap["state"] == RUNNING and snap["consecutive_failures"] == 0
        future = runtime.submit("tiny_a", samples_a[0])
        assert np.array_equal(
            future.result(timeout=10), engine_a.run(samples_a[0][None])[0]
        )
        runtime.stop(drain=True)

    def test_failed_rollover_leaves_current_version_serving(
        self, registry, engine_a, fake_clock, samples_a
    ):
        provider = ScriptedProvider(
            {"tiny_a": [(engine_a, "v-live"), CrashError("bad artifact")]}
        )
        runtime = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            clock=fake_clock,
            engine_provider=provider,
        )
        with pytest.raises(CrashError, match="bad artifact"):
            runtime.rollover("tiny_a")
        snap = runtime.health()["models"]["tiny_a"]
        assert snap["state"] == RUNNING and snap["active_version"] == "v-live"
        future = runtime.submit("tiny_a", samples_a[0])
        runtime.stop(drain=True)
        assert np.array_equal(
            future.result(timeout=0), engine_a.run(samples_a[0][None])[0]
        )

    def test_injected_rollover_crash_leaves_current_version_serving(
        self, registry, engine_a, fake_clock, samples_a
    ):
        # Build 1 is prime's resolution; build 2 is the rollover's.
        with installed(crashes(BUILD, "tiny_a", calls=[2])) as plan:
            runtime = ServerRuntime(
                registry, ["tiny_a"], workers=1, max_batch=4, clock=fake_clock
            )
            with pytest.raises(CrashError, match="tiny_a: scheduled crash at serve.builder.build"):
                runtime.rollover("tiny_a")
            future = runtime.submit("tiny_a", samples_a[0])
            runtime.stop(drain=True)
        assert plan.calls(BUILD) == 2
        snap = runtime.health()["models"]["tiny_a"]
        assert snap["state"] == RUNNING and snap["crashes"] == 0
        assert np.array_equal(
            future.result(timeout=0), engine_a.run(samples_a[0][None])[0]
        )

    def test_rollover_after_stop_is_refused(self, registry, fake_clock):
        runtime = ServerRuntime(registry, ["tiny_a"], workers=1, clock=fake_clock)
        runtime.stop()
        with pytest.raises(ServerClosedError):
            runtime.rollover("tiny_a")


class TestHealthSurface:
    def test_health_is_structured_and_json_serializable(
        self, registry, fake_clock, samples_a
    ):
        runtime = ServerRuntime(
            registry,
            ["tiny_a", "tiny_b"],
            workers=3,
            max_batch=8,
            max_queue=32,
            clock=fake_clock,
        )
        futures = [runtime.submit("tiny_a", s) for s in samples_a[:3]]
        health = runtime.health()
        assert health["workers_per_model"] == 3 and health["max_batch"] == 8
        assert health["max_queue"] == 32 and health["stopping"] is False
        assert set(health["models"]) == {"tiny_a", "tiny_b"}
        snap = health["models"]["tiny_a"]
        for key in (
            "state", "active_version", "restarts", "consecutive_failures",
            "restart_budget_remaining", "crashes", "last_error",
            "queue_depth", "submitted", "completed", "rejected", "crashed",
            "latency_p99_s", "throughput_rps",
        ):
            assert key in snap, key
        assert snap["queue_depth"] == 3
        assert health["policy"]["max_failures"] == 3
        json.dumps(health)  # NaN percentiles are permitted by json's default
        runtime.stop(drain=True)
        assert all(f.done() for f in futures)
        assert runtime.health()["stopping"] is True


@pytest.mark.stress
class TestSupervisionStress:
    def test_actors_killed_mid_stream_recover_and_drain_clean(
        self, registry, engine_a, engine_b, samples_a, samples_b
    ):
        """Real threads, real (tiny) backoff: crashes injected mid-stream
        must restart-with-backoff, a permanently broken model must
        quarantine, and shutdown must drain with every future resolved —
        nothing dropped, nothing double-served, healthy model untouched."""
        # Six of tiny_a's first 40 batches crash, drawn from a seeded RNG.
        schedule = np.random.default_rng(5).choice(40, size=6, replace=False) + 1
        with installed(crashes(RUN, "tiny_a", calls=sorted(int(c) for c in schedule))):
            runtime = ServerRuntime(
                registry,
                ["tiny_a", "tiny_b"],
                workers=3,
                max_batch=4,
                max_queue=4096,
                policy=SupervisorPolicy(
                    max_failures=50, backoff_initial_s=0.001, backoff_cap_s=0.01
                ),
            ).start()
            futures_a, futures_b = [], []
            for i in range(200):
                futures_a.append(runtime.submit("tiny_a", samples_a[i % 16]))
                futures_b.append(runtime.submit("tiny_b", samples_b[i % 16]))
                if i == 100:
                    runtime.rollover("tiny_a")  # hot swap under load
            runtime.stop(drain=True)

        resolved_a = sum(1 for f in futures_a if f.done())
        assert resolved_a == len(futures_a)  # nothing dropped
        ok, crashed = 0, 0
        for i, future in enumerate(futures_a):
            error = future.exception(timeout=0)
            if error is None:
                expected = engine_a.run(samples_a[i % 16][None])[0]
                assert np.array_equal(future.result(timeout=0), expected)
                ok += 1
            else:
                assert isinstance(error, CrashError)
                crashed += 1
        assert crashed >= 1 and ok + crashed == 200
        # The healthy model never saw a failure.
        got_b = [f.result(timeout=0) for f in futures_b]
        for i, row in enumerate(got_b):
            assert np.array_equal(row, engine_b.run(samples_b[i % 16][None])[0])
        health = runtime.health()["models"]
        assert health["tiny_a"]["crashes"] >= 1
        assert health["tiny_a"]["restarts"] >= 1  # restarted with backoff
        assert health["tiny_b"]["crashes"] == 0
        metrics_a = runtime.metrics("tiny_a")
        assert metrics_a.submitted == 200
        assert metrics_a.completed + metrics_a.crashed + metrics_a.rejected == 200
        assert metrics_a.queue_depth == 0

    def test_permanently_broken_model_quarantines_under_load(
        self, registry, samples_a
    ):
        with installed(crashes(RUN, "tiny_a", always=True)):
            runtime = ServerRuntime(
                registry,
                ["tiny_a"],
                workers=2,
                max_batch=4,
                max_queue=4096,
                policy=SupervisorPolicy(
                    max_failures=3, backoff_initial_s=0.001, backoff_cap_s=0.01
                ),
            ).start()
            futures = [runtime.submit("tiny_a", samples_a[i % 16]) for i in range(100)]
            runtime.stop(drain=True)  # drain terminates: quarantine fails the backlog
        assert all(f.done() for f in futures)
        errors = {type(f.exception(timeout=0)).__name__ for f in futures}
        assert errors <= {"CrashError", "ModelQuarantinedError"}
        assert runtime.health()["models"]["tiny_a"]["state"] == QUARANTINED
