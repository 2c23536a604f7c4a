"""ServerRuntime process-worker mode: identity, metrics, health, crashes, pool death."""

import threading
import time

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultRule, installed
from repro.core.engine import BatchedEngine
from repro.parallel import PoolClosedError, SharedEngineProxy, WorkerCrashedError
from repro.parallel import worker as worker_mod
from repro.serve import CrashError, ModelQuarantinedError, ServerRuntime, SupervisorPolicy


def _requests(n, features, seed=5):
    return np.random.default_rng(seed).normal(scale=0.5, size=(n, features)).astype(np.float32)


class TestProcessServing:
    def test_bit_identical_with_unchanged_metrics_and_health(
        self, registry, engine_a, engine_b
    ):
        """Process placement is invisible except for where the FLOPs run."""
        xa, xb = _requests(17, 6, seed=7), _requests(13, 5, seed=8)
        rt = ServerRuntime(
            registry,
            ["tiny_a", "tiny_b"],
            workers=2,
            max_batch=4,
            max_queue=64,
            backend="process",
            pool_workers=2,
        )
        rt.start()
        fa = [rt.submit("tiny_a", s) for s in xa]
        fb = [rt.submit("tiny_b", s) for s in xb]
        assert np.array_equal(np.stack([f.result(30) for f in fa]), engine_a.run(xa))
        assert np.array_equal(np.stack([f.result(30) for f in fb]), engine_b.run(xb))

        # Metrics and health keep their thread-backend shape and meaning.
        ma, mb = rt.metrics("tiny_a"), rt.metrics("tiny_b")
        assert ma.completed == 17 and mb.completed == 13
        health = rt.health()
        assert set(health["models"]) == {"tiny_a", "tiny_b"}
        assert all(m["state"] == "running" for m in health["models"].values())

        # Each hosted model was published exactly once into the arena,
        # and the serving workers decoded nothing themselves.
        assert len(rt._arena) == 2 and rt._arena.created == 2
        stats = rt._runner.call(worker_mod.worker_stats)
        assert stats["plane_decodes"] == 0
        assert stats["attached_segments"] <= 2
        rt.stop()

    def test_actors_hold_shared_engine_proxies(self, registry):
        rt = ServerRuntime(
            registry, ["tiny_a"], workers=1, backend="process", pool_workers=1
        )
        try:
            actor = rt._actors["tiny_a"]
            assert isinstance(actor.engine, SharedEngineProxy)
        finally:
            rt.stop(drain=False)

    def test_stop_closes_pool_and_unlinks_segments(self, registry, engine_a):
        from multiprocessing import shared_memory

        x = _requests(4, 6)
        rt = ServerRuntime(
            registry, ["tiny_a"], workers=1, backend="process", pool_workers=1
        ).start()
        futures = [rt.submit("tiny_a", s) for s in x]
        assert np.array_equal(np.stack([f.result(30) for f in futures]), engine_a.run(x))
        segment = next(iter(rt._arena._segments.values()))[1].segment
        rt.stop()
        with pytest.raises(PoolClosedError):
            rt._runner.submit(worker_mod.echo, 1)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)

    def test_engines_without_artifacts_pass_through(self, registry, engine_a):
        """Test doubles lacking ``.deployed`` keep executing in-process."""

        class BareEngine:
            input_shape = engine_a.input_shape

            def run(self, x):
                return engine_a.run(x)

        bare = BareEngine()

        def provider(name, version):
            return bare, "v-test"

        x = _requests(3, 6)
        rt = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            backend="process",
            pool_workers=1,
            engine_provider=provider,
        ).start()
        try:
            futures = [rt.submit("tiny_a", s) for s in x]
            assert np.array_equal(
                np.stack([f.result(30) for f in futures]), engine_a.run(x)
            )
            assert rt._actors["tiny_a"].engine is bare
            assert len(rt._arena) == 0  # nothing published for the double
        finally:
            rt.stop(drain=False)

    def test_backend_validation(self, registry):
        with pytest.raises(ValueError, match="unknown backend"):
            ServerRuntime(registry, ["tiny_a"], backend="fiber")


class TestCrashRestart:
    def test_scheduled_crashes_restart_and_serve_exact_survivors(
        self, registry, engine_a, fake_clock, fake_sleep, backoff_log
    ):
        """The engine site fires parent-side, so shared-engine proxies crash too."""
        x = _requests(8, 6)
        plan = FaultPlan(
            rules=[
                FaultRule(
                    site="serve.engine.run",
                    fault="crash",
                    trigger={"match": {"name": "tiny_a"}, "calls": [1, 3]},
                )
            ]
        )
        with installed(plan):
            rt = ServerRuntime(
                registry,
                ["tiny_a"],
                workers=1,
                max_batch=2,
                backend="process",
                pool_workers=1,
                clock=fake_clock,
                sleep=fake_sleep,
                policy=SupervisorPolicy(max_failures=3, backoff_initial_s=0.05),
            )
            assert isinstance(rt._actors["tiny_a"].engine, SharedEngineProxy)
            futures = [rt.submit("tiny_a", s) for s in x]
            rt.stop(drain=True)  # unstarted: drains inline, batch by batch

        # Batches 1 and 3 (requests 0-1 and 4-5) died; the rest survived.
        survivors = [2, 3, 6, 7]
        for i, future in enumerate(futures):
            if i in survivors:
                assert np.array_equal(future.result(timeout=0), engine_a.run(x[i][None])[0])
            else:
                with pytest.raises(CrashError, match="tiny_a: scheduled crash"):
                    future.result(timeout=0)
        assert plan.calls("serve.engine.run") == 4
        assert backoff_log == pytest.approx([0.05, 0.05])
        snap = rt.health()["models"]["tiny_a"]
        assert snap["state"] == "running"
        assert snap["crashes"] == 2 and snap["restarts"] == 2
        metrics = rt.metrics("tiny_a")
        assert metrics.completed == 4 and metrics.crashed == 4


class TestPoolDeath:
    def test_dead_pool_fails_typed_and_quarantines(self, registry, engine_a):
        """Killed workers surface WorkerCrashedError, then quarantine — no hang."""
        x = _requests(3, 6)
        rt = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_queue=16,
            backend="process",
            pool_workers=1,
            policy=SupervisorPolicy(max_failures=1),
        ).start()
        try:
            assert rt.submit("tiny_a", x[0]).result(30) is not None

            # Kill the worker out from under the runtime (OOM-killer stand-in).
            with pytest.raises(WorkerCrashedError):
                rt._runner.submit(worker_mod.crash).result(30)
            assert rt._runner.broken

            with pytest.raises(WorkerCrashedError):
                rt.submit("tiny_a", x[1]).result(30)

            # max_failures=1: the actor quarantines rather than crash-looping.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if rt.health()["models"]["tiny_a"]["state"] == "quarantined":
                    break
                time.sleep(0.02)
            assert rt.health()["models"]["tiny_a"]["state"] == "quarantined"
            with pytest.raises(ModelQuarantinedError):
                rt.submit("tiny_a", x[2])
        finally:
            rt.stop(drain=False)


class TestRolloverUnderWorkerKill:
    def test_sigkill_mid_rollover_is_typed_bounded_and_exact(
        self, registry, deployed_a, make_tiny_deployed, tmp_path
    ):
        """A worker SIGKILLed while ``rollover()`` resolves the new version:
        every wait is bounded, every failure is typed, and every served
        future is bit-identical to the version it names.

        The provider parks the rollover mid-resolve until the kill has
        happened; the plan is installed only then, so the first pool
        submit after it (the next batch on the old version) is the one
        that kills.  One dead worker breaks the whole pool, so after the
        swap the new version crashes until the model quarantines.
        """
        engines = {
            "v1": BatchedEngine(deployed_a),
            "v2": BatchedEngine(make_tiny_deployed(99, 6, 3, "tiny_a")),
        }
        current = {"label": "v1"}
        resolving = threading.Event()
        killed = tmp_path / "killed"

        def provider(name, version):
            if version is not None:  # the rollover's resolution
                resolving.set()
                deadline = time.monotonic() + 30
                while not killed.exists():
                    assert time.monotonic() < deadline, "the kill never happened"
                    time.sleep(0.005)
                current["label"] = "v2"
            label = current["label"]
            return engines[label], label

        plan = FaultPlan(
            rules=[
                FaultRule(
                    site="parallel.pool.submit",
                    fault="sigkill-worker",
                    trigger={"calls": [1]},
                    params={"release": str(killed)},
                )
            ]
        )
        typed = (WorkerCrashedError, CrashError, ModelQuarantinedError)
        x = _requests(24, 6, seed=11)
        rt = ServerRuntime(
            registry,
            ["tiny_a"],
            workers=1,
            max_batch=4,
            max_queue=64,
            backend="process",
            pool_workers=2,
            engine_provider=provider,
            policy=SupervisorPolicy(max_failures=2, backoff_initial_s=0.01),
        ).start()
        futures, refused = [], []

        def send(samples):
            for sample in samples:
                try:
                    futures.append((sample, rt.submit("tiny_a", sample)))
                except typed as error:
                    refused.append(error)

        def settle():
            for _, future in futures:
                future.exception(timeout=30)  # raises TimeoutError on a hang

        try:
            send(x[:8])  # before the rollover: a healthy pool
            settle()
            outcome = []
            roller = threading.Thread(
                target=lambda: outcome.append(rt.rollover("tiny_a")), daemon=True
            )
            roller.start()
            assert resolving.wait(30)
            with installed(plan):
                send(x[8:16])  # mid-rollover, on the old version
                settle()
            roller.join(30)
            assert not roller.is_alive() and outcome == ["v2"]
            assert plan.fired == [("parallel.pool.submit", 1, "sigkill-worker")]
            deadline = time.monotonic() + 30
            while not rt._runner.broken:
                assert time.monotonic() < deadline, "the dead worker went unnoticed"
                time.sleep(0.01)
            send(x[16:])  # after the swap, on a broken pool
            settle()
        finally:
            rt.stop(drain=False)

        served = 0
        for sample, future in futures:
            error = future.exception(timeout=0)
            if error is not None:
                assert isinstance(error, typed), repr(error)
                continue
            version = future.serving_version
            expected = engines[version].run(sample[None])[0]
            assert np.array_equal(future.result(timeout=0), expected), version
            served += 1
        assert all(isinstance(error, typed) for error in refused)
        assert served >= 8  # the pre-rollover traffic at least
        assert rt.health()["models"]["tiny_a"]["state"] == "quarantined"
