"""Serving gates: throughput, sustained-load p99, zero-drop rollover, crash isolation.

Every gate runs the supervised :class:`~repro.serve.ServerRuntime` over
the zoo's two serving entry points at serving scale (size-8
``cifar10_full`` and ``alexnet`` artifacts — high request rates against
small models is exactly the regime micro-batching exists for), built
once per module:

* **Throughput** — a concurrent runtime (4 workers × micro-batch 64,
  open loop, all clients' requests in flight at once, interleaved across
  models) must deliver ≥ 3x the requests/sec of the serialized baseline
  (one worker, micro-batch 1, closed loop: the naive synchronous
  one-thread server), with every future bit-identical to a solo engine
  run (no cross-model bleed, no loss).  Micro-batching amortizes the
  per-call dispatch that dominates solo runs, and the BLAS kernels
  release the GIL so batches of different models overlap.
* **Sustained-load p99** — a paced open-loop stream (bounded in-flight
  window, ~half the machine's measured capacity) against the runtime's
  greedy batching must keep the served p99 under the 50 ms target.
* **Rollover under load** — ``rollover()`` fired mid-stream between two
  store-published versions must drop nothing: every future resolves,
  each is bit-identical to the engine of whichever version served it
  (the future's ``serving_version`` says which), and both versions
  actually serve traffic.
* **Crash isolation** — scheduled crashes injected into one model's
  batches (a :class:`~repro.chaos.FaultPlan` on the ``serve.engine.run``
  site) must leave the other model's stream untouched (every response
  bit-identical, zero failures) while the crashed model restarts and
  keeps serving.

The wall-clock gates (throughput ratio, p99) are ``full_only``:
wall-clock numbers mean nothing on a loaded smoke machine.  The
bit-identity and exactly-once accounting checks run in ``--quick`` too.
Measured numbers land in ``benchmarks/BENCH_serve_slo.json`` on full
runs via the shared ``bench_metrics`` fixture.
"""

import time

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultRule, installed
from repro.io.store import ArtifactStore
from repro.serve import (
    CrashError,
    ModelRegistry,
    ServerRuntime,
    SupervisorPolicy,
)
from repro.zoo import alexnet_deployable, cifar10_full_deployable

MODELS = ("cifar10_full", "alexnet")
REQUESTS_PER_MODEL = 256  # per model, throughput gate
WORKERS = 4
MAX_BATCH = 64
GATE = 3.0  # concurrent / serialized requests per second

#: Served-latency SLO for the sustained-load gate: generous (~50x) over
#: the size-8 artifact's per-batch cost, tight against real regressions
#: (an engine recompile per batch or a lost-wakeup stall blows through it).
TARGET_P99_S = 0.05
WINDOW = 32  # in-flight requests per pacing wave


@pytest.fixture(scope="module")
def registry():
    """The size-8 serving registry, every engine compiled outside the timers."""
    registry = ModelRegistry()
    registry.register("cifar10_full", lambda: cifar10_full_deployable(size=8))
    registry.register("alexnet", lambda: alexnet_deployable(size=8))
    for name in MODELS:
        registry.engine(name)
    return registry


@pytest.fixture(scope="module")
def model_versions():
    """Two distinct deployable builds of cifar10_full (seed 0 vs seed 1)."""
    return {
        "v1": cifar10_full_deployable(size=8, seed=0),
        "v2": cifar10_full_deployable(size=8, seed=1),
    }


def _paced_stream(runtime, name, requests):
    """Open-loop in waves: at most WINDOW requests in flight at once."""
    futures = []
    start = time.perf_counter()
    for lo in range(0, len(requests), WINDOW):
        wave = [runtime.submit(name, s) for s in requests[lo : lo + WINDOW]]
        futures.extend(wave)
        for future in wave:
            future.result(timeout=120)
    return time.perf_counter() - start, futures


class TestThroughput:
    @pytest.fixture(scope="class")
    def requests(self, registry, quick):
        """Per-model request batches (smaller in --quick)."""
        per_model = 32 if quick else REQUESTS_PER_MODEL
        rng = np.random.default_rng(11)
        return {
            name: rng.normal(
                scale=0.5, size=(per_model,) + registry.engine(name).input_shape
            ).astype(np.float32)
            for name in MODELS
        }

    @staticmethod
    def _serialized(registry, requests):
        """Closed loop, one worker, batch 1: strictly one request at a time."""
        runtime = ServerRuntime(registry, MODELS, workers=1, max_batch=1, max_queue=4)
        start = time.perf_counter()
        with runtime:
            for i in range(len(requests[MODELS[0]])):
                for name in MODELS:
                    runtime.submit(name, requests[name][i]).result(timeout=120)
        return time.perf_counter() - start

    @staticmethod
    def _concurrent(registry, requests):
        """Open loop, worker pool, micro-batches: everything in flight at once."""
        runtime = ServerRuntime(
            registry, MODELS, workers=WORKERS, max_batch=MAX_BATCH, max_queue=10_000
        )
        start = time.perf_counter()
        with runtime:
            futures = [
                (name, i, runtime.submit(name, requests[name][i]))
                for i in range(len(requests[MODELS[0]]))
                for name in MODELS  # interleaved, as concurrent client traffic
            ]
            for _, _, future in futures:
                future.result(timeout=120)
        return time.perf_counter() - start, futures

    @staticmethod
    def _assert_bit_identical(registry, requests, futures):
        references = {name: registry.engine(name).run(requests[name]) for name in MODELS}
        for name, i, future in futures:
            assert np.array_equal(future.result(0), references[name][i]), (name, i)

    def test_bench_serialized_baseline(self, registry, requests, benchmark):
        benchmark(self._serialized, registry, requests)

    def test_bench_concurrent_runtime(self, registry, requests, benchmark):
        benchmark(self._concurrent, registry, requests)

    def test_concurrent_bit_identical(self, registry, requests):
        """Every future resolves exactly as a solo engine run (quick mode too)."""
        _, futures = self._concurrent(registry, requests)
        self._assert_bit_identical(registry, requests, futures)

    def test_concurrent_3x_serialized_and_bit_identical(
        self, registry, requests, full_only, bench_metrics
    ):
        """Acceptance gate: ≥ 3x the 1-worker serialized baseline, exact outputs."""
        total = sum(len(batch) for batch in requests.values())

        self._concurrent(registry, requests)  # warm the pool/allocator paths outside the timers
        serial_s = min(self._serialized(registry, requests) for _ in range(3))
        concurrent_s, futures = min(
            (self._concurrent(registry, requests) for _ in range(3)), key=lambda pair: pair[0]
        )
        self._assert_bit_identical(registry, requests, futures)

        serial_rps = total / serial_s
        concurrent_rps = total / concurrent_s
        speedup = concurrent_rps / serial_rps
        print(
            f"\n{total} requests over {len(MODELS)} models: "
            f"serialized {serial_rps:.0f} req/s, concurrent {concurrent_rps:.0f} req/s "
            f"({speedup:.1f}x)"
        )
        bench_metrics["serialized_rps"] = round(serial_rps, 1)
        bench_metrics["concurrent_rps"] = round(concurrent_rps, 1)
        bench_metrics["concurrent_speedup"] = round(speedup, 2)
        assert speedup >= GATE, f"concurrent runtime only {speedup:.2f}x over serialized baseline"


class TestSustainedLoadP99:
    def _runtime(self, registry):
        return ServerRuntime(
            registry,
            ["cifar10_full"],
            workers=2,
            max_batch=WINDOW,
            max_queue=10_000,
        )

    def test_paced_stream_accounting_is_exact(self, registry, quick):
        """Quick-safe: the pacing loop loses and double-serves nothing."""
        n = 64 if quick else 512
        rng = np.random.default_rng(5)
        shape = registry.engine("cifar10_full").input_shape
        requests = rng.normal(scale=0.5, size=(n,) + shape).astype(np.float32)
        runtime = self._runtime(registry)
        with runtime:
            _, futures = _paced_stream(runtime, "cifar10_full", requests)
        assert len(futures) == n and all(f.exception(timeout=0) is None for f in futures)
        metrics = runtime.metrics("cifar10_full")
        assert metrics.submitted == metrics.completed == n
        assert metrics.rejected == 0 and metrics.crashed == 0
        assert metrics.queue_depth == 0

    def test_sustained_p99_meets_target(self, registry, full_only, bench_metrics):
        """Acceptance gate: served p99 under the SLO target, sustained."""
        n = 2048
        rng = np.random.default_rng(6)
        shape = registry.engine("cifar10_full").input_shape
        requests = rng.normal(scale=0.5, size=(n,) + shape).astype(np.float32)
        runtime = self._runtime(registry)
        with runtime:
            _paced_stream(runtime, "cifar10_full", requests[:WINDOW])  # warm
            elapsed, futures = _paced_stream(runtime, "cifar10_full", requests)
        snap = runtime.metrics("cifar10_full").snapshot()
        p99_ms = 1e3 * snap["latency_p99_s"]
        rps = n / elapsed
        print(
            f"\nsustained {rps:.0f} req/s over {n} requests: "
            f"p50 {1e3 * snap['latency_p50_s']:.2f} ms, p99 {p99_ms:.2f} ms "
            f"(target {1e3 * TARGET_P99_S:.0f} ms)"
        )
        bench_metrics["sustained_rps"] = round(rps, 1)
        bench_metrics["sustained_p99_ms"] = round(p99_ms, 3)
        bench_metrics["target_p99_ms"] = 1e3 * TARGET_P99_S
        assert len(futures) == n
        assert snap["latency_p99_s"] <= TARGET_P99_S, (
            f"sustained p99 {p99_ms:.2f} ms blew the {1e3 * TARGET_P99_S:.0f} ms SLO"
        )


class TestRolloverUnderLoad:
    def test_zero_drops_and_per_version_bit_identity(
        self, model_versions, tmp_path, quick, bench_metrics
    ):
        from repro.core.engine import BatchedEngine

        per_phase = 32 if quick else 512
        store = ArtifactStore(tmp_path / "store")
        assert store.publish_deployed("cifar10_full", model_versions["v1"]) == 1
        registry = ModelRegistry.from_store(store)
        references = {
            "v0001": BatchedEngine(model_versions["v1"]),
            "v0002": BatchedEngine(model_versions["v2"]),
        }
        shape = references["v0001"].input_shape
        rng = np.random.default_rng(7)
        requests = rng.normal(scale=0.5, size=(2 * per_phase,) + shape).astype(np.float32)

        runtime = ServerRuntime(
            registry, ["cifar10_full"], workers=2, max_batch=16, max_queue=10_000
        ).start()
        plan = []
        anchored = per_phase // 2
        start = time.perf_counter()
        for i in range(per_phase):  # old version serving, backlog live
            plan.append((i, runtime.submit("cifar10_full", requests[i])))
        for _, future in plan[:anchored]:
            future.result(timeout=120)  # guaranteed served by the old version
        # The new version is published and swapped in mid-stream.
        assert store.publish_deployed("cifar10_full", model_versions["v2"]) == 2
        label = runtime.rollover("cifar10_full")  # hot swap, backlog in flight
        for i in range(per_phase, 2 * per_phase):
            plan.append((i, runtime.submit("cifar10_full", requests[i])))
        runtime.stop(drain=True)
        elapsed = time.perf_counter() - start

        assert label == "v0002"
        served_by = {"v0001": 0, "v0002": 0}
        for i, future in plan:
            assert future.done(), f"request {i} dropped"
            assert future.exception(timeout=0) is None, f"request {i} failed"
            version = future.serving_version
            expected = references[version].run(requests[i][None])[0]
            assert np.array_equal(future.result(timeout=0), expected), (i, version)
            served_by[version] += 1
        # The swap happened mid-stream: the anchored prefix ran on the old
        # version, everything submitted after the swap on the new one.
        assert served_by["v0001"] >= anchored and served_by["v0002"] >= per_phase
        metrics = runtime.metrics("cifar10_full")
        assert metrics.completed == 2 * per_phase and metrics.queue_depth == 0
        assert runtime.health()["models"]["cifar10_full"]["active_version"] == "v0002"
        bench_metrics["rollover_requests"] = 2 * per_phase
        bench_metrics["rollover_dropped"] = 0
        bench_metrics["rollover_rps"] = round(2 * per_phase / elapsed, 1)


class TestCrashIsolation:
    def test_injected_crashes_never_touch_the_healthy_model(self, registry, quick, bench_metrics):
        per_model = 48 if quick else 384
        real = {name: registry.engine(name) for name in MODELS}
        # Crash cifar10_full's batches 2 and 5: with max_batch=8 even the
        # --quick stream (48 requests => >= 6 claims) is guaranteed to hit both.
        faults = FaultPlan(
            rules=[
                FaultRule(
                    site="serve.engine.run",
                    fault="crash",
                    trigger={"match": {"name": "cifar10_full"}, "calls": [2, 5]},
                )
            ]
        )

        rng = np.random.default_rng(8)
        samples = {
            name: rng.normal(
                scale=0.5, size=(per_model,) + real[name].input_shape
            ).astype(np.float32)
            for name in real
        }
        with installed(faults):
            runtime = ServerRuntime(
                registry,
                MODELS,
                workers=2,
                max_batch=8,
                max_queue=10_000,
                policy=SupervisorPolicy(
                    max_failures=20, backoff_initial_s=0.001, backoff_cap_s=0.01
                ),
            ).start()
            futures = {
                name: [runtime.submit(name, s) for s in samples[name]] for name in real
            }
            runtime.stop(drain=True)

        # Healthy model: untouched — every response exact, zero failures.
        expected_b = real["alexnet"].run(samples["alexnet"])
        for i, future in enumerate(futures["alexnet"]):
            assert np.array_equal(future.result(timeout=0), expected_b[i]), i
        # Crashing model: failures are only the injected ones, survivors
        # exact, and the actor restarted rather than staying dead.
        ok = crashed = 0
        expected_a = real["cifar10_full"].run(samples["cifar10_full"])
        for i, future in enumerate(futures["cifar10_full"]):
            error = future.exception(timeout=0)
            if error is None:
                assert np.array_equal(future.result(timeout=0), expected_a[i]), i
                ok += 1
            else:
                assert isinstance(error, CrashError)
                crashed += 1
        assert crashed >= 1 and ok >= 1 and ok + crashed == per_model
        health = runtime.health()["models"]
        assert health["alexnet"]["crashes"] == 0
        assert health["cifar10_full"]["crashes"] >= 1
        assert health["cifar10_full"]["restarts"] >= 1
        assert health["cifar10_full"]["state"] == "running"
        bench_metrics["isolation_crashed_requests"] = crashed
        bench_metrics["isolation_served_requests"] = ok
        bench_metrics["isolation_healthy_failures"] = 0
