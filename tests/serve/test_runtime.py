"""ServerRuntime: admission control, drain/reject shutdown, concurrency.

The stress test at the bottom is the PR's concurrency gate: many client
threads interleaving requests to two hosted models must see no
cross-model bleed, every admitted future resolved bit-identically, and
rejection counts exactly matching the admission-control bound.
"""

import threading

import numpy as np
import pytest

from repro.serve import (
    QueueFullError,
    ServeError,
    ServerClosedError,
    ServerRuntime,
    UnknownModelError,
)


@pytest.fixture
def runtime(registry):
    """An unstarted two-model runtime (submissions queue deterministically)."""
    return ServerRuntime(registry, ["tiny_a", "tiny_b"], workers=2, max_batch=4, max_queue=8)


def _requests(n, features, seed=5):
    return np.random.default_rng(seed).normal(scale=0.5, size=(n, features)).astype(np.float32)


class TestValidation:
    def test_rejects_bad_pool_parameters(self, registry):
        with pytest.raises(ValueError, match="worker"):
            ServerRuntime(registry, ["tiny_a"], workers=0)
        with pytest.raises(ValueError, match="max_batch"):
            ServerRuntime(registry, ["tiny_a"], max_batch=0)
        with pytest.raises(ValueError, match="max_queue"):
            ServerRuntime(registry, ["tiny_a"], max_queue=0)
        with pytest.raises(ValueError, match="at least one model"):
            ServerRuntime(registry, [])
        with pytest.raises(ValueError, match="duplicate"):
            ServerRuntime(registry, ["tiny_a", "tiny_a"])
        with pytest.raises(ValueError, match="pool_workers needs backend='process'"):
            ServerRuntime(registry, ["tiny_a"], pool_workers=2)

    def test_unknown_model_at_construction(self, registry):
        with pytest.raises(UnknownModelError):
            ServerRuntime(registry, ["tiny_a", "ghost"])

    def test_submit_validates_model_and_shape(self, runtime):
        with pytest.raises(UnknownModelError):
            runtime.submit("ghost", np.zeros(6, dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            runtime.submit("tiny_a", np.zeros(5, dtype=np.float32))  # that's B's shape

    def test_models_listed_in_hosting_order(self, runtime):
        assert runtime.models() == ["tiny_a", "tiny_b"]


class TestAdmissionControl:
    def test_queue_bound_sheds_with_typed_error(self, runtime, engine_a):
        x = _requests(9, 6)
        for i in range(8):  # fill to the bound before any worker runs
            runtime.submit("tiny_a", x[i])
        assert runtime.queue_depth("tiny_a") == 8
        with pytest.raises(QueueFullError) as excinfo:
            runtime.submit("tiny_a", x[8])
        assert isinstance(excinfo.value, ServeError)
        assert excinfo.value.model == "tiny_a"
        assert excinfo.value.bound == 8
        metrics = runtime.metrics("tiny_a")
        assert metrics.rejected == 1 and metrics.submitted == 8
        # the other model's queue is unaffected by A's pressure
        runtime.submit("tiny_b", np.zeros(5, dtype=np.float32))
        runtime.stop(drain=True)

    def test_shed_request_future_never_created(self, runtime):
        x = _requests(8, 6)
        futures = [runtime.submit("tiny_a", x[i]) for i in range(8)]
        with pytest.raises(QueueFullError):
            runtime.submit("tiny_a", x[0])
        runtime.stop(drain=True)
        assert all(f.done() for f in futures)


class TestShutdown:
    def test_stop_drains_unstarted_runtime_inline(self, runtime, engine_a, engine_b):
        """Regression: queued work survives shutdown even without workers."""
        xa, xb = _requests(6, 6), _requests(5, 5)
        fa = [runtime.submit("tiny_a", s) for s in xa]
        fb = [runtime.submit("tiny_b", s) for s in xb]
        runtime.stop(drain=True)
        assert np.array_equal(np.stack([f.result(0) for f in fa]), engine_a.run(xa))
        assert np.array_equal(np.stack([f.result(0) for f in fb]), engine_b.run(xb))
        assert runtime.queue_depth("tiny_a") == 0 and runtime.queue_depth("tiny_b") == 0

    def test_stop_without_drain_rejects_pending_futures(self, runtime):
        futures = [runtime.submit("tiny_a", s) for s in _requests(5, 6)]
        runtime.stop(drain=False)
        for future in futures:
            with pytest.raises(ServerClosedError):
                future.result(0)
        metrics = runtime.metrics("tiny_a")
        assert metrics.rejected == 5 and metrics.completed == 0
        assert metrics.queue_depth == 0

    def test_submit_after_stop_raises(self, runtime):
        runtime.stop()
        with pytest.raises(ServerClosedError):
            runtime.submit("tiny_a", np.zeros(6, dtype=np.float32))

    def test_stop_is_idempotent_and_start_after_stop_fails(self, runtime):
        runtime.stop()
        runtime.stop()
        with pytest.raises(ServerClosedError):
            runtime.start()

    def test_context_manager_drains_on_clean_exit(self, registry, engine_a):
        x = _requests(10, 6)
        with ServerRuntime(registry, ["tiny_a"], workers=2, max_batch=4, max_queue=64) as rt:
            futures = [rt.submit("tiny_a", s) for s in x]
        got = np.stack([f.result(0) for f in futures])
        assert np.array_equal(got, engine_a.run(x))


class TestServing:
    def test_started_workers_serve_bit_identically(self, registry, engine_a, engine_b):
        xa, xb = _requests(23, 6, seed=7), _requests(19, 5, seed=8)
        rt = ServerRuntime(registry, ["tiny_a", "tiny_b"], workers=3, max_batch=4, max_queue=64)
        rt.start()
        rt.start()  # idempotent
        fa = [rt.submit("tiny_a", s) for s in xa]
        fb = [rt.submit("tiny_b", s) for s in xb]
        assert np.array_equal(np.stack([f.result(5) for f in fa]), engine_a.run(xa))
        assert np.array_equal(np.stack([f.result(5) for f in fb]), engine_b.run(xb))
        rt.stop()
        ma, mb = rt.metrics("tiny_a"), rt.metrics("tiny_b")
        assert ma.completed == 23 and mb.completed == 19
        assert ma.queue_depth == 0 and mb.queue_depth == 0

    def test_claims_never_exceed_max_batch(self, registry):
        runtime = ServerRuntime(registry, ["tiny_a"], workers=1, max_batch=4, max_queue=64)
        for s in _requests(11, 6):
            runtime.submit("tiny_a", s)
        runtime.stop(drain=True)
        metrics = runtime.metrics("tiny_a")
        assert metrics.completed == 11
        assert metrics.batches == 3  # 4 + 4 + 3 at max_batch=4


@pytest.mark.stress
class TestConcurrencyStress:
    CLIENTS = 8
    PER_CLIENT = 60
    MAX_QUEUE = 16

    def test_interleaved_multi_model_traffic(self, registry, engine_a, engine_b):
        """N client threads × 2 models: no bleed, no loss, sheds accounted."""
        runtime = ServerRuntime(
            registry,
            ["tiny_a", "tiny_b"],
            workers=4,
            max_batch=8,
            max_queue=self.MAX_QUEUE,
        ).start()
        engines = {"tiny_a": engine_a, "tiny_b": engine_b}
        features = {"tiny_a": 6, "tiny_b": 5}
        accepted = {"tiny_a": [], "tiny_b": []}  # (sample, future) pairs
        shed = {"tiny_a": 0, "tiny_b": 0}
        lock = threading.Lock()
        errors = []

        def client(cid):
            rng = np.random.default_rng(100 + cid)
            try:
                for i in range(self.PER_CLIENT):
                    model = ("tiny_a", "tiny_b")[(cid + i) % 2]
                    sample = rng.normal(scale=0.5, size=features[model]).astype(np.float32)
                    try:
                        future = runtime.submit(model, sample)
                    except QueueFullError:
                        with lock:
                            shed[model] += 1
                    else:
                        with lock:
                            accepted[model].append((sample, future))
            except Exception as e:  # pragma: no cover - failure reporting
                errors.append(e)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        runtime.stop(drain=True)
        assert not errors

        total = self.CLIENTS * self.PER_CLIENT
        assert sum(len(v) for v in accepted.values()) + sum(shed.values()) == total
        for model in ("tiny_a", "tiny_b"):
            engine = engines[model]
            # every admitted future resolved, bit-identical to a solo run
            # of its own sample — any cross-model (or cross-request) bleed
            # would break equality (the two models even disagree on dims)
            for sample, future in accepted[model]:
                assert future.done()
                assert np.array_equal(future.result(0), engine.run(sample[None])[0])
            metrics = runtime.metrics(model)
            assert metrics.completed == len(accepted[model])
            assert metrics.rejected == shed[model]
            assert metrics.submitted == len(accepted[model])
            assert metrics.queue_depth == 0
            assert 0 < metrics.mean_fill <= 8
