"""Fork/spawn safety of engine globals + shared-plane serving invariants.

Regression tests for the process backend's core correctness claims:
the ``lru_cache`` im2col gather table and the process-wide engine cache behave in
children under *both* start methods, attached planes are frozen and
mapped once per process, and workers serving from shared memory perform
zero LUT decodes of their own.
"""

import functools
import os

import numpy as np
import pytest

from repro.core.engine import BatchedEngine, engine_cache, engine_fingerprint
from repro.core.mfdfp import MFDFPNetwork
from repro.parallel import ProcessPoolRunner, SharedEngineProxy, SharedWeightArena
from repro.parallel import worker as worker_mod
from repro.zoo import cifar10_small


@pytest.fixture(scope="module")
def deployed():
    rng = np.random.default_rng(11)
    net = cifar10_small(size=16, rng=rng)
    calib = rng.normal(scale=0.8, size=(16, 3, 16, 16)).astype(np.float32)
    mf = MFDFPNetwork.from_float(net, calib)
    mf.calibrate_bias_to_accumulator_grid()
    return mf.deploy()


@pytest.fixture
def prefix():
    return f"repro-test-{os.getpid()}"


def _evict_all():
    """Worker task: drop every resident engine (an eviction stand-in)."""
    engine_cache().clear()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_engine_globals_safe_in_children(deployed, prefix, start_method):
    """The im2col table rebuilds frozen+memoized and the cache dedups, per child."""
    with SharedWeightArena(prefix=prefix) as arena:
        spec = arena.publish(deployed)
        with ProcessPoolRunner(
            1, mp_context=start_method, initializer=worker_mod.mark_decode_baseline
        ) as runner:
            report = runner.call(worker_mod.runtime_check, spec=spec, deployed=deployed)

    assert report["pid"] != os.getpid()
    assert report["im2col_frozen"] and report["im2col_memoized"]
    assert report["cache_same_engine"]
    assert report["planes_frozen"] and report["attach_memoized"]
    assert report["attached_segments"] == 1


def test_fork_and_spawn_children_agree_with_host(deployed, prefix):
    """Same digest from the host engine and from children of both kinds."""
    host = BatchedEngine(deployed)
    probe = np.arange(int(np.prod(host.input_shape)), dtype=np.float32)
    probe = (probe % 7 - 3).reshape((1, *host.input_shape)) / 4.0
    host_digest = host.run(probe).tobytes().hex()[:32]

    digests = {}
    with SharedWeightArena(prefix=prefix) as arena:
        spec = arena.publish(deployed)
        for method in ("fork", "spawn"):
            with ProcessPoolRunner(1, mp_context=method) as runner:
                report = runner.call(worker_mod.runtime_check, spec=spec, deployed=deployed)
                digests[method] = report["digest"]
    assert digests == {"fork": host_digest, "spawn": host_digest}


class TestSharedEngineProxy:
    def test_proxy_matches_host_and_decodes_nothing(self, deployed, prefix):
        host = BatchedEngine(deployed)
        rng = np.random.default_rng(3)
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            with ProcessPoolRunner(
                2, initializer=worker_mod.mark_decode_baseline
            ) as runner:
                proxy = SharedEngineProxy(runner, deployed, spec)
                assert proxy.fingerprint == engine_fingerprint(deployed)
                for _ in range(6):  # enough requests to touch both workers
                    x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
                    assert np.array_equal(proxy.run(x), host.run(x))
                stats = [
                    runner.submit(worker_mod.worker_stats).result(timeout=30)
                    for _ in range(2)
                ]
        # Workers that served did so from the shared planes: a model is
        # mapped at most once per process and never LUT-decoded there.
        served = [s for s in stats if s["models"]]
        assert served, "no worker reported having installed the model"
        for s in served:
            assert s["attached_segments"] == 1
            assert s["plane_decodes"] == 0

    def test_proxy_recovers_on_fresh_worker(self, deployed, prefix):
        """A worker that never saw install_model still serves via the fallback."""
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            with ProcessPoolRunner(1) as runner:
                proxy = SharedEngineProxy(runner, deployed, spec)
                x = np.random.default_rng(4).normal(size=(1, 3, 16, 16)).astype(np.float32)
                out = proxy.run(x)
        assert np.array_equal(out, BatchedEngine(deployed).run(x))

    def test_install_is_idempotent_per_worker(self, deployed, prefix):
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            with ProcessPoolRunner(1) as runner:
                install = functools.partial(worker_mod.install_model, deployed, spec)
                fp1 = runner.call(install)
                fp2 = runner.call(install)
                stats = runner.call(worker_mod.worker_stats)
        assert fp1 == fp2 == engine_fingerprint(deployed)
        assert stats["models"] == [fp1]
        assert stats["attached_segments"] == 1

    def test_fork_of_a_cached_parent_still_serves_shared_planes(
        self, deployed, prefix, fresh_engine_cache
    ):
        """A fork inherits the parent's private-plane engine; installing
        with a spec must still compile over the shared planes."""
        assert not fresh_engine_cache.get(deployed).shared_planes
        x = np.random.default_rng(6).normal(size=(2, 3, 16, 16)).astype(np.float32)
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            with ProcessPoolRunner(
                1, mp_context="fork", initializer=worker_mod.mark_decode_baseline
            ) as runner:
                out = SharedEngineProxy(runner, deployed, spec).run(x)
                stats = runner.call(worker_mod.worker_stats)
        assert np.array_equal(out, fresh_engine_cache.get(deployed).run(x))
        assert stats["models"] == [engine_fingerprint(deployed)]
        assert stats["attached_segments"] == 1
        assert stats["plane_decodes"] == 0

    def test_proxy_reinstalls_an_evicted_model(self, deployed, prefix):
        """run_batch on an evicted model raises ModelNotLoadedError, and
        the proxy's install_and_run fallback serves the batch anyway."""
        x = np.random.default_rng(7).normal(size=(2, 3, 16, 16)).astype(np.float32)
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            with ProcessPoolRunner(1) as runner:
                proxy = SharedEngineProxy(runner, deployed, spec)
                first = proxy.run(x)
                runner.call(_evict_all)
                with pytest.raises(worker_mod.ModelNotLoadedError):
                    runner.call(worker_mod.run_batch, proxy.fingerprint, x)
                again = proxy.run(x)
                stats = runner.call(worker_mod.worker_stats)
        assert np.array_equal(first, again)
        assert stats["models"] == [proxy.fingerprint]
