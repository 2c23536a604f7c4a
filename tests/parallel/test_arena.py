"""SharedWeightArena: segment lifecycle, reclamation, frozen attach views."""

import copy
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.engine import BatchedEngine, engine_fingerprint, op_dtypes, plane_decode_count
from repro.core.mfdfp import MFDFPNetwork
from repro.parallel import (
    ArenaClosedError,
    PoolError,
    ProcessPoolRunner,
    SharedEngineProxy,
    SharedWeightArena,
    attach_planes,
)
from repro.parallel import worker as worker_mod
from repro.parallel.arena import _ATTACHED
from repro.zoo import cifar10_small


@pytest.fixture(scope="module")
def deployed():
    rng = np.random.default_rng(5)
    net = cifar10_small(size=16, rng=rng)
    calib = rng.normal(scale=0.8, size=(16, 3, 16, 16)).astype(np.float32)
    mf = MFDFPNetwork.from_float(net, calib)
    mf.calibrate_bias_to_accumulator_grid()
    return mf.deploy()


@pytest.fixture
def prefix():
    # Unique per test process so parallel CI runs never collide.
    return f"repro-test-{os.getpid()}"


class TestPublish:
    def test_publish_is_idempotent(self, deployed, prefix):
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            assert arena.publish(deployed) is spec
            assert len(arena) == 1 and arena.created == 1
            assert spec.fingerprint == engine_fingerprint(deployed)
            assert spec.segment == arena.segment_name(spec.fingerprint)

    def test_segment_holds_every_weighted_op(self, deployed, prefix):
        weighted = [
            i for i, op in enumerate(deployed.ops)
            if op.kind in ("conv", "dense") and op.weight_codes is not None
        ]
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            assert [p.op_index for p in spec.planes] == weighted
            offsets = [p.offset for p in spec.planes]
            assert offsets == sorted(offsets) and all(o % 8 == 0 for o in offsets)

    def test_closed_arena_refuses_publish(self, deployed, prefix):
        arena = SharedWeightArena(prefix=prefix)
        arena.close()
        with pytest.raises(ArenaClosedError):
            arena.publish(deployed)

    def test_closed_arena_error_is_typed(self, deployed, prefix):
        """Regression: the closed-arena raise is part of the parallel
        taxonomy (catchable as PoolError) while staying a RuntimeError
        for pre-taxonomy callers."""
        arena = SharedWeightArena(prefix=prefix)
        arena.close()
        with pytest.raises(PoolError):
            arena.publish(deployed)
        assert issubclass(ArenaClosedError, RuntimeError)


class TestAttach:
    def test_attached_views_frozen_and_engine_identical(self, deployed, prefix):
        reference = BatchedEngine(deployed)
        x = np.random.default_rng(0).normal(size=(4, 3, 16, 16)).astype(np.float32)
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            views = attach_planes(spec)
            assert all(not v.flags.writeable for v in views.values())
            assert attach_planes(spec) is views  # memoized per process
            shared_engine = BatchedEngine(deployed, weight_planes=views)
            assert shared_engine.shared_planes
            assert np.array_equal(shared_engine.run(x), reference.run(x))
            _ATTACHED.pop(spec.segment)[0].close()

    def test_close_unlinks_segments(self, deployed, prefix):
        arena = SharedWeightArena(prefix=prefix)
        spec = arena.publish(deployed)
        arena.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.segment)


class TestReclamation:
    def test_undersized_stale_segment_is_reclaimed(self, deployed, prefix):
        with SharedWeightArena(prefix=prefix) as arena:
            name = arena.segment_name(engine_fingerprint(deployed))
            # A dead publisher's leftover, too small for this model
            # (planes total far exceeds one page, so the page-rounded
            # stale size still comes up short).
            stale = shared_memory.SharedMemory(name=name, create=True, size=8)
            stale.close()
            spec = arena.publish(deployed)
            assert arena.reclaimed == 1 and arena.created == 1
            views = attach_planes(spec)
            assert views  # segment is real and mapped
            _ATTACHED.pop(spec.segment)[0].close()

    def test_full_size_leftover_is_adopted_and_rewritten(self, deployed, prefix):
        reference = BatchedEngine(deployed)
        x = np.random.default_rng(1).normal(size=(3, 3, 16, 16)).astype(np.float32)
        probe = SharedWeightArena(prefix=prefix)
        total = probe.publish(deployed).total_bytes
        probe.close()
        with SharedWeightArena(prefix=prefix) as arena:
            name = arena.segment_name(engine_fingerprint(deployed))
            leftover = shared_memory.SharedMemory(name=name, create=True, size=total)
            leftover.buf[:] = b"\xff" * len(leftover.buf)  # garbage contents
            leftover.close()
            spec = arena.publish(deployed)
            assert arena.adopted == 1 and arena.created == 0
            views = attach_planes(spec)
            engine = BatchedEngine(deployed, weight_planes=views)
            # Adoption rewrote the planes: garbage did not survive.
            assert np.array_equal(engine.run(x), reference.run(x))
            _ATTACHED.pop(spec.segment)[0].close()


class TestPlaneDtypes:
    @pytest.fixture(scope="class")
    def mixed(self, deployed):
        """``deployed`` with its first conv widened to float64 by a bias of 2^24."""
        widened = copy.deepcopy(deployed)
        first = next(op for op in widened.ops if op.kind == "conv")
        first.bias_int[0] = 1 << 24
        return widened

    def test_planes_are_published_in_each_ops_gemm_dtype(self, deployed, mixed, prefix):
        x = np.random.default_rng(2).normal(size=(3, 3, 16, 16)).astype(np.float32)
        published = []
        for net in (deployed, mixed):
            dtypes = op_dtypes(net)
            with SharedWeightArena(prefix=prefix) as arena:
                spec = arena.publish(net)
                planes = [np.dtype(p.dtype) for p in spec.planes]
                assert planes == [dtypes[p.op_index] for p in spec.planes]
                assert all(p.offset % 8 == 0 for p in spec.planes)
                views = attach_planes(spec)
                assert {i: v.dtype for i, v in views.items()} == {i: dtypes[i] for i in views}
                engine = BatchedEngine(net, weight_planes=views)
                assert [op.dtype for op in engine.program] == dtypes
                assert np.array_equal(engine.run_codes(x), BatchedEngine(net).run_codes(x))
                _ATTACHED.pop(spec.segment)[0].close()
            published.append(planes)
        narrow, mixed_planes = published
        assert set(narrow) == {np.dtype(np.float32)}
        assert mixed_planes[0] == np.float64 and set(mixed_planes[1:]) == {np.dtype(np.float32)}

    def test_worker_on_float32_planes_decodes_nothing(self, deployed, prefix):
        host = BatchedEngine(deployed)
        x = np.random.default_rng(3).normal(size=(2, 3, 16, 16)).astype(np.float32)
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            assert {p.dtype for p in spec.planes} == {np.dtype(np.float32).str}
            with ProcessPoolRunner(1, initializer=worker_mod.mark_decode_baseline) as runner:
                proxy = SharedEngineProxy(runner, deployed, spec)
                assert np.array_equal(proxy.run(x), host.run(x))
                stats = runner.submit(worker_mod.worker_stats).result(timeout=30)
            # Compiling over the views in this process decodes nothing either.
            views = attach_planes(spec)
            before = plane_decode_count()
            BatchedEngine(deployed, weight_planes=views)
            assert plane_decode_count() == before
            _ATTACHED.pop(spec.segment)[0].close()
        assert stats["models"] and stats["plane_decodes"] == 0

    def test_plane_of_the_wrong_dtype_is_rejected(self, deployed, prefix):
        with SharedWeightArena(prefix=prefix) as arena:
            spec = arena.publish(deployed)
            views = attach_planes(spec)
            index = min(views)
            wrong = {**views, index: views[index].astype(np.float64)}
            name = deployed.ops[index].name
            with pytest.raises(ValueError, match=rf"{name}: .*\(float64\), expected .*\(float32\)"):
                BatchedEngine(deployed, weight_planes=wrong)
            _ATTACHED.pop(spec.segment)[0].close()
