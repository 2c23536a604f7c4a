"""Batched engine: bit-exactness vs the reference path, registry, shapes."""

import numpy as np
import pytest

from repro.core import MFDFPNetwork
from repro.core.engine import (
    OP_REGISTRY,
    SHIFT_LUT,
    BatchedEngine,
    execute_deployed,
    shift_weight_ints,
)
from repro.core.mfdfp import DeployedLayer
from repro.core.pow2 import pow2_code_fields
from repro.hw import Accelerator, AcceleratorConfig
from repro.hw.datapath import DatapathOverflowError, datapath_widths
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network


def _deploy(net, rng, calib_n=32):
    calib = rng.normal(scale=0.8, size=(calib_n,) + tuple(net.input_shape)).astype(np.float32)
    mfdfp = MFDFPNetwork.from_float(net, calib)
    mfdfp.calibrate_bias_to_accumulator_grid()
    return mfdfp.deploy()


def _conv_net(rng):
    """All op kinds, even spatial dims."""
    return Network(
        [
            Conv2D(3, 8, 5, stride=1, pad=2, rng=rng, name="c1"),
            ReLU(name="r1"),
            MaxPool2D(3, stride=2, name="p1"),
            Conv2D(8, 8, 3, stride=1, pad=1, rng=rng, name="c2"),
            ReLU(name="r2"),
            AvgPool2D(3, stride=2, name="p2"),
            Flatten(name="f"),
            Dense(8 * 4 * 4, 10, rng=rng, name="d"),
        ],
        input_shape=(3, 16, 16),
        name="conv_net",
    )


def _odd_grouped_net(rng):
    """Odd input size, grouped + strided conv, ceil-mode pooling tails."""
    return Network(
        [
            Conv2D(4, 8, 3, stride=2, pad=1, groups=2, rng=rng, name="c1"),
            ReLU(name="r1"),
            MaxPool2D(3, stride=2, name="p1"),
            Conv2D(8, 6, 3, stride=1, pad=1, rng=rng, name="c2"),
            ReLU(name="r2"),
            AvgPool2D(2, stride=2, name="p2"),
            Flatten(name="f"),
            Dense(6 * 2 * 2, 5, rng=rng, name="d"),
        ],
        input_shape=(4, 15, 15),
        name="odd_grouped",
    )


def _mlp(rng):
    """Dense-only network (no spatial ops at all)."""
    return Network(
        [
            Dense(12, 16, rng=rng, name="d1"),
            ReLU(name="r1"),
            Dense(16, 4, rng=rng, name="d2"),
        ],
        input_shape=(12,),
        name="mlp",
    )


NET_BUILDERS = {"conv": _conv_net, "odd_grouped": _odd_grouped_net, "mlp": _mlp}


class TestShiftLut:
    def test_lut_matches_decoded_fields(self):
        codes = np.arange(16, dtype=np.uint8)
        sign, exp = pow2_code_fields(codes)
        assert np.array_equal(SHIFT_LUT, sign << (7 + exp))

    def test_shift_weight_ints_gathers(self, rng):
        codes = rng.integers(0, 16, size=(5, 7)).astype(np.uint8)
        sign, exp = pow2_code_fields(codes)
        assert np.array_equal(shift_weight_ints(codes), sign << (7 + exp))

    def test_rejects_wide_codes(self):
        with pytest.raises(ValueError, match="4 bits"):
            shift_weight_ints(np.array([16]))

    def test_rejects_negative_codes(self):
        with pytest.raises(ValueError, match="4 bits"):
            shift_weight_ints(np.array([-1]))  # would wrap to LUT[15]


class TestBitExactness:
    @pytest.mark.parametrize("net_kind", sorted(NET_BUILDERS))
    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_engine_matches_reference(self, net_kind, batch):
        rng = np.random.default_rng(sum(map(ord, net_kind)))
        deployed = _deploy(NET_BUILDERS[net_kind](rng), rng)
        engine = BatchedEngine(deployed)
        x = rng.normal(scale=0.8, size=(batch,) + engine.input_shape).astype(np.float32)
        assert np.array_equal(engine.run_codes(x), execute_deployed(deployed, x))

    def test_engine_matches_per_sample_scalar_path(self):
        rng = np.random.default_rng(0)
        deployed = _deploy(_conv_net(rng), rng)
        engine = BatchedEngine(deployed)
        x = rng.normal(scale=0.8, size=(9, 3, 16, 16)).astype(np.float32)
        scalar = np.concatenate([execute_deployed(deployed, x[i : i + 1]) for i in range(9)])
        assert np.array_equal(engine.run_codes(x), scalar)

    def test_accumulator_bound_is_proved_at_compile_time(self):
        """A dense op whose bias pushes ``fan_in * 2^7 * code_max + |bias|``
        to the accumulator's limit fails to compile on both paths, naming
        the op; one LSB less compiles and runs bit-identically."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 12)).astype(np.float32)
        widths = datapath_widths(8)
        headroom = (1 << (widths.accumulator - 1)) - 16 * (widths.code_max << 7)
        for sign in (1, -1):
            deployed = _deploy(_mlp(rng), rng)
            deployed.ops[-1].bias_int[0] = sign * headroom
            with pytest.raises(DatapathOverflowError, match="d2"):
                BatchedEngine(deployed)
            with pytest.raises(DatapathOverflowError, match="d2"):
                execute_deployed(deployed, x)
            deployed = _deploy(_mlp(rng), rng)
            deployed.ops[-1].bias_int[0] = sign * (headroom - 1)
            assert np.array_equal(BatchedEngine(deployed).run_codes(x), execute_deployed(deployed, x))

    def test_logits_match_accelerator_run(self):
        rng = np.random.default_rng(2)
        deployed = _deploy(_conv_net(rng), rng)
        accel = Accelerator(AcceleratorConfig(precision="mfdfp"))
        x = rng.normal(scale=0.8, size=(6, 3, 16, 16)).astype(np.float32)
        assert np.array_equal(accel.run(deployed, x), accel.run_batched(deployed, x))
        assert np.array_equal(accel.run(deployed, x), BatchedEngine(deployed).run(x))

    def test_predict_is_argmax_of_logits(self):
        rng = np.random.default_rng(3)
        deployed = _deploy(_conv_net(rng), rng)
        engine = BatchedEngine(deployed)
        x = rng.normal(scale=0.8, size=(5, 3, 16, 16)).astype(np.float32)
        assert np.array_equal(engine.predict(x), np.argmax(engine.run(x), axis=1))


class TestEngineStructure:
    def test_registry_covers_all_deployable_kinds(self):
        assert set(OP_REGISTRY) == {"conv", "dense", "maxpool", "avgpool", "flatten"}
        for handler in OP_REGISTRY.values():
            assert callable(handler.reference) and callable(handler.compile)

    def test_unknown_kind_rejected_both_paths(self):
        rng = np.random.default_rng(4)
        deployed = _deploy(_mlp(rng), rng)
        deployed.ops.append(DeployedLayer(kind="softmax", name="bad", in_frac=0, out_frac=0))
        x = rng.normal(size=(2, 12)).astype(np.float32)
        with pytest.raises(ValueError, match="softmax"):
            execute_deployed(deployed, x)
        with pytest.raises(ValueError, match="softmax"):
            BatchedEngine(deployed)

    def test_empty_network_rejected(self):
        rng = np.random.default_rng(5)
        deployed = _deploy(_mlp(rng), rng)
        deployed.ops = []
        with pytest.raises(ValueError, match="empty"):
            BatchedEngine(deployed)

    def test_shapes_and_summary(self):
        rng = np.random.default_rng(6)
        deployed = _deploy(_conv_net(rng), rng)
        engine = BatchedEngine(deployed)
        assert engine.input_shape == (3, 16, 16)
        assert engine.output_shape == (10,)
        summary = engine.layer_summary()
        assert [row["kind"] for row in summary] == [op.kind for op in deployed.ops]
        assert summary[-1]["out_shape"] == (10,)
        assert "BatchedEngine" in repr(engine)

    def test_wrong_input_shape_rejected(self):
        rng = np.random.default_rng(7)
        engine = BatchedEngine(_deploy(_conv_net(rng), rng))
        with pytest.raises(ValueError, match="expected batch"):
            engine.run(np.zeros((2, 3, 8, 8), dtype=np.float32))

    def test_accelerator_engine_cache(self):
        rng = np.random.default_rng(8)
        deployed = _deploy(_conv_net(rng), rng)
        accel = Accelerator(AcceleratorConfig(precision="mfdfp"))
        assert accel.engine_for(deployed) is accel.engine_for(deployed)


class TestBatchedSchedules:
    def test_batch_schedule_scales_compute_not_weights(self):
        rng = np.random.default_rng(9)
        deployed = _deploy(_conv_net(rng), rng)
        accel = Accelerator(AcceleratorConfig(precision="mfdfp"))
        one = accel.scheduler.schedule_deployed(deployed)
        batch = accel.scheduler.schedule_deployed_batch(deployed, 8)
        assert batch.batch_size == 8
        for a, b in zip(one.layers, batch.layers):
            assert b.compute_cycles == 8 * a.compute_cycles
            assert b.macs == 8 * a.macs
            assert b.input_elems == 8 * a.input_elems
            assert b.weight_elems == a.weight_elems  # weights stay resident

    def test_batch_throughput_beats_single(self):
        rng = np.random.default_rng(10)
        deployed = _deploy(_conv_net(rng), rng)
        accel = Accelerator(AcceleratorConfig(precision="mfdfp"))
        single = accel.schedule(deployed).throughput_ips()
        batched = accel.batch_throughput_ips(deployed, 64)
        assert batched > single  # pipeline fills amortized across the batch

    def test_batch_energy_scales_with_batch(self):
        rng = np.random.default_rng(11)
        deployed = _deploy(_conv_net(rng), rng)
        accel = Accelerator(AcceleratorConfig(precision="mfdfp"))
        e1 = accel.batch_energy_uj(deployed, 1)
        e8 = accel.batch_energy_uj(deployed, 8)
        assert e1 < e8 < 8 * e1  # per-sample energy drops with batching

    def test_batch_size_validation(self):
        rng = np.random.default_rng(12)
        deployed = _deploy(_conv_net(rng), rng)
        accel = Accelerator(AcceleratorConfig(precision="mfdfp"))
        with pytest.raises(ValueError, match="batch_size"):
            accel.schedule_batch(deployed, 0)