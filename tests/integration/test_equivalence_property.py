"""Property test: hw integer execution == sw quantized simulation for
randomly generated network topologies.

This is the strongest verification in the suite: hypothesis draws random
conv/pool/dense stacks, random weights, random inputs and every
activation width the datapath admits; the deployed integer datapath
(eager, compiled, and the process backend's shared-memory planes) must
agree with the float64 quantized simulation on every sample (exactly for
maxpool-only nets, within 1 LSB when average pooling's non-dyadic
division is involved).
"""

import os
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfp import DFPFormat, dfp_to_codes
from repro.core.engine import BatchedEngine, execute_deployed
from repro.core.mfdfp import MFDFPNetwork
from repro.core.pow2 import pow2_code_fields
from repro.hw import ProcessingUnit
from repro.hw.datapath import MAX_BITS, MIN_BITS
from repro.nn import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, Network, ReLU
from repro.nn.layers.conv import conv_output_size
from repro.nn.layers.pool import pool_output_size


class Block(NamedTuple):
    """One 3x3 conv(+relu)(+stride-2 pool) block of a random net."""

    out_channels: int
    groups: int = 1
    stride: int = 1
    pad: int = 1
    pool_kernel: Optional[int] = 2  # None: no pool
    ceil_mode: bool = True


def build_random_net(rng, blocks, use_avgpool, size=8, classes=4):
    """Random conv(+relu)(+pool) stack ending in flatten+dense."""
    layers = []
    in_ch = 3
    for i, block in enumerate(blocks):
        layers.append(
            Conv2D(
                in_ch, block.out_channels, 3, stride=block.stride, pad=block.pad,
                groups=block.groups, dtype=np.float64, rng=rng, name=f"conv{i}",
            )
        )
        layers.append(ReLU(name=f"relu{i}"))
        if block.pool_kernel is not None:
            pool_cls = AvgPool2D if use_avgpool else MaxPool2D
            layers.append(
                pool_cls(block.pool_kernel, stride=2, ceil_mode=block.ceil_mode, name=f"pool{i}")
            )
        in_ch = block.out_channels
    layers.append(Flatten(name="flat"))
    shape = (3, size, size)
    for layer in layers:
        shape = layer.output_shape(shape)
    layers.append(Dense(shape[0], classes, dtype=np.float64, rng=rng, name="fc"))
    return Network(layers, input_shape=(3, size, size), name="randnet")


@st.composite
def net_specs(draw):
    """Random nets over the conv geometries the zoo uses: grouped convs,
    stride 1/2, pad 0/1, and 2x2 or 3x3 pools in floor or ceil mode."""
    seed = draw(st.integers(0, 2**20))
    blocks, in_ch, cur = [], 3, 8
    for i in range(draw(st.integers(1, 3))):
        out_ch = draw(st.sampled_from([2, 3, 4, 6, 8]))
        groups = draw(st.sampled_from([g for g in (1, 2, 3, 4) if in_ch % g == out_ch % g == 0]))
        stride, pad = draw(
            st.sampled_from([(s, p) for s in (1, 2) for p in (0, 1) if cur + 2 * p >= 3])
        )
        cur = conv_output_size(cur, 3, stride, pad)
        pool_kernel, ceil_mode = None, True
        if i < 2 and cur >= 3:
            pool_kernel = draw(st.sampled_from([2, 3]))
            ceil_mode = draw(st.booleans())
            cur = pool_output_size(cur, pool_kernel, 2, 0, ceil_mode)
        blocks.append(Block(out_ch, groups, stride, pad, pool_kernel, ceil_mode))
        in_ch = out_ch
    use_avgpool = draw(st.booleans())
    scale = draw(st.floats(0.2, 3.0))
    bits = draw(st.integers(MIN_BITS, MAX_BITS))
    return seed, blocks, use_avgpool, scale, bits


def deploy_spec(spec):
    """Quantize and deploy one drawn net; returns ``(mf, dep, x, use_avgpool)``.

    Half of the inputs are drawn at 16 times the calibration scale, so
    every layer's saturation at ``±code_max`` is exercised.
    """
    seed, blocks, use_avgpool, scale, bits = spec
    rng = np.random.default_rng(seed)
    net = build_random_net(rng, blocks, use_avgpool)
    calib = rng.normal(scale=scale, size=(12, 3, 8, 8))
    mf = MFDFPNetwork.from_float(net, calib, bits=bits)
    mf.calibrate_bias_to_accumulator_grid()
    x = rng.normal(scale=scale, size=(6, 3, 8, 8))
    x[3:] *= 16.0
    return mf, mf.deploy(), x, use_avgpool


def assert_matches_simulation(mf, dep, x, use_avgpool, hw_codes):
    """``hw_codes`` equal the float simulation on the output grid."""
    sw_codes = np.rint(mf.logits(x) * 2.0 ** dep.ops[-1].out_frac)
    tolerance = 1 if use_avgpool else 0
    assert np.abs(hw_codes - sw_codes).max() <= tolerance


class TestRandomNetEquivalence:
    @given(spec=net_specs())
    @settings(max_examples=25, deadline=None)
    def test_hw_matches_sw_quantized_simulation(self, spec):
        mf, dep, x, use_avgpool = deploy_spec(spec)
        hw_codes = execute_deployed(dep, x)
        assert np.array_equal(BatchedEngine(dep).run_codes(x), hw_codes)
        assert_matches_simulation(mf, dep, x, use_avgpool, hw_codes)

    @pytest.fixture(scope="class")
    def process_backend(self):
        from repro.parallel import ProcessPoolRunner, SharedWeightArena

        with SharedWeightArena(prefix=f"repro-prop-{os.getpid()}") as arena:
            with ProcessPoolRunner(1) as runner:
                yield runner, arena

    @given(spec=net_specs())
    @settings(max_examples=4, deadline=None)
    def test_process_backend_planes_match_eager(self, spec, process_backend):
        """The process backend runs the engine over shared-memory planes
        in a worker; its logits are the eager codes on the output grid."""
        from repro.parallel import SharedEngineProxy

        runner, arena = process_backend
        mf, dep, x, use_avgpool = deploy_spec(spec)
        proxy = SharedEngineProxy(runner, dep, arena.publish(dep))
        hw_codes = execute_deployed(dep, x)
        assert np.array_equal(proxy.run(x), hw_codes * 2.0 ** -dep.ops[-1].out_frac)
        assert_matches_simulation(mf, dep, x, use_avgpool, hw_codes)

    @given(
        seed=st.integers(0, 2**20),
        bits=st.integers(MIN_BITS, MAX_BITS).filter(lambda b: b != 8),
        in_features=st.integers(1, 40),
    )
    @settings(max_examples=10, deadline=None)
    def test_processing_unit_matches_engine_off_8_bits(self, seed, bits, in_features):
        """One 16-output dense layer through the structural PU, whose
        per-wire checks run at the drawn width, equals the engine."""
        rng = np.random.default_rng(seed)
        net = Network(
            [Dense(in_features, 16, dtype=np.float64, rng=rng, name="fc"), ReLU(name="relu")],
            input_shape=(in_features,),
            name="dense16",
        )
        calib = rng.normal(size=(16, in_features))
        mf = MFDFPNetwork.from_float(net, calib, bits=bits)
        mf.calibrate_bias_to_accumulator_grid()
        dep = mf.deploy()
        x = rng.normal(size=(3, in_features))
        x[0] *= 4.0
        expected = execute_deployed(dep, x)
        (op,) = [op for op in dep.ops if op.kind == "dense"]
        sign, exp = pow2_code_fields(op.weight_codes.reshape(16, in_features))
        pu = ProcessingUnit(bits=bits)
        for codes, want in zip(dfp_to_codes(x, DFPFormat(bits, dep.input_frac)), expected):
            got = pu.compute_tile(codes, sign, exp, op.bias_int, op.in_frac, op.out_frac, op.activation)
            assert np.array_equal(got, want)

    @given(spec=net_specs())
    @settings(max_examples=10, deadline=None)
    def test_deploy_roundtrip_preserves_execution(self, spec, tmp_path_factory):
        from repro.io import load_deployed, save_deployed

        seed, blocks, use_avgpool, scale, bits = spec
        rng = np.random.default_rng(seed)
        net = build_random_net(rng, blocks, use_avgpool)
        calib = rng.normal(scale=scale, size=(8, 3, 8, 8))
        dep = MFDFPNetwork.from_float(net, calib, bits=bits).deploy()
        path = tmp_path_factory.mktemp("dep") / "net.npz"
        save_deployed(dep, path)
        loaded = load_deployed(path)
        x = rng.normal(scale=scale, size=(4, 3, 8, 8))
        assert np.array_equal(execute_deployed(dep, x), execute_deployed(loaded, x))


class TestSaturationBehaviour:
    @pytest.mark.parametrize("scale", [10.0, 100.0])
    def test_out_of_calibration_inputs_saturate_gracefully(self, rng, scale):
        """Inputs far beyond calibration range saturate, never overflow."""
        net = build_random_net(rng, [Block(4), Block(4)], use_avgpool=False)
        calib = rng.normal(size=(8, 3, 8, 8))  # unit-scale calibration
        mf = MFDFPNetwork.from_float(net, calib)
        dep = mf.deploy()
        x = rng.normal(scale=scale, size=(4, 3, 8, 8))
        codes = execute_deployed(dep, x)
        assert np.abs(codes).max() <= 127


def build_tiny_deployed(seed, in_features, out_features, name):
    """Millisecond-scale deployed MLP for the serving property test."""
    from repro.core import deploy_calibrated

    rng = np.random.default_rng(seed)
    net = Network(
        [
            Dense(in_features, 12, rng=rng, name="d1"),
            ReLU(name="r"),
            Dense(12, out_features, rng=rng, name="d2"),
        ],
        input_shape=(in_features,),
        name=name,
    )
    calib = rng.normal(scale=0.5, size=(64, in_features)).astype(np.float32)
    return deploy_calibrated(net, calib)


@st.composite
def serve_specs(draw):
    seed = draw(st.integers(0, 2**16))
    n_requests = draw(st.integers(1, 40))
    workers = draw(st.integers(1, 3))
    max_batch = draw(st.sampled_from([1, 2, 4, 8]))
    n_crashes = draw(st.integers(0, 4))
    return seed, n_requests, workers, max_batch, n_crashes


class TestSupervisedServingEquivalence:
    """Random request mixes, worker counts and injected crashes: every
    successful response is bit-identical to serial eager evaluation, and
    no request is dropped or double-served (the per-model accounting
    ``submitted == completed + crashed + rejected`` closes exactly)."""

    @pytest.fixture(scope="class")
    def serving_models(self):
        from repro.core.engine import BatchedEngine

        deployed = {
            "prop_a": build_tiny_deployed(41, 6, 3, "prop_a"),
            "prop_b": build_tiny_deployed(42, 5, 4, "prop_b"),
        }
        engines = {name: BatchedEngine(dep) for name, dep in deployed.items()}
        shapes = {"prop_a": (6,), "prop_b": (5,)}
        return deployed, engines, shapes

    @given(spec=serve_specs())
    @settings(max_examples=15, deadline=None)
    def test_random_traffic_with_crashes_matches_serial_eager(
        self, spec, serving_models
    ):
        from repro.chaos import FaultPlan, FaultRule, installed
        from repro.serve import (
            CrashError,
            ModelQuarantinedError,
            ModelRegistry,
            ServerRuntime,
            SupervisorPolicy,
        )

        seed, n_requests, workers, max_batch, n_crashes = spec
        deployed, engines, shapes = serving_models
        rng = np.random.default_rng(seed)
        names = list(deployed)

        # One rule per model: its call count spans restarts, so the
        # seeded schedule (n_crashes of the model's first 80 batches)
        # injects crashes mid-stream.
        faults = FaultPlan(
            rules=[
                FaultRule(
                    site="serve.engine.run",
                    fault="crash",
                    trigger={
                        "match": {"name": name},
                        "calls": sorted(
                            int(c) + 1
                            for c in np.random.default_rng(seed + i).choice(
                                80, size=n_crashes, replace=False
                            )
                        ),
                    },
                )
                for i, name in enumerate(names)
            ]
        )

        registry = ModelRegistry()
        for name, dep in deployed.items():
            registry.register(name, (lambda d: (lambda: d))(dep))
        with installed(faults):
            runtime = ServerRuntime(
                registry,
                names,
                workers=workers,
                max_batch=max_batch,
                max_queue=4096,
                policy=SupervisorPolicy(
                    max_failures=3, backoff_initial_s=0.001, backoff_cap_s=0.005
                ),
            ).start()

            plan = []  # (name, sample, future)
            for _ in range(n_requests):
                name = names[int(rng.integers(len(names)))]
                sample = rng.normal(scale=0.5, size=shapes[name]).astype(np.float32)
                plan.append((name, sample, runtime.submit(name, sample)))
            runtime.stop(drain=True)

        outcomes = {name: {"ok": 0, "crash": 0, "quarantine": 0} for name in names}
        for name, sample, future in plan:
            assert future.done()  # nothing dropped
            error = future.exception(timeout=0)
            if error is None:
                # Bit-identical to serial eager evaluation of the same
                # sample alone on the real engine.
                expected = engines[name].run(sample[None])[0]
                assert np.array_equal(future.result(timeout=0), expected)
                outcomes[name]["ok"] += 1
            elif isinstance(error, CrashError):
                outcomes[name]["crash"] += 1
            else:
                assert isinstance(error, ModelQuarantinedError)
                outcomes[name]["quarantine"] += 1

        for name in names:
            metrics = runtime.metrics(name)
            got = outcomes[name]
            total = got["ok"] + got["crash"] + got["quarantine"]
            # Exactly-once accounting: every admitted request resolved
            # through exactly one of the three paths.
            assert metrics.submitted == total
            assert metrics.completed == got["ok"]
            assert metrics.crashed == got["crash"]
            assert metrics.rejected == got["quarantine"]
            assert metrics.queue_depth == 0
