"""Property test: hw integer execution == sw quantized simulation for
randomly generated network topologies.

This is the strongest verification in the suite: hypothesis draws random
conv/pool/dense stacks, random weights, and random inputs; the deployed
integer datapath must agree with the float64 quantized simulation on
every sample (exactly for maxpool-only nets, within 1 LSB when average
pooling's non-dyadic division is involved).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import execute_deployed
from repro.core.mfdfp import MFDFPNetwork
from repro.nn import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, Network, ReLU


def build_random_net(rng, n_blocks, channels, use_avgpool, size=8, classes=4):
    """Random conv(+relu)(+pool) stack ending in flatten+dense."""
    layers = []
    in_ch = 3
    cur = size
    for i in range(n_blocks):
        out_ch = channels[i]
        layers.append(
            Conv2D(in_ch, out_ch, 3, pad=1, dtype=np.float64, rng=rng, name=f"conv{i}")
        )
        layers.append(ReLU(name=f"relu{i}"))
        if cur >= 4 and i < 2:
            pool_cls = AvgPool2D if use_avgpool else MaxPool2D
            layers.append(pool_cls(2, stride=2, name=f"pool{i}"))
            cur //= 2
        in_ch = out_ch
    layers.append(Flatten(name="flat"))
    layers.append(
        Dense(in_ch * cur * cur, classes, dtype=np.float64, rng=rng, name="fc")
    )
    return Network(layers, input_shape=(3, size, size), name="randnet")


@st.composite
def net_specs(draw):
    seed = draw(st.integers(0, 2**20))
    n_blocks = draw(st.integers(1, 3))
    channels = [draw(st.sampled_from([2, 4, 8])) for _ in range(n_blocks)]
    use_avgpool = draw(st.booleans())
    scale = draw(st.floats(0.2, 3.0))
    return seed, n_blocks, channels, use_avgpool, scale


class TestRandomNetEquivalence:
    @given(spec=net_specs())
    @settings(max_examples=25, deadline=None)
    def test_hw_matches_sw_quantized_simulation(self, spec):
        seed, n_blocks, channels, use_avgpool, scale = spec
        rng = np.random.default_rng(seed)
        net = build_random_net(rng, n_blocks, channels, use_avgpool)
        calib = rng.normal(scale=scale, size=(12, 3, 8, 8))
        mf = MFDFPNetwork.from_float(net, calib)
        mf.calibrate_bias_to_accumulator_grid()
        dep = mf.deploy()
        x = rng.normal(scale=scale, size=(6, 3, 8, 8))
        hw_codes = execute_deployed(dep, x, check_widths=True)
        f = dep.ops[-1].out_frac
        sw_codes = np.rint(mf.logits(x) * 2.0**f)
        tolerance = 1 if use_avgpool else 0
        assert np.abs(hw_codes - sw_codes).max() <= tolerance

    @given(spec=net_specs())
    @settings(max_examples=10, deadline=None)
    def test_deploy_roundtrip_preserves_execution(self, spec, tmp_path_factory):
        from repro.io import load_deployed, save_deployed

        seed, n_blocks, channels, use_avgpool, scale = spec
        rng = np.random.default_rng(seed)
        net = build_random_net(rng, n_blocks, channels, use_avgpool)
        calib = rng.normal(scale=scale, size=(8, 3, 8, 8))
        dep = MFDFPNetwork.from_float(net, calib).deploy()
        path = tmp_path_factory.mktemp("dep") / "net.npz"
        save_deployed(dep, path)
        loaded = load_deployed(path)
        x = rng.normal(scale=scale, size=(4, 3, 8, 8))
        assert np.array_equal(execute_deployed(dep, x), execute_deployed(loaded, x))


class TestSaturationBehaviour:
    @pytest.mark.parametrize("scale", [10.0, 100.0])
    def test_out_of_calibration_inputs_saturate_gracefully(self, rng, scale):
        """Inputs far beyond calibration range saturate, never overflow."""
        net = build_random_net(rng, 2, [4, 4], use_avgpool=False)
        calib = rng.normal(size=(8, 3, 8, 8))  # unit-scale calibration
        mf = MFDFPNetwork.from_float(net, calib)
        dep = mf.deploy()
        x = rng.normal(scale=scale, size=(4, 3, 8, 8))
        codes = execute_deployed(dep, x, check_widths=True)
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
