"""Compiled training fast path: bit-identity, caching, fallback, profiling.

Every test here holds the fast path to the only contract that matters:
``Trainer(compiled=True)`` must be *exactly* the eager trainer, faster —
same loss curve, same validation errors, same final master weights, to
the last bit, for every layer type, hook configuration, dtype, and batch
geometry.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.mfdfp import MFDFPNetwork
from repro.nn import (
    SGD,
    ArrayDataset,
    AvgPool2D,
    CompiledTrainer,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    Network,
    ReLU,
    Tanh,
    Trainer,
    error_rate,
    format_profile,
)
from repro.nn.layers.base import Layer


def tiny_data(n=96, seed=0, size=8, classes=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=0.5, size=(n, 3, size, size)).astype(np.float32)
    y = rng.integers(0, classes, size=n)
    return ArrayDataset(x, y)


def tiny_net(seed=0, size=8, classes=4, dropout=False, lrn=False, tanh=False):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(3, 4, 3, pad=1, rng=rng, name="c1"),
        ReLU(name="r1"),
        MaxPool2D(2, stride=2, name="p1"),
    ]
    if lrn:
        layers.append(LocalResponseNorm(local_size=3, name="n1"))
    layers += [
        Conv2D(4, 4, 3, pad=1, rng=rng, name="c2"),
        Tanh(name="t1") if tanh else ReLU(name="r2"),
        AvgPool2D(2, stride=2, name="p2"),
    ]
    if dropout:
        layers.append(Dropout(0.3, rng=np.random.default_rng(7), name="d1"))
    layers += [
        Flatten(name="fl"),
        Dense(4 * (size // 4) ** 2, classes, rng=rng, name="fc"),
    ]
    return Network(layers, input_shape=(3, size, size), name="tiny")


def fit_both(make_net, train, val, epochs=3, batch_size=32, lr=0.05, mfdfp=False, **mf_kwargs):
    """Train eager and compiled from identical state; return both runs."""
    runs = {}
    for compiled in (False, True):
        net = make_net()
        if mfdfp:
            model = MFDFPNetwork.from_float(net, train.x[:32], **mf_kwargs)
            params, target = model.params, model.net
        else:
            params, target = net.params, net
        trainer = Trainer(
            target,
            SGD(params, lr=lr, momentum=0.9),
            batch_size=batch_size,
            rng=np.random.default_rng(11),
            compiled=compiled,
        )
        history = trainer.fit(train, val, epochs=epochs)
        runs[compiled] = (history, target.get_weights(), trainer)
    return runs


def assert_identical(runs):
    h_eager, w_eager, _ = runs[False]
    h_fast, w_fast, _ = runs[True]
    assert h_eager.train_losses == h_fast.train_losses
    assert h_eager.val_errors == h_fast.val_errors
    assert set(w_eager) == set(w_fast)
    for name in w_eager:
        assert np.array_equal(w_eager[name], w_fast[name]), f"{name} drifted"


class TestBitIdentity:
    def test_float_net(self):
        train, val = tiny_data(96, seed=0), tiny_data(40, seed=1)
        assert_identical(fit_both(tiny_net, train, val))

    def test_partial_trailing_batch(self):
        train, val = tiny_data(50, seed=2), tiny_data(30, seed=3)  # 50 % 32 != 0
        runs = fit_both(tiny_net, train, val, batch_size=32)
        assert_identical(runs)
        executor = runs[True][2].executor
        assert executor.plan_count() >= 2  # full batch + remainder plans

    def test_dropout_rng_replay(self):
        train, val = tiny_data(64, seed=4), tiny_data(32, seed=5)
        assert_identical(fit_both(lambda: tiny_net(dropout=True), train, val))

    def test_mfdfp_quantized_training(self):
        train, val = tiny_data(96, seed=6), tiny_data(40, seed=7)
        assert_identical(fit_both(tiny_net, train, val, mfdfp=True, lr=0.01))

    def test_mfdfp_stochastic_rounding_not_cached(self):
        train, val = tiny_data(64, seed=8), tiny_data(32, seed=9)
        runs = {}
        for compiled in (False, True):
            net = tiny_net()
            model = MFDFPNetwork.from_float(
                net,
                train.x[:32],
                weight_mode="stochastic",
                rng=np.random.default_rng(123),
            )
            trainer = Trainer(
                model.net,
                SGD(model.params, lr=0.01, momentum=0.9),
                batch_size=32,
                rng=np.random.default_rng(11),
                compiled=compiled,
            )
            history = trainer.fit(train, val, epochs=2)
            runs[compiled] = (history, model.net.get_weights(), trainer)
        assert_identical(runs)
        cache = runs[True][2].executor.quant_cache
        assert cache.hits == 0  # stochastic hooks must never be served from cache

    def test_float64_net(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 6)).astype(np.float64)
        y = rng.integers(0, 3, size=40)
        train = ArrayDataset(x, y)

        def make():
            r = np.random.default_rng(1)
            return Network(
                [Dense(6, 8, dtype=np.float64, rng=r), ReLU(), Dense(8, 3, dtype=np.float64, rng=r)],
                input_shape=(6,),
            )

        assert_identical(fit_both(make, train, train, epochs=3, batch_size=16))

    def test_unsupported_layers_delegate(self):
        train, val = tiny_data(64, seed=10), tiny_data(32, seed=11)
        runs = fit_both(lambda: tiny_net(lrn=True, tanh=True), train, val)
        assert_identical(runs)
        executor = runs[True][2].executor
        plan = next(iter(executor._plans.values()))
        plain = [step.name for step in plan.steps if not step.planned]
        assert "n1" in plain and "t1" in plain

    def test_evaluate_error_matches_error_rate(self):
        train, val = tiny_data(64, seed=12), tiny_data(48, seed=13)
        runs = fit_both(tiny_net, train, val, epochs=1)
        trainer = runs[True][2]
        assert trainer.evaluate_error(val) == error_rate(trainer.net, val)


class TestExecutor:
    def test_forward_matches_network(self):
        net = tiny_net()
        executor = CompiledTrainer(net)
        x = tiny_data(20, seed=14).x
        first = executor.forward(x)  # the plan's buffers are made
        again = executor.forward(x)  # and reused
        assert np.array_equal(first, net.forward(x))
        assert np.array_equal(again, net.forward(x))

    def test_backward_before_forward_raises(self):
        executor = CompiledTrainer(tiny_net())
        with pytest.raises(RuntimeError):
            executor.backward(np.zeros((4, 4)))

    @pytest.mark.parametrize("last", ["c1", "r1", "p1", "p2", "d1", "fl", "fc"])
    def test_backward_after_inference_forward_raises(self, last):
        """An inference forward keeps no backward state in any planned layer type."""
        rng = np.random.default_rng(0)
        layers = [
            Conv2D(3, 4, 3, pad=1, rng=rng, name="c1"),
            ReLU(name="r1"),
            MaxPool2D(2, stride=2, name="p1"),
            AvgPool2D(2, stride=2, name="p2"),
            Dropout(0.3, rng=np.random.default_rng(7), name="d1"),
            Flatten(name="fl"),
            Dense(16, 4, rng=rng, name="fc"),
        ]
        names = [layer.name for layer in layers]
        net = Network(layers[: names.index(last) + 1], input_shape=(3, 8, 8))
        trainer = Trainer(net, SGD(net.params, lr=0.01))
        x = tiny_data(4, seed=15).x
        y = trainer.forward_batch(x, training=True)
        trainer.backward_batch(np.ones_like(y))
        y = trainer.forward_batch(x, training=False)
        assert all(layer._cache is None for layer in net.layers)
        with pytest.raises(RuntimeError, match=f"{last}: backward called before forward"):
            trainer.backward_batch(np.ones_like(y))

    def test_fused_dfp_hook_saturates_like_the_eager_hook(self):
        """Non-finite and out-of-range activations quantize identically in both paths."""
        from repro.core.dfp import DFPFormat, dfp_quantize
        from repro.nn.compiled import _make_dfp_inplace
        from repro.nn.layers.workspace import Scratch

        fmt = DFPFormat(8, 6)
        specials = [
            np.inf, -np.inf, np.nan, 1e30, -1e30, 2.0**60, 0.5 / 64, 1.5 / 64, -0.5 / 64, -0.0,
            -0.2 / 64,
        ]
        for dtype in (np.float32, np.float64):
            with np.errstate(over="ignore"):
                y = np.array(specials, dtype=dtype)
            want = dfp_quantize(y, fmt)
            y = y.copy()
            got = _make_dfp_inplace(fmt, Scratch())(y, y)
            # Bitwise: a negative value rounding to code 0 is +0.0 in both.
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
            assert got.tolist()[:6] == [127 / 64, -127 / 64, -127 / 64, 127 / 64, -127 / 64, 127 / 64]

    def test_hook_mutation_invalidates_plans(self):
        from repro.core.dfp import DFPFormat, DFPQuantizer

        net = tiny_net()
        executor = CompiledTrainer(net)
        x = tiny_data(16, seed=15).x
        executor.forward(x)
        executor.forward(x)
        assert executor.plan_count() == 1
        net.layers[-1].output_quantizer = DFPQuantizer(DFPFormat(8, 4))
        out = executor.forward(x)  # signature changed: recompile, stay correct
        assert np.array_equal(out, net.forward(x))

    def test_quantized_weight_cache_invalidated_by_step(self):
        train = tiny_data(32, seed=16)
        net = tiny_net()
        model = MFDFPNetwork.from_float(net, train.x[:16])
        trainer = Trainer(
            model.net,
            SGD(model.params, lr=0.01, momentum=0.9),
            batch_size=16,
            rng=np.random.default_rng(0),
            compiled=True,
        )
        trainer.fit(train, train, epochs=2)
        cache = trainer.executor.quant_cache
        assert cache.misses > 0
        # repeated forwards with unchanged masters are pure cache hits
        trainer.executor.forward(train.x[:16], training=False)
        hits, misses = cache.hits, cache.misses
        trainer.executor.forward(train.x[:16], training=False)
        assert cache.misses == misses and cache.hits > hits
        # snapshot equals the eager per-layer requantization, bitwise
        snapshot = trainer.quantized_weights()
        for layer in model.net.layers:
            w = layer.effective_weight()
            if w is not None:
                assert np.array_equal(snapshot[layer.name], w)
        # an optimizer step rebinds masters: next forward must requantize
        misses = cache.misses
        trainer.optimizer.step()
        trainer.executor.forward(train.x[:16], training=False)
        assert cache.misses > misses

    def test_param_grads_are_not_live_workspace_views(self):
        """Eager backward hands out fresh grad arrays; compiled must too.

        A caller keeping ``param.grad`` across steps must not see it
        silently mutate when the next batch's backward runs.
        """
        train = tiny_data(64, seed=30)
        net = tiny_net()
        trainer = Trainer(
            net,
            SGD(net.params, lr=0.01, momentum=0.9),
            batch_size=16,
            rng=np.random.default_rng(0),
            compiled=True,
        )
        trainer.fit(train, train, epochs=1)  # plans built, past the trace
        loss = trainer.loss
        x, y = train.x[:16], train.y[:16]
        loss.forward(trainer.forward_batch(x, training=True), y)
        trainer.backward_batch(loss.backward())
        kept = {p.name: (p.grad, p.grad.copy()) for p in net.params}
        x2, y2 = train.x[16:32], train.y[16:32]
        loss.forward(trainer.forward_batch(x2, training=True), y2)
        trainer.backward_batch(loss.backward())
        for name, (ref, snapshot) in kept.items():
            assert np.array_equal(ref, snapshot), f"{name}.grad mutated in place"

    def test_dropout_rate_mutation_tracked(self):
        """Changing layer.p mid-training must behave exactly as eager."""
        net = tiny_net(dropout=True)
        executor = CompiledTrainer(net)
        x = tiny_data(16, seed=31).x
        executor.forward(x, training=True)  # trace
        executor.forward(x, training=True)  # compiled
        drop = net.layer("d1")
        drop.p = 0.7
        eager_net = tiny_net(dropout=True)
        eager_net.layer("d1").p = 0.7
        eager_net.layer("d1").rng = np.random.default_rng(42)
        drop.rng = np.random.default_rng(42)
        assert np.array_equal(
            executor.forward(x, training=True), eager_net.forward(x, training=True)
        )

    def test_profile_rows(self):
        train, val = tiny_data(48, seed=17), tiny_data(24, seed=18)
        net = tiny_net()
        trainer = Trainer(
            net,
            SGD(net.params, lr=0.05, momentum=0.9),
            batch_size=16,
            rng=np.random.default_rng(0),
            compiled=True,
            profile=True,
        )
        trainer.fit(train, val, epochs=2)
        rows = trainer.profile_rows()
        assert [r["layer"] for r in rows] == [layer.name for layer in net.layers]
        assert any(r["forward_s"] > 0 for r in rows)
        assert any(r["backward_s"] > 0 for r in rows)
        table = format_profile(rows)
        assert "c1" in table and "total" in table

    def test_profile_requires_compiled(self):
        net = tiny_net()
        with pytest.raises(ValueError, match="compiled"):
            Trainer(net, SGD(net.params, lr=0.05), compiled=False, profile=True)

    def test_executor_build_error_reaches_fit(self, monkeypatch):
        """A fault building the fast path is raised, not trained around eagerly."""

        def broken_init(self, net, profile=False):
            raise RuntimeError("executor build failed")

        monkeypatch.setattr(CompiledTrainer, "__init__", broken_init)
        train = tiny_data(32, seed=19)
        net = tiny_net()
        trainer = Trainer(net, SGD(net.params, lr=0.05), batch_size=16, compiled=True)
        with pytest.raises(RuntimeError, match="executor build failed"):
            trainer.fit(train, train, epochs=1)


class _GradProbe(Layer):
    """Identity layer recording the gradient it is handed (no workspace when compiled)."""

    def __init__(self):
        super().__init__(name="probe")
        self.grads = []

    def forward(self, x):
        return x

    def backward(self, grad):
        self.grads.append(grad.copy())
        return grad


_conv_geometry = st.fixed_dictionaries(
    {
        "groups": st.sampled_from([1, 2]),
        "stride": st.integers(1, 2),
        "pad": st.integers(0, 2),
        "kernel": st.sampled_from([1, 3, 5]),
        "bias": st.booleans(),
    }
)


class TestGeneratedConvGeometry:
    """Eager ≡ compiled conv kernels over generated geometries.

    The first conv runs with ``need_dx=False`` (the trainer drops the
    input gradient); the second is mid-network, so its dx is produced
    and captured by an unplanned probe layer between the two.
    """

    @staticmethod
    def _run(first, second, size, batch, dtype, compiled):
        rng = np.random.default_rng(3)

        def conv(geom, cin, cout, name):
            return Conv2D(
                cin, cout, geom["kernel"], stride=geom["stride"], pad=geom["pad"],
                groups=geom["groups"], bias=geom["bias"], dtype=dtype, rng=rng, name=name,
            )

        c0, c2 = 2 * first["groups"], 2 * second["groups"]
        c1 = 2 * first["groups"] * second["groups"]  # divisible by both group counts
        probe = _GradProbe()
        layers = [conv(first, c0, c1, "ca"), ReLU(name="r"), probe, conv(second, c1, c2, "cb")]
        net = Network(layers, input_shape=(c0, size, size))
        trainer = Trainer(net, SGD(net.params, lr=0.01, momentum=0.9), compiled=compiled)
        data = np.random.default_rng(4)
        record = []
        for _ in range(2):  # the trace step, then the planned kernels
            x = data.standard_normal((batch, c0, size, size)).astype(dtype)
            y = trainer.forward_batch(x, training=True)
            net.zero_grad()
            trainer.backward_batch(data.standard_normal(y.shape).astype(y.dtype))
            record.append((y.copy(), probe.grads[-1], [p.grad.copy() for p in net.params]))
            trainer.optimizer.step()
        return record

    @given(
        first=_conv_geometry,
        second=_conv_geometry,
        size=st.integers(5, 11),
        batch=st.integers(1, 9),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=30, deadline=None)
    def test_forward_and_grads_bitwise_equal(self, first, second, size, batch, dtype):
        assume(size + 2 * first["pad"] >= first["kernel"])
        hidden = (size + 2 * first["pad"] - first["kernel"]) // first["stride"] + 1
        assume(hidden + 2 * second["pad"] >= second["kernel"])
        eager = self._run(first, second, size, batch, dtype, compiled=False)
        fast = self._run(first, second, size, batch, dtype, compiled=True)
        for (y_e, dx_e, grads_e), (y_f, dx_f, grads_f) in zip(eager, fast):
            assert y_e.dtype == y_f.dtype and np.array_equal(y_e, y_f)
            assert np.array_equal(dx_e, dx_f)
            for g_e, g_f in zip(grads_e, grads_f):
                assert g_e.dtype == g_f.dtype and np.array_equal(g_e, g_f)


class TestPipelineIntegration:
    def test_run_algorithm1_compiled_bit_identical(self):
        from repro.core import MFDFPConfig, run_algorithm1

        train, val = tiny_data(64, seed=21), tiny_data(32, seed=22)
        results = {}
        for compiled in (False, True):
            net = tiny_net()
            Trainer(
                net,
                SGD(net.params, lr=0.05, momentum=0.9),
                batch_size=16,
                rng=np.random.default_rng(1),
                compiled=False,
            ).fit(train, val, epochs=1)
            config = MFDFPConfig(
                phase1_epochs=2, phase2_epochs=2, lr=0.01, batch_size=16, compiled=compiled
            )
            results[compiled] = run_algorithm1(
                net, train, val, train.x[:16], config, rng=np.random.default_rng(5)
            )
        eager, fast = results[False], results[True]
        assert eager.phase1.train_losses == fast.phase1.train_losses
        assert eager.phase1.val_errors == fast.phase1.val_errors
        assert eager.phase2.train_losses == fast.phase2.train_losses
        assert eager.phase2.val_errors == fast.phase2.val_errors
        for name, w in eager.mfdfp.net.get_weights().items():
            assert np.array_equal(w, fast.mfdfp.net.get_weights()[name])

    def test_phase1_snapshots_fused(self):
        from repro.core import MFDFPConfig, run_algorithm1

        train, val = tiny_data(48, seed=23), tiny_data(24, seed=24)
        net = tiny_net()
        config = MFDFPConfig(phase1_epochs=2, phase2_epochs=1, lr=0.01, batch_size=16)
        result = run_algorithm1(net, train, val, train.x[:16], config)
        assert result.phase1_snapshots is not None
        assert len(result.phase1_snapshots) == len(result.phase1.epochs)
        # the last snapshot is the quantized view of the weights as they
        # stood at the end of phase 1 -- phase 2 then trains further, so
        # snapshots must be copies, not live views
        last = result.phase1_snapshots[-1]
        assert set(last) == {
            layer.name
            for layer in result.mfdfp.net.layers
            if layer.effective_weight() is not None
        }
        for name, arr in last.items():
            assert arr.flags.owndata or arr.base is None

    def test_stochastic_mode_never_snapshots(self):
        """Snapshotting through a stochastic hook would consume RNG state
        and change the training trajectory; Algorithm 1 must not collect
        snapshots in that mode."""
        from repro.core import MFDFPConfig, run_algorithm1

        train, val = tiny_data(32, seed=27), tiny_data(16, seed=28)
        config = MFDFPConfig(
            phase1_epochs=1, phase2_epochs=1, lr=0.01, batch_size=16,
            weight_mode="stochastic",
        )
        result = run_algorithm1(
            tiny_net(), train, val, train.x[:16], config, rng=np.random.default_rng(3)
        )
        assert result.phase1_snapshots is None

    def test_snapshots_disabled(self):
        from repro.core import MFDFPConfig, run_algorithm1

        train, val = tiny_data(32, seed=25), tiny_data(16, seed=26)
        config = MFDFPConfig(
            phase1_epochs=1, phase2_epochs=1, lr=0.01, batch_size=16, snapshot_phase1=False
        )
        result = run_algorithm1(tiny_net(), train, val, train.x[:16], config)
        assert result.phase1_snapshots is None
