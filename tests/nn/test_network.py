"""Network container: execution, parameters, persistence, introspection."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, Network, ReLU
from repro.nn.loss import SoftmaxCrossEntropy


def tiny_net(dtype=np.float64, rng=None):
    rng = rng or np.random.default_rng(0)
    return Network(
        [
            Conv2D(1, 4, 3, pad=1, dtype=dtype, rng=rng, name="conv1"),
            ReLU(name="relu1"),
            Flatten(name="flat"),
            Dense(4 * 4 * 4, 3, dtype=dtype, rng=rng, name="fc"),
        ],
        input_shape=(1, 4, 4),
        name="tiny",
    )


class TestExecution:
    def test_forward_shape(self, rng):
        net = tiny_net()
        assert net.forward(rng.normal(size=(2, 1, 4, 4))).shape == (2, 3)

    def test_predict_returns_argmax(self, rng):
        net = tiny_net()
        x = rng.normal(size=(5, 1, 4, 4))
        assert np.array_equal(net.predict(x), net.logits(x).argmax(axis=1))

    def test_training_flag_propagates(self, rng):
        net = tiny_net()
        net.forward(rng.normal(size=(1, 1, 4, 4)), training=True)
        assert all(layer.training for layer in net.layers)
        net.forward(rng.normal(size=(1, 1, 4, 4)), training=False)
        assert not any(layer.training for layer in net.layers)

    def test_input_quantizer_applied(self, rng):
        net = tiny_net()
        x = rng.normal(size=(1, 1, 4, 4))
        y_plain = net.forward(x)
        net.input_quantizer = lambda v: np.zeros_like(v)
        y_quant = net.forward(x)
        assert not np.allclose(y_plain, y_quant)

    def test_end_to_end_gradient(self, rng, gradcheck):
        """Full-network numerical gradient check through conv+relu+dense."""
        net = tiny_net()
        x = rng.normal(size=(2, 1, 4, 4)) + 0.3
        target = np.array([0, 2])
        loss = SoftmaxCrossEntropy()

        def f():
            return loss.forward(net.forward(x), target)

        f()
        net.zero_grad()
        net.backward(loss.backward())
        for p in net.params:
            num = gradcheck(f, p.data)
            assert np.allclose(p.grad, num, atol=1e-5), p.name


class TestParameters:
    def test_param_count(self):
        net = tiny_net()
        assert net.param_count() == (4 * 1 * 9 + 4) + (3 * 64 + 3)

    def test_unique_param_names(self):
        net = tiny_net()
        names = [p.name for p in net.params]
        assert len(names) == len(set(names))

    def test_duplicate_layer_names_renamed(self):
        net = Network([ReLU(name="act"), ReLU(name="act")])
        assert net.layers[0].name != net.layers[1].name

    def test_get_set_weights_roundtrip(self, rng):
        net = tiny_net()
        other = tiny_net(rng=np.random.default_rng(99))
        x = rng.normal(size=(1, 1, 4, 4))
        assert not np.allclose(net.logits(x), other.logits(x))
        other.set_weights(net.get_weights())
        assert np.allclose(net.logits(x), other.logits(x))

    def test_set_weights_rejects_mismatched_names(self):
        net = tiny_net()
        with pytest.raises(KeyError):
            net.set_weights({"bogus": np.zeros(1)})

    def test_set_weights_rejects_wrong_shape(self):
        net = tiny_net()
        weights = net.get_weights()
        key = next(iter(weights))
        weights[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.set_weights(weights)

    def test_save_load(self, tmp_path, rng):
        net = tiny_net()
        path = tmp_path / "weights.npz"
        net.save(path)
        other = tiny_net(rng=np.random.default_rng(99))
        other.load(path)
        x = rng.normal(size=(1, 1, 4, 4))
        assert np.allclose(net.logits(x), other.logits(x))

    def test_clone_is_independent(self, rng):
        net = tiny_net()
        clone = net.clone()
        x = rng.normal(size=(1, 1, 4, 4))
        assert np.allclose(net.logits(x), clone.logits(x))
        clone.params[0].data += 1.0
        assert not np.allclose(net.logits(x), clone.logits(x))

    def test_clone_carries_no_forward_state(self, rng):
        net = tiny_net()
        net.forward(rng.normal(size=(2, 1, 4, 4)))
        assert all(layer._cache is not None for layer in net.layers)
        clone = net.clone()
        assert all(layer._cache is None for layer in clone.layers)
        with pytest.raises(RuntimeError, match="fc: backward called before forward"):
            clone.backward(np.ones((2, 3)))
        net.backward(np.ones((2, 3)))  # the original keeps its own

    def test_zero_grad(self, rng):
        net = tiny_net()
        loss = SoftmaxCrossEntropy()
        loss.forward(net.forward(rng.normal(size=(1, 1, 4, 4))), np.array([0]))
        net.backward(loss.backward())
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.params)


class TestIntrospection:
    def test_layer_lookup(self):
        net = tiny_net()
        assert net.layer("conv1").name == "conv1"
        with pytest.raises(KeyError):
            net.layer("missing")

    def test_layer_shapes(self):
        net = tiny_net()
        shapes = dict(net.layer_shapes())
        assert shapes["conv1"] == (4, 4, 4)
        assert shapes["flat"] == (64,)
        assert shapes["fc"] == (3,)

    def test_layer_shapes_requires_input_shape(self):
        net = Network([ReLU()])
        with pytest.raises(ValueError):
            net.layer_shapes()

    def test_summary_contains_totals(self):
        net = tiny_net()
        text = net.summary()
        assert "tiny" in text
        assert str(net.param_count()) in text

    def test_compute_layers(self):
        net = tiny_net()
        assert [l.name for l in net.compute_layers()] == ["conv1", "fc"]
