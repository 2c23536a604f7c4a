"""Dropout, Flatten, and LocalResponseNorm."""

import numpy as np
import pytest

from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.norm import LocalResponseNorm


class TestDropout:
    def test_identity_in_eval_mode(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = rng.normal(size=(4, 8))
        assert np.array_equal(layer.forward(x), x)

    def test_zero_probability_is_identity(self, rng):
        layer = Dropout(0.0, rng=rng)
        layer.train()
        x = rng.normal(size=(4, 8))
        assert np.array_equal(layer.forward(x), x)

    def test_training_zeroes_roughly_p_fraction(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.training = True
        x = np.ones((200, 200))
        y = layer.forward(x)
        zero_fraction = float((y == 0).mean())
        assert 0.45 < zero_fraction < 0.55

    def test_inverted_scaling_preserves_expectation(self, rng):
        layer = Dropout(0.3, rng=rng)
        layer.training = True
        x = np.ones((300, 300))
        y = layer.forward(x)
        assert abs(y.mean() - 1.0) < 0.02

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.training = True
        x = np.ones((10, 10))
        y = layer.forward(x)
        dx = layer.backward(np.ones_like(x))
        assert np.array_equal(dx == 0, y == 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestFlatten:
    def test_shape(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        assert layer.forward(x).shape == (2, 60)

    def test_backward_restores_shape(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        y = layer.forward(x)
        dx = layer.backward(np.ones_like(y))
        assert dx.shape == x.shape

    def test_roundtrip_values(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 2, 2))
        g = rng.normal(size=(2, 12))
        layer.forward(x)
        assert np.allclose(layer.backward(g).ravel(), g.ravel())

    def test_output_shape(self):
        assert Flatten().output_shape((3, 4, 4)) == (48,)


class TestLocalResponseNorm:
    def test_identity_at_zero_alpha(self, rng):
        layer = LocalResponseNorm(local_size=5, alpha=0.0, beta=0.75, k=1.0)
        x = rng.normal(size=(2, 8, 4, 4))
        assert np.allclose(layer.forward(x), x)

    def test_normalizes_large_activations(self):
        layer = LocalResponseNorm(local_size=3, alpha=1.0, beta=0.75, k=1.0)
        x = np.zeros((1, 3, 1, 1))
        x[0, 1] = 10.0
        y = layer.forward(x)
        assert abs(y[0, 1, 0, 0]) < 10.0

    def test_window_clipped_at_boundaries(self, rng):
        """Channel 0's window only sees channels 0..half."""
        layer = LocalResponseNorm(local_size=3, alpha=1.0, beta=1.0, k=1.0)
        x = np.zeros((1, 4, 1, 1))
        x[0, 0] = 2.0
        x[0, 3] = 5.0  # far from channel 0: must not affect it
        y = layer.forward(x)
        expected = 2.0 / (1.0 + (1.0 / 3.0) * 4.0)
        assert np.isclose(y[0, 0, 0, 0], expected)

    def test_even_local_size_rejected(self):
        with pytest.raises(ValueError):
            LocalResponseNorm(local_size=4)

    def test_numerical_gradient(self, rng, gradcheck):
        layer = LocalResponseNorm(local_size=3, alpha=0.3, beta=0.75, k=2.0)
        x = rng.normal(size=(2, 5, 3, 3))
        g = rng.normal(size=x.shape)
        layer.forward(x)
        dx = layer.backward(g)
        num = gradcheck(lambda: float((layer.forward(x) * g).sum()), x)
        assert np.allclose(dx, num, atol=1e-5)

    def test_output_shape(self):
        assert LocalResponseNorm().output_shape((8, 4, 4)) == (8, 4, 4)


def _every_layer():
    """One instance of each layer type ``repro.nn.layers`` exports."""
    from repro.nn import layers

    made = {
        layers.Conv2D: lambda: layers.Conv2D(2, 2, 3),
        layers.Dense: lambda: layers.Dense(4, 3),
        layers.MaxPool2D: lambda: layers.MaxPool2D(2),
        layers.AvgPool2D: lambda: layers.AvgPool2D(2),
    }
    types = [
        obj
        for obj in vars(layers).values()
        if isinstance(obj, type) and issubclass(obj, layers.Layer) and obj is not layers.Layer
    ]
    return [pytest.param(made.get(cls, cls), id=cls.__name__) for cls in types]


@pytest.mark.parametrize("make", _every_layer())
def test_backward_before_forward_is_a_runtime_error(make):
    """Every layer type refuses a backward pass with nothing saved, the same way."""
    layer = make()
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.zeros((2, 3)))
