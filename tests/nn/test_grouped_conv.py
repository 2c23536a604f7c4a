"""Grouped convolutions (AlexNet's two-column layers)."""

import numpy as np
import pytest

from repro.nn.layers.conv import Conv2D


class TestGroupedForward:
    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(3, 8, 3, groups=2)  # 3 % 2 != 0
        with pytest.raises(ValueError):
            Conv2D(4, 6, 3, groups=4)  # 6 % 4 != 0
        with pytest.raises(ValueError):
            Conv2D(4, 4, 3, groups=0)

    def test_weight_shape_shrinks(self):
        layer = Conv2D(8, 16, 3, groups=2)
        assert layer.weight.data.shape == (16, 4, 3, 3)

    def test_groups_equal_channels_is_depthwise(self, rng):
        layer = Conv2D(4, 4, 1, groups=4, bias=False, dtype=np.float64)
        layer.weight.data = np.arange(1.0, 5.0).reshape(4, 1, 1, 1)
        x = rng.normal(size=(2, 4, 3, 3))
        y = layer.forward(x)
        for c in range(4):
            assert np.allclose(y[:, c], x[:, c] * (c + 1))

    def test_matches_two_independent_convs(self, rng):
        """groups=2 == two half-channel convolutions concatenated."""
        full = Conv2D(4, 6, 3, pad=1, groups=2, bias=False, dtype=np.float64, rng=rng)
        half_a = Conv2D(2, 3, 3, pad=1, bias=False, dtype=np.float64)
        half_b = Conv2D(2, 3, 3, pad=1, bias=False, dtype=np.float64)
        half_a.weight.data = full.weight.data[:3].copy()
        half_b.weight.data = full.weight.data[3:].copy()
        x = rng.normal(size=(2, 4, 5, 5))
        y = full.forward(x)
        ya = half_a.forward(x[:, :2])
        yb = half_b.forward(x[:, 2:])
        assert np.allclose(y, np.concatenate([ya, yb], axis=1))

    def test_groups_one_unchanged(self, rng):
        """groups=1 must behave exactly as the ungrouped implementation."""
        a = Conv2D(3, 4, 3, pad=1, groups=1, dtype=np.float64, rng=np.random.default_rng(0))
        b = Conv2D(3, 4, 3, pad=1, dtype=np.float64, rng=np.random.default_rng(0))
        x = rng.normal(size=(2, 3, 5, 5))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_macs_scale_inverse_with_groups(self):
        plain = Conv2D(8, 8, 3, pad=1, groups=1)
        grouped = Conv2D(8, 8, 3, pad=1, groups=2)
        assert plain.macs((8, 4, 4)) == 2 * grouped.macs((8, 4, 4))


class TestGroupedBackward:
    @pytest.mark.parametrize("groups", [2, 4])
    def test_grad_wrt_input(self, rng, gradcheck, groups):
        layer = Conv2D(4, 4, 3, pad=1, groups=groups, dtype=np.float64, rng=rng)
        x = rng.normal(size=(2, 4, 4, 4))
        g = rng.normal(size=layer.forward(x).shape)
        dx = layer.backward(g)
        num = gradcheck(lambda: float((layer.forward(x) * g).sum()), x)
        assert np.allclose(dx, num, atol=1e-6)

    def test_grad_wrt_weight_and_bias(self, rng, gradcheck):
        layer = Conv2D(4, 6, 3, pad=1, groups=2, dtype=np.float64, rng=rng)
        x = rng.normal(size=(2, 4, 4, 4))
        g = rng.normal(size=layer.forward(x).shape)
        layer.backward(g)
        num_w = gradcheck(lambda: float((layer.forward(x) * g).sum()), layer.weight.data)
        num_b = gradcheck(lambda: float((layer.forward(x) * g).sum()), layer.bias.data)
        assert np.allclose(layer.weight.grad, num_w, atol=1e-6)
        assert np.allclose(layer.bias.grad, num_b, atol=1e-6)


class TestGroupedDeployment:
    def test_grouped_conv_deploys_and_executes_bit_accurately(self, rng):
        from repro.core.engine import execute_deployed
        from repro.core.mfdfp import MFDFPNetwork
        from repro.nn import Dense, Flatten, Network, ReLU

        net = Network(
            [
                Conv2D(4, 8, 3, pad=1, groups=2, dtype=np.float64, rng=rng, name="gconv"),
                ReLU(name="relu"),
                Flatten(name="flat"),
                Dense(8 * 36, 3, dtype=np.float64, rng=rng, name="fc"),
            ],
            input_shape=(4, 6, 6),
            name="gnet",
        )
        calib = rng.normal(size=(16, 4, 6, 6))
        mf = MFDFPNetwork.from_float(net, calib)
        mf.calibrate_bias_to_accumulator_grid()
        dep = mf.deploy()
        assert dep.ops[0].groups == 2
        x = rng.normal(size=(8, 4, 6, 6))
        codes = execute_deployed(dep, x)
        f = dep.ops[-1].out_frac
        sw = np.rint(mf.logits(x) * 2.0**f)
        assert np.array_equal(codes, sw)

    def test_grouped_alexnet_param_count(self):
        from repro.zoo import alexnet

        assert alexnet(grouped=True).param_count() == 60_965_224
