"""Full accelerator: sw/hw equivalence, latency, energy, configuration."""

import numpy as np
import pytest

from repro.core.engine import execute_deployed
from repro.core.mfdfp import MFDFPNetwork
from repro.hw.accelerator import PIPELINE_DEPTH, Accelerator, AcceleratorConfig
from repro.nn import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, Network, ReLU
from repro.zoo import cifar10_full, cifar10_small


def maxpool_net(dtype=np.float64, seed=0):
    """conv/relu/maxpool/dense network: exactly representable end to end."""
    rng = np.random.default_rng(seed)
    return Network(
        [
            Conv2D(2, 8, 3, pad=1, dtype=dtype, rng=rng, name="conv1"),
            ReLU(name="relu1"),
            MaxPool2D(2, stride=2, name="pool1"),
            Conv2D(8, 8, 3, pad=1, dtype=dtype, rng=rng, name="conv2"),
            ReLU(name="relu2"),
            Flatten(name="flat"),
            Dense(8 * 4 * 4, 5, dtype=dtype, rng=rng, name="fc"),
        ],
        input_shape=(2, 8, 8),
        name="maxnet",
    )


def deployed_pair(net_fn, rng, n_calib=32):
    net = net_fn()
    c, h, w = net.input_shape
    calib = rng.normal(size=(n_calib, c, h, w))
    mf = MFDFPNetwork.from_float(net, calib)
    mf.calibrate_bias_to_accumulator_grid()
    return mf, mf.deploy(), calib


class TestBitAccuracy:
    def test_exact_match_on_maxpool_network(self, rng):
        """Integer datapath == float64 quantized simulation, bit for bit."""
        mf, dep, calib = deployed_pair(maxpool_net, rng)
        acc = Accelerator(AcceleratorConfig())
        x = rng.normal(size=(16, 2, 8, 8))
        hw = acc.run(dep, x)
        sw = mf.logits(x)
        f = dep.ops[-1].out_frac
        assert np.array_equal(np.rint(hw * 2.0**f), np.rint(sw * 2.0**f))

    def test_avgpool_network_within_one_lsb(self, rng):
        """Average pooling divides by 9; the float sim may round exact .5
        ties differently than the exact rational hardware divider, so we
        allow at most 1 LSB of divergence."""
        mf, dep, calib = deployed_pair(lambda: cifar10_small(size=16, dtype=np.float64), rng)
        acc = Accelerator(AcceleratorConfig())
        x = rng.normal(size=(8, 3, 16, 16))
        f = dep.ops[-1].out_frac
        hw_codes = np.rint(acc.run(dep, x) * 2.0**f)
        sw_codes = np.rint(mf.logits(x) * 2.0**f)
        assert np.abs(hw_codes - sw_codes).max() <= 1

    def test_predictions_match_quantized_sim(self, rng):
        mf, dep, _ = deployed_pair(lambda: cifar10_small(size=16, dtype=np.float64), rng)
        acc = Accelerator()
        x = rng.normal(size=(32, 3, 16, 16))
        agreement = (acc.run(dep, x).argmax(1) == mf.predict(x)).mean()
        assert agreement >= 0.95

    def test_output_codes_fit_8_bits(self, rng):
        _, dep, _ = deployed_pair(maxpool_net, rng)
        x = rng.normal(size=(8, 2, 8, 8)) * 10  # deliberately saturating
        codes = execute_deployed(dep, x)
        assert np.abs(codes).max() <= 127

    def test_deterministic(self, rng):
        _, dep, _ = deployed_pair(maxpool_net, rng)
        x = rng.normal(size=(4, 2, 8, 8))
        assert np.array_equal(execute_deployed(dep, x), execute_deployed(dep, x))

    def test_fp32_accelerator_refuses_integer_run(self, rng):
        _, dep, _ = deployed_pair(maxpool_net, rng)
        acc = Accelerator(AcceleratorConfig(precision="fp32"))
        with pytest.raises(ValueError):
            acc.run(dep, rng.normal(size=(1, 2, 8, 8)))

    def test_run_float_matches_network(self, rng):
        net = maxpool_net()
        acc = Accelerator(AcceleratorConfig(precision="fp32"))
        x = rng.normal(size=(3, 2, 8, 8))
        assert np.allclose(acc.run_float(net, x), net.logits(x))


class TestLatencyEnergy:
    def test_mfdfp_marginally_faster_than_fp32(self):
        """Same tiles, shallower pipeline: Table 2's 246.52 vs 246.27 us."""
        net = cifar10_full()
        t_fp = Accelerator(AcceleratorConfig(precision="fp32")).latency_us(net)
        t_mf = Accelerator(AcceleratorConfig(precision="mfdfp")).latency_us(net)
        assert t_mf < t_fp
        assert (t_fp - t_mf) / t_fp < 0.01  # sub-percent difference

    def test_energy_is_power_times_time(self):
        net = cifar10_full()
        acc = Accelerator(AcceleratorConfig(precision="mfdfp"))
        assert acc.energy_uj(net) == pytest.approx(
            acc.power_mw * 1e-3 * acc.latency_us(net)
        )

    def test_energy_saving_band_cifar(self):
        """Paper: 89.81% energy saving on CIFAR-10."""
        net = cifar10_full()
        e_fp = Accelerator(AcceleratorConfig(precision="fp32")).energy_uj(net)
        e_mf = Accelerator(AcceleratorConfig(precision="mfdfp")).energy_uj(net)
        saving = 100 * (1 - e_mf / e_fp)
        assert 87.0 < saving < 92.0

    def test_ensemble_energy_saving_band(self):
        """Paper: 80.17% saving with a 2-network ensemble."""
        net = cifar10_full()
        e_fp = Accelerator(AcceleratorConfig(precision="fp32")).energy_uj(net)
        e_ens = Accelerator(AcceleratorConfig(precision="mfdfp", num_pus=2)).energy_uj(net)
        saving = 100 * (1 - e_ens / e_fp)
        assert 76.0 < saving < 83.0

    def test_ensemble_latency_equals_single(self):
        """Members run in parallel PUs: latency is one network's latency."""
        net = cifar10_full()
        t1 = Accelerator(AcceleratorConfig(precision="mfdfp", num_pus=1)).latency_us(net)
        t2 = Accelerator(AcceleratorConfig(precision="mfdfp", num_pus=2)).latency_us(net)
        assert t1 == t2

    def test_schedule_records_memory_traffic(self):
        acc = Accelerator()
        acc.schedule(cifar10_full())
        assert acc.memory.total_accesses() > 0

    def test_deployed_and_network_latency_agree(self, rng):
        mf, dep, _ = deployed_pair(lambda: cifar10_small(size=16, dtype=np.float64), rng)
        acc = Accelerator()
        assert acc.latency_us(dep) == acc.latency_us(mf.to_float())


class TestConfig:
    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(precision="int4")

    def test_invalid_pus(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_pus=0)

    def test_pipeline_depths_ordered(self):
        assert PIPELINE_DEPTH["fp32"] > PIPELINE_DEPTH["mfdfp"]

    def test_area_power_properties(self):
        acc = Accelerator(AcceleratorConfig(precision="mfdfp"))
        assert acc.area_mm2 > 0
        assert acc.power_mw > 0
        area_s, power_s = acc.savings_vs_baseline()
        assert area_s > 0 and power_s > 0
