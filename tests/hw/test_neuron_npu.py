"""Neuron and processing-unit models vs a float reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.accelerator import Accelerator, AcceleratorConfig
from repro.hw.cost import CostModelError
from repro.hw.neuron import Neuron
from repro.hw.npu import ProcessingUnit


def reference_output(x_codes, w_sign, w_exp, bias_int, m, n, activation):
    """Float-domain reference of a quantized dot product."""
    x = np.asarray(x_codes, dtype=np.float64) * 2.0**-m
    w = np.asarray(w_sign) * np.exp2(np.asarray(w_exp, dtype=np.float64))
    acc = (x * w).sum() + bias_int * 2.0 ** -(m + 7)
    if activation == "relu":
        acc = max(acc, 0.0)
    return int(np.clip(np.rint(acc * 2.0**n), -127, 127))


def random_case(rng, synapses):
    x = rng.integers(-127, 128, size=synapses)
    s = rng.choice([-1, 1], size=synapses)
    e = rng.integers(-7, 1, size=synapses)
    bias = int(rng.integers(-(2**12), 2**12))
    return x, s, e, bias


class TestNeuron:
    def test_single_chunk_matches_reference(self, rng):
        neuron = Neuron()
        x, s, e, bias = random_case(rng, 16)
        out = neuron.compute_output(x, s, e, bias, m=4, n=4, activation="none")
        assert out == reference_output(x, s, e, bias, 4, 4, "none")

    @pytest.mark.parametrize("synapses", [3, 16, 17, 75, 100])
    def test_chunked_dot_product_matches_reference(self, rng, synapses):
        neuron = Neuron()
        x, s, e, bias = random_case(rng, synapses)
        out = neuron.compute_output(x, s, e, bias, m=3, n=5, activation="relu")
        assert out == reference_output(x, s, e, bias, 3, 5, "relu")

    @given(seed=st.integers(0, 2**16), m=st.integers(0, 7), n=st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_property_always_matches_reference(self, seed, m, n):
        rng = np.random.default_rng(seed)
        synapses = int(rng.integers(1, 64))
        neuron = Neuron()
        x, s, e, bias = random_case(rng, synapses)
        for act in ("none", "relu"):
            got = neuron.compute_output(x, s, e, bias, m, n, act)
            assert got == reference_output(x, s, e, bias, m, n, act)

    def test_accumulate_shape_check(self):
        neuron = Neuron()
        with pytest.raises(ValueError):
            neuron.accumulate(np.zeros(8), np.ones(8), np.zeros(8))

    def test_reset_clears_accumulator(self, rng):
        neuron = Neuron()
        x, s, e, _ = random_case(rng, 16)
        neuron.accumulate(x, s, e)
        neuron.reset()
        assert neuron.acc == 0

    def test_bias_preloaded(self):
        neuron = Neuron()
        neuron.load_bias(1024)  # = 1.0 at m+7 = 10
        assert neuron.emit(m=3, n=3, activation="none") == 8  # 1.0 * 2^3


class TestProcessingUnit:
    def test_tile_matches_16_independent_neurons(self, rng):
        pu = ProcessingUnit()
        k = 40
        x = rng.integers(-127, 128, size=k)
        s = rng.choice([-1, 1], size=(16, k))
        e = rng.integers(-7, 1, size=(16, k))
        bias = rng.integers(-(2**10), 2**10, size=16)
        out = pu.compute_tile(x, s, e, bias, m=4, n=4, activation="relu")
        for i in range(16):
            want = reference_output(x, s[i], e[i], int(bias[i]), 4, 4, "relu")
            assert out[i] == want

    def test_weight_shape_validated(self, rng):
        pu = ProcessingUnit()
        with pytest.raises(ValueError):
            pu.compute_tile(
                np.zeros(10, dtype=int),
                np.ones((16, 9), dtype=int),
                np.zeros((16, 9), dtype=int),
                np.zeros(16, dtype=int),
                0,
                0,
            )

    def test_bias_shape_validated(self):
        pu = ProcessingUnit()
        with pytest.raises(ValueError):
            pu.load_bias(np.zeros(4, dtype=int))

    def test_cycle_weight_shape_validated(self):
        pu = ProcessingUnit()
        with pytest.raises(ValueError):
            pu.cycle(np.zeros(16, dtype=int), np.ones((8, 16), dtype=int), np.zeros((8, 16), dtype=int))


class TestNPU:
    """The NPU is one PU per ensemble member: ``AcceleratorConfig.num_pus``."""

    def test_pu_count(self):
        acc = Accelerator(AcceleratorConfig(num_pus=2))
        assert acc.config.num_pus == 2
        assert {item.name.split(".")[0] for item in acc.breakdown.items} == {
            "pu0",
            "pu1",
            "shared",
        }

    def test_requires_positive_pus(self):
        with pytest.raises(CostModelError):
            AcceleratorConfig(num_pus=0)

    def test_pus_are_independent(self, rng):
        pus = [ProcessingUnit(), ProcessingUnit()]
        x, s, e, _ = random_case(rng, 16)
        pus[0].cycle(x, np.tile(s, (16, 1)), np.tile(e, (16, 1)))
        assert all(n.acc == 0 for n in pus[1].neurons)
