"""Datapath micro-benchmarks: the Section 5 observations in numbers.

* shift-product vs float multiply throughput in the simulator,
* widening adder-tree reduction,
* end-to-end integer layer execution vs the float simulation,
* 4-bit weight encode/decode.
"""

import numpy as np
import pytest

from repro.core.pow2 import pow2_decode4, pow2_encode4
from repro.hw.datapath import adder_tree, shift_product


@pytest.fixture(scope="module")
def stimuli(quick):
    rng = np.random.default_rng(0)
    n = 1 << 10 if quick else 1 << 14
    return {
        "x": rng.integers(-127, 128, size=(n, 16)),
        "s": rng.choice([-1, 1], size=(n, 16)),
        "e": rng.integers(-7, 1, size=(n, 16)),
        "w_float": rng.normal(scale=0.1, size=(n, 16)),
    }


def test_bench_shift_products(stimuli, benchmark):
    out = benchmark(shift_product, stimuli["x"], stimuli["s"], stimuli["e"])
    assert out.shape == stimuli["x"].shape


def test_bench_adder_tree_with_width_checks(stimuli, benchmark):
    products = shift_product(stimuli["x"], stimuli["s"], stimuli["e"])
    out = benchmark(adder_tree, products)
    assert out.shape == (products.shape[0],)


def test_bench_weight_encode(benchmark, stimuli):
    codes = benchmark(pow2_encode4, stimuli["w_float"])
    assert codes.dtype == np.uint8


def test_bench_weight_decode(benchmark, stimuli):
    codes = pow2_encode4(stimuli["w_float"])
    values = benchmark(pow2_decode4, codes)
    assert values.shape == codes.shape


def test_bench_integer_vs_float_layer(benchmark):
    """Integer conv execution of a deployed layer on a 16x16 batch."""
    from repro.core import MFDFPNetwork
    from repro.core.engine import execute_deployed
    from repro.zoo import cifar10_small

    rng = np.random.default_rng(2)
    net = cifar10_small(size=16, dtype=np.float64)
    calib = rng.normal(size=(16, 3, 16, 16))
    dep = MFDFPNetwork.from_float(net, calib).deploy()
    x = rng.normal(size=(16, 3, 16, 16))
    codes = benchmark(execute_deployed, dep, x)
    assert codes.shape == (16, 10)
