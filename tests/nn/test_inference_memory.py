"""Memory of inference forwards and clones, counted exactly by tracemalloc.

numpy reports every array allocation to :mod:`tracemalloc`, so a traced
peak is deterministic for a given network and batch.  The bounds hold
the inference contract of :mod:`repro.nn.compiled` (a plan's inference
forward keeps no backward state and lowers convolutions a block of
samples at a time) and of :meth:`Network.clone` (no layer caches).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.mfdfp import MFDFPNetwork
from repro.nn import SGD, ArrayDataset, Trainer
from repro.zoo import cifar10_small

MB = 1e6


def traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def val():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=0.5, size=(256, 3, 16, 16)).astype(np.float32)
    return ArrayDataset(x, rng.integers(0, 10, size=256))


@pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "float"])
def test_first_batch256_evaluation_stays_small(val, quantized):
    """The whole batch's im2col columns (36 MB here) are never allocated."""
    net = cifar10_small(size=16, rng=np.random.default_rng(0))
    if quantized:
        net = MFDFPNetwork.from_float(net, val.x[:64]).net
    trainer = Trainer(net, SGD(net.params, lr=0.01))
    assert traced_peak(lambda: trainer.evaluate_error(val, batch_size=256)) < 25.0


def test_clone_after_a_forward_copies_no_activations(val):
    net = cifar10_small(size=16, rng=np.random.default_rng(0))
    net.logits(val.x)  # eager: every layer keeps its batch-256 cache
    assert traced_peak(net.clone) < 1.0
