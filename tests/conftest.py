"""Shared fixtures: RNGs, small datasets, and a lightly trained network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import engine_cache
from repro.datasets import cifar10_surrogate
from repro.nn import SGD, Trainer
from repro.zoo import cifar10_small


def pytest_configure(config):
    """Register repo-local markers (no pytest.ini; tier-1 runs everything).

    ``stress`` marks the multithreaded serving stress tests — part of the
    tier-1 run by default, deselectable with ``-m "not stress"`` on
    constrained machines.
    """
    config.addinivalue_line(
        "markers", "stress: concurrency stress tests (in tier-1; deselect with -m 'not stress')"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def fresh_engine_cache():
    """The process-wide engine cache, emptied for this test."""
    cache = engine_cache()
    cache.clear()
    return cache


@pytest.fixture(scope="session")
def small_data():
    """Small surrogate CIFAR dataset (16x16) shared across tests."""
    return cifar10_surrogate(n_train=400, n_test=120, size=16, seed=3)


@pytest.fixture(scope="session")
def trained_small_net(small_data):
    """A cifar10_small network trained for a few epochs (session-scoped).

    Tests must NOT mutate this network; use ``.clone()``.
    """
    train, test = small_data
    net = cifar10_small(size=16, rng=np.random.default_rng(7))
    optimizer = SGD(net.params, lr=0.02, momentum=0.9)
    trainer = Trainer(net, optimizer, batch_size=32, rng=np.random.default_rng(11))
    trainer.fit(train, test, epochs=6)
    return net


def numerical_gradient(f, x, eps=1e-5):
    """Central-difference gradient of scalar function ``f`` at array ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = f()
        x[idx] = orig - eps
        minus = f()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


@pytest.fixture
def gradcheck():
    return numerical_gradient
