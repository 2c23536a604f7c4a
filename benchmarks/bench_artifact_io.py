"""Artifact-store cold start vs rebuild-from-scratch, plus persistence integrity.

The point of the artifact store is restart latency: a serving process
that dies must come back without re-running dataset synthesis,
quantization calibration, and deployment for every hosted model.  This
benchmark publishes the zoo's serving entry points into a store once,
then measures two ways of bringing a :class:`repro.serve.ModelRegistry`
to fully-compiled readiness:

* **rebuild** — the pre-store path: every model's builder runs from
  scratch (surrogate data, calibration forward passes, pow2 encoding),
  then the engine compiles;
* **cold start** — ``ModelRegistry.from_store``: validated container
  load from disk, then the same engine compile.

The acceptance gate is the PR's: cold start must be ≥ 5x faster than
rebuild, while serving bit-identical engines — same content
fingerprints, same output codes (asserted in ``--quick`` mode too; only
the wall-clock gate needs the full run).
"""

import time

import numpy as np
import pytest

from repro.core.engine import engine_cache, engine_fingerprint
from repro.io import ArtifactStore
from repro.serve import ModelRegistry
from repro.zoo import alexnet_deployable, cifar10_full_deployable

GATE = 5.0
REPEATS = 3

#: Serving-scale builders (size-8 surrogate artifacts, as the serving
#: benchmarks use) — the store must beat *these*, not strawmen.
BUILDERS = {
    "cifar10_full": lambda: cifar10_full_deployable(size=8),
    "alexnet": lambda: alexnet_deployable(size=8),
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A store holding every zoo serving artifact, published once."""
    root = tmp_path_factory.mktemp("artifact_store")
    store = ArtifactStore(root)
    for name, builder in BUILDERS.items():
        store.publish_deployed(name, builder())
    return store


def _registry_rebuild() -> ModelRegistry:
    engine_cache().clear()  # both paths pay the compile
    registry = ModelRegistry()
    for name, builder in BUILDERS.items():
        registry.register(name, builder)
    for name in BUILDERS:
        registry.engine(name)
    return registry


def _registry_cold_start(store) -> ModelRegistry:
    engine_cache().clear()
    registry = ModelRegistry.from_store(store)
    for name in BUILDERS:
        registry.engine(name)
    return registry


def test_store_serves_bit_identical_engines(store):
    """Disk round trip changes nothing the engine can observe."""
    cold = ModelRegistry.from_store(store)
    rng = np.random.default_rng(23)
    for name, builder in BUILDERS.items():
        built = builder()
        loaded = cold.deployed(name)
        assert engine_fingerprint(loaded) == engine_fingerprint(built)
        x = rng.normal(scale=0.5, size=(8,) + tuple(built.input_shape)).astype(np.float32)
        warm = ModelRegistry()
        warm.register(name, lambda b=built: b)
        assert np.array_equal(cold.engine(name).run(x), warm.engine(name).run(x))


def test_republish_is_idempotent(store):
    """A second export of unchanged content writes no new versions."""
    before = {name: store.versions(name) for name in BUILDERS}
    for name, builder in BUILDERS.items():
        store.publish_deployed(name, builder())
    assert {name: store.versions(name) for name in BUILDERS} == before


def test_cold_start_speedup(store, full_only, bench_metrics):
    """Gate: registry cold start from the store ≥ 5x rebuild-from-scratch."""
    rebuild_s, cold_s = [], []
    for _ in range(REPEATS):  # interleaved best-of-N, like the other benches
        t0 = time.perf_counter()
        _registry_rebuild()
        rebuild_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _registry_cold_start(store)
        cold_s.append(time.perf_counter() - t0)
    rebuild, cold = min(rebuild_s), min(cold_s)
    speedup = rebuild / cold
    total_bytes = sum(
        store.model_path(name).stat().st_size for name in store.model_names()
    )
    bench_metrics["rebuild_s"] = round(rebuild, 4)
    bench_metrics["cold_start_s"] = round(cold, 4)
    bench_metrics["cold_start_speedup"] = round(speedup, 2)
    bench_metrics["store_bytes"] = total_bytes
    bench_metrics["models"] = len(store.model_names())
    print(
        f"\nregistry readiness: rebuild {rebuild * 1e3:.1f} ms, "
        f"cold start {cold * 1e3:.1f} ms ({speedup:.1f}x) "
        f"over {len(store.model_names())} models, {total_bytes:,} bytes on disk"
    )
    assert speedup >= GATE, (
        f"store cold start is only {speedup:.1f}x faster than rebuild "
        f"(gate: {GATE}x; rebuild {rebuild:.3f}s, cold {cold:.3f}s)"
    )
