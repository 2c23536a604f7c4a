"""Named deployable models behind a shared compile-once engine cache.

:class:`ModelRegistry` maps model names to *builders* — zero-argument
callables producing a :class:`~repro.core.mfdfp.DeployedMFDFP`.  The
artifact is built lazily on first use and memoized; its compiled
:class:`~repro.core.engine.BatchedEngine` is memoized behind a
thread-safe, content-addressed :class:`~repro.core.engine.EngineCache`,
so a long-running multi-tenant server compiles each network exactly
once no matter how many workers race for it.

The default registry (:meth:`ModelRegistry.with_defaults`) hosts the
zoo's serving entry points (``repro.zoo.DEPLOYABLE_BUILDERS``):
surrogate-scale ``cifar10_full`` and ``alexnet`` artifacts that build in
well under a second each.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

from repro.core.engine import BatchedEngine, EngineCache, engine_fingerprint
from repro.core.mfdfp import DeployedMFDFP
from repro.serve.errors import UnknownModelError


class ModelRegistry:
    """Thread-safe name → deployable-artifact → compiled-engine mapping.

    Args:
        cache_capacity: Bound on distinct compiled engines kept live.
    """

    def __init__(self, cache_capacity: int = 8):
        self._lock = threading.RLock()
        self._builders: dict[str, Callable[[], DeployedMFDFP]] = {}
        self._artifacts: dict[str, DeployedMFDFP] = {}
        self._cache = EngineCache(capacity=cache_capacity)
        self._store = None
        self._store_names: set[str] = set()
        self._store_versions: dict[str, int] = {}

    @classmethod
    def with_defaults(cls, **kwargs) -> "ModelRegistry":
        """A registry pre-loaded with the zoo's serving entry points."""
        from repro.zoo import DEPLOYABLE_BUILDERS

        registry = cls(**kwargs)
        for name, builder in DEPLOYABLE_BUILDERS.items():
            registry.register(name, builder)
        return registry

    @classmethod
    def from_store(
        cls, store, names: Optional[Sequence[str]] = None, **kwargs
    ) -> "ModelRegistry":
        """A registry whose models load from an on-disk artifact store.

        ``store`` is an :class:`~repro.io.store.ArtifactStore` or a path
        to one (opened read-only — a missing store raises
        :class:`~repro.io.artifacts.ArtifactError` rather than creating
        a directory).  Every model in the store (or the given ``names``)
        is registered with a builder that loads the newest published
        version lazily on first use; loaded artifacts carry the same
        engine fingerprints as their in-memory builds, so a cold-started
        server compiles exactly the engines a warm one would.
        """
        from repro.io.store import ArtifactStore

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store, create=False)
        registry = cls(**kwargs)
        registry._store = store
        available = store.model_names()
        if names is None:
            names = available
        for name in names:
            if name not in available:
                raise UnknownModelError(name, tuple(available))
            registry._register_store_builder(name, None)
        return registry

    def _register_store_builder(self, name: str, version: Optional[int]) -> None:
        """(Re)bind ``name`` to a store load of one version (None = newest).

        The loaded version number is recorded at build time, so
        :meth:`version_label` reports the version actually served even
        when the builder floats on "newest".  Floating builds resolve
        through :meth:`~repro.io.store.ArtifactStore.load_newest_verified`,
        so a corrupted newest version is quarantined and the cold start
        silently serves the newest version that verifies; a *pinned*
        version that fails verification raises
        :class:`~repro.io.store.QuarantinedArtifactError` instead (the
        caller asked for those bytes specifically).
        """

        def build() -> DeployedMFDFP:
            if version is not None:
                pinned, artifact = version, self._store.load_deployed(name, version)
            else:
                pinned, artifact = self._store.load_newest_verified(name)
            with self._lock:
                self._store_versions[name] = pinned
            return artifact

        self.register(name, build, replace=name in self._store_names)
        with self._lock:
            self._store_names.add(name)

    # -- registration ------------------------------------------------------
    def register(
        self,
        name: str,
        builder: Callable[[], DeployedMFDFP],
        replace: bool = False,
    ) -> None:
        """Register a lazily-built deployable model under ``name``.

        ``builder`` runs at most once, on first use.  Re-registering an
        existing name requires ``replace=True`` and drops the memoized
        artifact (the engine cache is content-addressed, so a replaced
        model that builds identical tensors still hits the cache).
        """
        if not name:
            raise ValueError("model name must be non-empty")  # repro-lint: disable=error-taxonomy (registration argument validation; ValueError is the documented contract)
        with self._lock:
            if name in self._builders and not replace:
                raise ValueError(f"model {name!r} is already registered (replace=True to override)")  # repro-lint: disable=error-taxonomy (registration argument validation; ValueError is the documented contract)
            self._builders[name] = builder
            self._artifacts.pop(name, None)
            self._store_names.discard(name)
            self._store_versions.pop(name, None)

    def names(self) -> list[str]:
        """Registered model names, in registration order."""
        with self._lock:
            return list(self._builders)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._builders

    def __len__(self) -> int:
        with self._lock:
            return len(self._builders)

    # -- resolution --------------------------------------------------------
    def deployed(self, name: str) -> DeployedMFDFP:
        """The model's deployed artifact, building (once) if needed.

        Builds run under the registry lock: concurrent callers for the
        same name get the same object with one builder call.
        """
        with self._lock:
            try:
                builder = self._builders[name]
            except KeyError:
                raise UnknownModelError(name, tuple(self._builders)) from None
            artifact = self._artifacts.get(name)
            if artifact is None:
                artifact = self._artifacts[name] = builder()
            return artifact

    def engine(self, name: str) -> BatchedEngine:
        """The model's compiled engine — same object on every cache hit."""
        return self._cache.get(self.deployed(name))

    def reload(self, name: str, version: Optional[int] = None) -> BatchedEngine:
        """Re-resolve a model and return its fresh engine (rollover hook).

        For a store-backed model the builder is rebound to ``version``
        (``None`` = the newest version published *now*, not the one
        loaded at cold start) and the artifact reloaded from disk.  For
        an in-memory model the memoized artifact is dropped so the
        registered builder runs again — re-register with
        ``replace=True`` first to roll to genuinely new content;
        ``version`` is meaningless without a store and rejected.  The
        engine cache is content-addressed, so reloading identical bytes
        costs one disk read and zero recompiles.
        """
        with self._lock:
            if name not in self._builders:
                raise UnknownModelError(name, tuple(self._builders))
            store_backed = name in self._store_names
        if store_backed:
            self._register_store_builder(name, version)
        else:
            if version is not None:
                raise ValueError(  # repro-lint: disable=error-taxonomy (registration argument validation; ValueError is the documented contract)
                    f"model {name!r} is not store-backed; cannot pin version {version}"
                )
            with self._lock:
                self._artifacts.pop(name, None)
        return self.engine(name)

    def version_label(self, name: str) -> Optional[str]:
        """A human-readable version for what ``name`` currently serves.

        Store-backed models report their store version (``"v0003"``);
        in-memory models report a content fingerprint prefix.  ``None``
        until the model has actually been built.
        """
        with self._lock:
            version = self._store_versions.get(name)
            if version is not None:
                return f"v{version:04d}"
            artifact = self._artifacts.get(name)
        if artifact is not None:
            return engine_fingerprint(artifact)[:12]
        return None

    def cache_stats(self) -> dict:
        """Engine-cache occupancy and hit/miss counters."""
        return {
            "engines": len(self._cache),
            "hits": self._cache.hits,
            "misses": self._cache.misses,
        }
