"""Shared-memory arena of decoded engine weight planes.

One :class:`multiprocessing.shared_memory.SharedMemory` segment per
deployed network, named by its content-addressed
:func:`repro.core.engine.engine_fingerprint` — the same key the
EngineCache uses — holding every conv/dense weight plane in its
canonical float64 layout, concatenated at 8-byte-aligned offsets.  The
publisher decodes each plane **once per host**; workers attach the
segment read-only and hand the views straight to
``BatchedEngine(weight_planes=...)``, so N processes serving a model
share one physical copy of its weights and perform zero LUT decodes.

Lifecycle invariants:

* The :class:`SharedWeightArena` that created a segment owns it —
  ``close()`` (context-manager exit or atexit) unlinks it.  Publishing
  is idempotent per fingerprint within an arena.
* A leftover same-name segment from a dead publisher is *reclaimed*:
  adopted and rewritten when its size fits (contents are a pure
  function of the fingerprint, so the rewrite is byte-idempotent), or
  unlinked and recreated when it does not.
* Attachers memoize per process (:data:`_ATTACHED`), so a worker maps
  each model at most once no matter how many engines it builds.  Pool
  workers share the publisher's resource tracker (fork and spawn both
  inherit its fd), so the 3.11 attach-side re-register is a harmless
  set dedup; the publisher alone unlinks and unregisters, in
  :meth:`SharedWeightArena.close`.
* Attached views are explicitly re-frozen (``writeable=False`` does not
  survive a trip through ``mmap`` any more than it survives pickle).
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.chaos.registry import inject, register_site
from repro.core.engine import decode_weight_plane, engine_fingerprint
from repro.core.mfdfp import DeployedMFDFP
from repro.parallel.pool import PoolError


class ArenaClosedError(PoolError):
    """Publish attempted on a :class:`SharedWeightArena` after ``close()``.

    Once an arena unlinks its segments the specs it handed out are dead;
    callers must build a fresh arena rather than race the teardown.
    """


class ArenaSegmentLostError(PoolError):
    """A worker tried to attach a segment that no longer exists.

    The publisher died (its atexit unlinked the segment) or an external
    actor unlinked it; the spec the worker holds is dead and the model
    must be republished before workers can attach again.
    """

SEGMENT_PREFIX = "repro-wa"

register_site(
    "parallel.arena.attach",
    layer="parallel",
    description="Before a worker maps a shared-memory weight segment; "
    "context has segment (the segment name).",
)


def unlink_segment(name: str) -> bool:
    """Forcibly unlink a shared-memory segment by name (chaos/test hook).

    Models an external actor (OOM reaper, operator cleanup script,
    publisher crash) destroying a segment while workers still hold its
    spec.  Returns ``False`` when the segment does not exist.  Lives
    here so all :class:`~multiprocessing.shared_memory.SharedMemory`
    lifecycle manipulation stays inside the arena module.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()  # also unregisters from the tracker
    except FileNotFoundError:
        _untrack(name)  # raced with the owner's teardown
    # Attaching registered the name with this process's tracker (3.11
    # attach-side re-register); the unlink above already dropped it, so
    # just close our mapping.
    shm.close()
    return True


def _untrack(name: str) -> None:
    """Drop a segment from the stdlib resource tracker's unlink list.

    ``SharedMemory.unlink`` unregisters as a side effect; this is for
    the paths where the segment vanished underneath us (someone else
    unlinked first), so the tracker does not warn about — and try to
    unlink — a name that no longer exists at interpreter shutdown.
    """
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass  # tracker may be absent (already reaped) on some platforms


@dataclass(frozen=True)
class PlaneSpec:
    """Location of one op's weight plane inside its model's segment."""

    op_index: int
    shape: tuple
    offset: int


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable handle a worker needs to attach one model's planes."""

    fingerprint: str
    segment: str
    planes: tuple  # tuple[PlaneSpec, ...]
    total_bytes: int


class SharedWeightArena:
    """Owns the shared-memory segments for a host's published models.

    Counters: ``created`` segments made fresh, ``adopted`` leftover
    segments reused in place, ``reclaimed`` leftovers unlinked and
    recreated because their size no longer matched.
    """

    def __init__(self, prefix: str = SEGMENT_PREFIX):
        self.prefix = prefix
        self._segments: dict[str, tuple[shared_memory.SharedMemory, ArenaSpec]] = {}
        self._closed = False
        self.created = 0
        self.adopted = 0
        self.reclaimed = 0
        atexit.register(self.close)

    def segment_name(self, fingerprint: str) -> str:
        return f"{self.prefix}-{fingerprint}"

    def __len__(self) -> int:
        return len(self._segments)

    def spec(self, fingerprint: str) -> Optional[ArenaSpec]:
        entry = self._segments.get(fingerprint)
        return entry[1] if entry is not None else None

    def publish(self, deployed: DeployedMFDFP) -> ArenaSpec:
        """Decode ``deployed``'s weight planes into shared memory (once).

        Returns the (picklable) :class:`ArenaSpec` workers attach with;
        republishing the same network returns the existing spec without
        touching memory.
        """
        if self._closed:
            raise ArenaClosedError("arena is closed")
        fingerprint = engine_fingerprint(deployed)
        existing = self._segments.get(fingerprint)
        if existing is not None:
            return existing[1]

        plane_specs = []
        planes = []
        offset = 0
        for i, op in enumerate(deployed.ops):
            plane = decode_weight_plane(op)
            if plane is None:
                continue
            plane_specs.append(PlaneSpec(i, tuple(plane.shape), offset))
            planes.append(plane)
            offset += plane.nbytes  # float64 planes keep offsets 8-aligned

        total = max(offset, 8)  # zero-weight nets still get a valid segment
        name = self.segment_name(fingerprint)
        shm = self._allocate(name, total)
        for spec, plane in zip(plane_specs, planes):
            view = np.ndarray(spec.shape, dtype=np.float64, buffer=shm.buf, offset=spec.offset)
            view[...] = plane

        arena_spec = ArenaSpec(fingerprint, name, tuple(plane_specs), total)
        self._segments[fingerprint] = (shm, arena_spec)
        return arena_spec

    def _allocate(self, name: str, total: int) -> shared_memory.SharedMemory:
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        except FileExistsError:
            leftover = shared_memory.SharedMemory(name=name)
            if leftover.size >= total:
                # Possibly still live in another process; contents are
                # fingerprint-determined, so rewriting in place is safe.
                self.adopted += 1
                return leftover
            leftover.close()
            try:
                leftover.unlink()  # also unregisters from the tracker
            except FileNotFoundError:
                _untrack(name)  # raced with another reclaimer; drop our entry
            self.reclaimed += 1
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        self.created += 1
        return shm

    def close(self) -> None:
        """Unlink every owned segment (idempotent; also runs at exit)."""
        if self._closed:
            return
        self._closed = True
        segments, self._segments = self._segments, {}
        for shm, _ in segments.values():
            try:
                shm.unlink()  # also unregisters from the tracker
            except FileNotFoundError:
                _untrack(shm.name)  # already unlinked elsewhere; drop our entry
            try:
                shm.close()
            except BufferError:
                pass  # a live engine in this process still holds views

    def __enter__(self) -> "SharedWeightArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- attach side (runs in workers; memoized per process) -------------------

_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, dict[int, np.ndarray]]] = {}


def attach_planes(spec: ArenaSpec) -> dict[int, np.ndarray]:
    """Map a published model's planes, at most once per process.

    Returns ``{op_index: frozen float64 view}`` suitable for
    ``BatchedEngine(weight_planes=...)``.  Views are backed directly by
    the shared segment — no copy — and explicitly re-frozen.
    """
    cached = _ATTACHED.get(spec.segment)
    if cached is not None:
        return cached[1]
    inject("parallel.arena.attach", segment=spec.segment)
    try:
        shm = shared_memory.SharedMemory(name=spec.segment)
    except FileNotFoundError as exc:
        raise ArenaSegmentLostError(
            f"shared-memory segment {spec.segment!r} no longer exists "
            "(publisher gone?); republish the model before attaching"
        ) from exc
    # No tracker unregister here: pool workers share the publisher's
    # resource tracker (fork and spawn both inherit its fd), whose name
    # set dedups the attach-side re-register; the publishing arena's
    # close() does the single unregister when it unlinks.
    views: dict[int, np.ndarray] = {}
    for plane in spec.planes:
        view = np.ndarray(plane.shape, dtype=np.float64, buffer=shm.buf, offset=plane.offset)
        view.setflags(write=False)
        views[plane.op_index] = view
    _ATTACHED[spec.segment] = (shm, views)
    return views


def attached_segment_count() -> int:
    """How many distinct segments this process has mapped."""
    return len(_ATTACHED)
