"""Whole-exploration checkpoints: kill a 10k-point search, resume exactly.

An exploration's durable state is just its completed evaluations — every
measurement is keyed by ``(rung, point index)`` and bit-determined by the
:class:`~repro.explore.explorer.ExploreConfig` seed, so persisting the
result rows is enough to reconstruct pruning decisions and continue.  The
checkpointer writes them as parallel arrays in one
:func:`~repro.io.artifacts.write_container` artifact (atomic temp +
rename, like every io write), embeds the space and config specs, and
refuses on load to mix rows from a different grid or configuration
(:class:`~repro.io.artifacts.ArtifactSchemaError`).

Files are ``exploration_<count>.npz`` where ``<count>`` is the number of
evaluations inside — monotone over a run, so "newest" and "most
complete" coincide.  Retention and restore are the trainer
checkpointers' rolling-file policy (:mod:`repro.io.checkpoint`): a file
is valid when its full read succeeds, only valid files count toward the
kept window, and an unreadable newest file (torn or bit-flipped) is
skipped in favour of the next-newest one.  A file for a different space
or config is never skipped: it raises.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.io.artifacts import ArtifactSchemaError, read_container, write_container
from repro.io.checkpoint import _RollingFiles


def _read(path: Path) -> tuple[dict, dict]:
    return read_container(path, expect_kind="exploration")


class ExplorationCheckpointer(_RollingFiles):
    """Persist/restore completed exploration evaluations.

    Args:
        directory: Checkpoint directory (created on first save).
        keep: Newest valid files retained (older ones are pruned).

    Duck-typed against :func:`repro.explore.explorer.explore`'s
    ``checkpoint`` parameter: ``save`` is called every
    ``checkpoint_every`` evaluations with the full row set, ``load``
    once at startup.
    """

    def __init__(self, directory, keep: int = 2):
        super().__init__(directory, "exploration", _read, keep=keep, width=0)

    # -- write ---------------------------------------------------------------
    def save(self, evaluations, space, config) -> Path:
        """Write every completed evaluation; returns the file written."""
        from repro.explore.explorer import EvaluatedPoint  # avoid import cycle at module load

        for row in evaluations:
            if not isinstance(row, EvaluatedPoint):
                raise TypeError(f"expected EvaluatedPoint rows, got {type(row).__name__}")
        rows = sorted(evaluations, key=lambda e: (e.rung, e.point.index))
        return self._write(
            len(rows),
            write_container,
            "exploration",
            {"space": space.spec(), "config": config.spec(), "count": len(rows)},
            {
                "point_index": np.array([r.point.index for r in rows], dtype=np.int64),
                "rung": np.array([r.rung for r in rows], dtype=np.int64),
                "full": np.array([r.full for r in rows], dtype=np.uint8),
                "accuracy": np.array([r.accuracy for r in rows], dtype=np.float64),
                "area_mm2": np.array([r.area_mm2 for r in rows], dtype=np.float64),
                "power_mw": np.array([r.power_mw for r in rows], dtype=np.float64),
                "latency_us": np.array([r.latency_us for r in rows], dtype=np.float64),
                "energy_uj": np.array([r.energy_uj for r in rows], dtype=np.float64),
            },
        )

    # -- read ----------------------------------------------------------------
    def load(self, space, config) -> dict:
        """Restore ``{(rung, point index): EvaluatedPoint}`` or ``{}``.

        Reads the newest valid file.  Raises
        :class:`~repro.io.artifacts.ArtifactSchemaError` when the stored
        space or config spec does not match the caller's — rows measured
        on a different grid or seed must never silently seed a resumed
        search — and :class:`~repro.io.artifacts.ArtifactCorruptError`
        when files exist but none reads.
        """
        from repro.explore.explorer import EvaluatedPoint

        restored = self._restore()
        if restored is None:
            return {}
        path, (header, arrays) = restored
        meta = header["meta"]
        if meta.get("space") != space.spec():
            raise ArtifactSchemaError(
                f"{path}: checkpoint was written for a different design space "
                f"({meta.get('space')!r} != {space.spec()!r})"
            )
        if meta.get("config") != config.spec():
            raise ArtifactSchemaError(
                f"{path}: checkpoint was written for a different exploration config "
                f"({meta.get('config')!r} != {config.spec()!r})"
            )
        required = (
            "point_index", "rung", "full", "accuracy",
            "area_mm2", "power_mw", "latency_us", "energy_uj",
        )
        missing = [name for name in required if name not in arrays]
        if missing:
            raise ArtifactSchemaError(f"{path}: checkpoint missing arrays {missing}")
        lengths = {name: len(arrays[name]) for name in required}
        if len(set(lengths.values())) != 1:
            raise ArtifactSchemaError(f"{path}: ragged checkpoint arrays {lengths}")
        points = space.points()
        final_rung = config.final_rung
        done = {}
        for i in range(lengths["point_index"]):
            index = int(arrays["point_index"][i])
            rung = int(arrays["rung"][i])
            if not 0 <= index < len(points):
                raise ArtifactSchemaError(
                    f"{path}: point index {index} outside the {len(points)}-point space"
                )
            if not 0 <= rung <= final_rung:
                raise ArtifactSchemaError(
                    f"{path}: rung {rung} outside the {final_rung + 1}-rung ladder"
                )
            done[(rung, index)] = EvaluatedPoint(
                point=points[index],
                rung=rung,
                accuracy=float(arrays["accuracy"][i]),
                area_mm2=float(arrays["area_mm2"][i]),
                power_mw=float(arrays["power_mw"][i]),
                latency_us=float(arrays["latency_us"][i]),
                energy_uj=float(arrays["energy_uj"][i]),
                full=bool(arrays["full"][i]),
            )
        return done
