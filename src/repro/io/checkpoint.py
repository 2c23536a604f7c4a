"""Periodic training checkpoints and exact (bit-identical) resume.

Two checkpointers, one contract: state is captured at an epoch boundary
— after the epoch's optimizer steps, validation sweep, history append
and scheduler step — which is exactly what ``Trainer.state_dict``
serializes (master weights, velocity, scheduler progress, every RNG
site, history).  A run killed at any epoch boundary and resumed in a
fresh process produces bit-identical weights, loss curves and
distillation results to the uninterrupted run, on both the eager and
compiled training paths; ``tests/io/test_resume_bit_identity.py``
proves this in subprocesses.

* :class:`Checkpointer` — for a plain :class:`~repro.nn.trainer.Trainer`;
  pass it as ``Trainer.fit(..., checkpoint=ck)`` and later
  ``ck.resume(trainer)`` + ``fit(..., resume=True)``.
* :class:`PipelineCheckpointer` — for Algorithm 1
  (:func:`~repro.core.pipeline.run_algorithm1`); it additionally
  persists the quantization plan, the frozen teacher, the phase-1
  snapshot series and the config, so :func:`resume_algorithm1` can
  rebuild the MF-DFP student in a process that never ran phase 1.

Both, and :class:`~repro.io.exploration.ExplorationCheckpointer`, share
one rolling-file policy (:class:`_RollingFiles`): a file is valid when
its full restore read succeeds (every entry's CRC, not just the header);
pruning counts only valid files; restore reads the newest valid file,
skipping unreadable ones, and raises on a file that reads but does not
fit (another schema, version, config or space).
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from repro.io.artifacts import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactSchemaError,
    _field,
    _int_field,
    _pack,
    _snapshot_arrays,
    _snapshots_from_arrays,
    _trainer_state_join,
    _trainer_state_split,
    _unpack,
    load_checkpoint,
    plan_from_meta,
    plan_to_meta,
    read_container,
    save_checkpoint,
    write_container,
)


class CheckpointStateError(ArtifactError):
    """A checkpointer method was called out of lifecycle order.

    Raised when :class:`PipelineCheckpointer` is asked to save before
    :meth:`~PipelineCheckpointer.begin` established the run context —
    programmer error at the call site, not a corrupt artifact, but still
    part of the :class:`~repro.io.artifacts.ArtifactError` taxonomy so
    resume drivers can catch the whole io tier by meaning.
    """


def _epoch_of(path: Path) -> int:
    try:
        return int(path.stem.rsplit("_", 1)[-1])
    except ValueError:
        return -1


def _version(path: Path) -> tuple:
    """Identity of one write of ``path``: any rewrite or tamper changes it."""
    stat = path.stat()
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


class _RollingFiles:
    """Numbered checkpoint files ``<prefix>_<n>.npz`` and the policy over them.

    ``read`` is the checkpointer's restore read; it raises
    :class:`~repro.io.artifacts.ArtifactCorruptError` for an unreadable
    file.  A file is valid unless that read raises it — one verdict per
    file version, shared by pruning, :meth:`latest` and :meth:`_restore`.
    """

    def __init__(self, directory, prefix: str, read, keep: Optional[int], every: int = 1, width: int = 4):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if keep is not None and keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self._prefix = prefix
        self._width = width
        self._read = read
        self._verdicts: dict[Path, tuple] = {}  # path -> (version, corrupt error or None)

    def path_for(self, n: int) -> Path:
        return self.directory / f"{self._prefix}_{n:0{self._width}d}.npz"

    def checkpoints(self) -> list[Path]:
        """Existing checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        found = (p for p in self.directory.glob(f"{self._prefix}_*.npz") if _epoch_of(p) >= 0)
        return sorted(found, key=_epoch_of)

    def latest(self) -> Optional[Path]:
        """Newest valid checkpoint — the file a restore reads — or None."""
        return next((p for p in reversed(self.checkpoints()) if self._valid(p)), None)

    def _valid(self, path: Path) -> bool:
        version = _version(path)
        if self._verdicts.get(path, (None,))[0] != version:
            error = None
            try:
                self._read(path)
            except ArtifactCorruptError as exc:
                error = exc
            except ArtifactError:
                pass  # intact but foreign: valid here, and restore raises on it
            self._verdicts[path] = (version, error)
        return self._verdicts[path][1] is None

    def _write(self, n: int, save, *args) -> Path:
        """``save(path, *args)`` to file ``n``, then prune.

        Pruning keeps the newest ``keep`` valid files.  Invalid files
        neither count nor get deleted, so a damaged newest write never
        evicts the fallback, and stays as evidence.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(n)
        save(path, *args)
        self._prune()
        return path

    def _prune(self) -> list[Path]:
        if self.keep is None:
            return []
        doomed = [p for p in self.checkpoints() if self._valid(p)][: -self.keep]
        for path in doomed:
            path.unlink(missing_ok=True)
            del self._verdicts[path]
        return doomed

    def _restore(self) -> Optional[tuple[Path, object]]:
        """``(path, data)`` of the newest valid file, or None when there are none.

        If files exist but none reads, raises
        :class:`~repro.io.artifacts.ArtifactCorruptError` rather than
        letting the caller silently start from scratch.
        """
        found = self.checkpoints()
        for path in reversed(found):
            if self._valid(path):
                return path, self._read(path)
        if not found:
            return None
        newest = self._verdicts[found[-1]][1]
        raise ArtifactCorruptError(
            f"{self.directory}: all {len(found)} checkpoint file(s) are unreadable; "
            f"newest error: {newest}"
        ) from newest


class Checkpointer(_RollingFiles):
    """Writes (and restores) epoch-boundary checkpoints of one training run.

    Args:
        directory: Where checkpoint files live; created on first save.
            Files are named ``epoch_0003.npz`` by completed-epoch count.
        every: Save every k-th epoch (the final state of a run killed
            between saves is recovered by re-running the few epochs
            since the last checkpoint — bit-identical either way).
        phase: Label stored in each checkpoint (pipeline phases use
            ``phase1``/``phase2``).
        keep: Retain only the newest ``keep`` *valid* checkpoints
            (``None`` keeps everything).  Pruning never counts or
            deletes an unreadable file: if the newest file on disk is
            damaged, the newest valid one stays within the kept window
            and :meth:`resume` falls back to it.

    An instance is callable with the trainer, matching the
    ``Trainer.fit(checkpoint=...)`` hook.
    """

    def __init__(
        self,
        directory,
        every: int = 1,
        phase: str = "train",
        keep: Optional[int] = None,
    ):
        super().__init__(directory, "epoch", load_checkpoint, keep=keep, every=every)
        self.phase = phase

    def __call__(self, trainer) -> None:
        epoch = len(trainer.history.epochs)
        if epoch % self.every == 0:
            self.save(trainer)

    def save(self, trainer) -> Path:
        """Write the trainer's current epoch-boundary state."""
        return self._write(
            len(trainer.history.epochs), save_checkpoint, trainer.state_dict(), self.phase
        )

    def resume(self, trainer) -> int:
        """Restore the newest valid checkpoint into ``trainer``.

        Returns the number of completed epochs restored (0 when no
        checkpoint exists — the caller trains from scratch).  Continue
        with ``trainer.fit(..., resume=True, checkpoint=self)``.

        An unreadable newest file (e.g. torn by a kill mid-write, or
        bit-flipped by storage) is skipped and the next-newest
        checkpoint restored instead; resume then re-runs the lost
        epochs, which is bit-identical by the epoch-boundary contract.
        A file that reads but is not a training checkpoint, or does not
        fit ``trainer``, raises.  If checkpoint files exist but none
        reads, :class:`~repro.io.artifacts.ArtifactCorruptError` is
        raised rather than silently training from scratch.
        """
        restored = self._restore()
        if restored is None:
            return 0
        _, (_, state, _) = restored
        trainer.load_state_dict(state)
        return len(trainer.history.epochs)


def _read_step(path: Path) -> dict:
    """One pipeline step file as restore data."""
    header, arrays = read_container(path, expect_kind="pipeline")
    meta = header["meta"]
    ctx = str(path)
    phase = _field(meta, "phase", str, ctx)
    if phase not in ("phase1", "phase2"):
        raise ArtifactSchemaError(f"{ctx}: unknown pipeline phase {phase!r}")
    snapshots = None
    if meta.get("has_snapshots"):
        snapshots = _snapshots_from_arrays(arrays, _int_field(meta, "n_snapshots", ctx))
    return {
        "phase": phase,
        "config": _field(meta, "config", dict, ctx),
        "plan_meta": _field(meta, "plan", dict, ctx),
        "float_val_error": float(_field(meta, "float_val_error", (int, float), ctx)),
        "phase1_history": _field(meta, "phase1_history", list, ctx),
        "trainer": _trainer_state_join(meta, arrays, ctx),
        "teacher": _unpack(arrays, "teacher"),
        "snapshots": snapshots,
    }


class PipelineCheckpointer(_RollingFiles):
    """Checkpoints Algorithm 1 across both fine-tuning phases.

    Pass to :func:`repro.core.pipeline.run_algorithm1` as
    ``checkpoint=``; the pipeline calls :meth:`begin` once with the run
    context and :meth:`phase1`/:meth:`phase2` at each epoch boundary.
    Each file (``step_0004.npz``, numbered by epochs across both phases)
    is self-contained: config, plan, teacher weights, the phase trainer
    state, completed phase-1 history and the snapshot series — enough
    for :func:`resume_algorithm1` to continue in a process with no
    memory of the original run.  Disk use would grow quadratically with
    epochs if every step survived, so only the newest ``keep`` valid
    files are kept (a margin of fallbacks, not a history).
    """

    def __init__(self, directory, every: int = 1, keep: int = 3):
        super().__init__(directory, "step", _read_step, keep=keep, every=every)
        self._ctx: Optional[dict] = None
        self._phase1_history: list = []

    # -- pipeline protocol -------------------------------------------------
    def begin(self, plan, config, teacher, float_val_error, snapshots) -> None:
        """Bind the run context (called by ``run_algorithm1``)."""
        self._ctx = {
            "plan": plan_to_meta(plan),
            "config": asdict(config),
            "teacher": {p.name: p.data.copy() for p in teacher.params},
            "float_val_error": float(float_val_error),
            "snapshots": snapshots,
        }

    def phase1_complete(self, history) -> None:
        self._phase1_history = [asdict(e) for e in history.epochs]

    def phase1(self, trainer) -> None:
        epochs = len(trainer.history.epochs)
        if epochs % self.every == 0:
            self._save("phase1", trainer, seq=epochs)

    def phase2(self, trainer) -> None:
        epochs = len(trainer.history.epochs)
        if epochs % self.every == 0:
            self._save("phase2", trainer, seq=len(self._phase1_history) + epochs)

    # -- persistence -------------------------------------------------------
    def _save(self, phase: str, trainer, seq: int) -> Path:
        if self._ctx is None:
            raise CheckpointStateError("PipelineCheckpointer.begin was never called")
        meta, arrays = _trainer_state_split(trainer.state_dict())
        snapshots = self._ctx["snapshots"]
        meta.update(
            {
                "phase": phase,
                "plan": self._ctx["plan"],
                "config": self._ctx["config"],
                "float_val_error": self._ctx["float_val_error"],
                "phase1_history": self._phase1_history,
                "has_snapshots": snapshots is not None,
                "n_snapshots": 0 if snapshots is None else len(snapshots),
            }
        )
        arrays.update(_pack("teacher", self._ctx["teacher"]))
        arrays.update(_snapshot_arrays(snapshots))
        return self._write(seq, write_container, "pipeline", meta, arrays)

    def load_latest(self) -> dict:
        """Load the newest valid pipeline checkpoint as restore data.

        An unreadable newest step file is skipped in favour of the
        next-newest one (resume re-runs the lost epochs bit-identically);
        if step files exist but none reads,
        :class:`~repro.io.artifacts.ArtifactCorruptError` is raised.
        """
        restored = self._restore()
        if restored is None:
            raise ArtifactError(f"no pipeline checkpoint found under {self.directory}")
        return restored[1]


def resume_algorithm1(
    float_net,
    train,
    val,
    directory,
    rng: Optional[np.random.Generator] = None,
    every: int = 1,
    config=None,
):
    """Continue a killed :func:`~repro.core.pipeline.run_algorithm1` run.

    ``float_net`` supplies the architecture only (same constructor as
    the original run); plan, config, teacher weights, student state,
    RNG states and snapshots all come from the newest checkpoint under
    ``directory``, so the result is bit-identical to the uninterrupted
    run.  ``float_net`` is converted in place into the MF-DFP student,
    mirroring ``run_algorithm1``'s contract.  Checkpointing continues
    with the same ``every`` cadence.  ``config`` is normally
    reconstructed from the checkpoint; passing one that differs raises
    :class:`~repro.io.artifacts.ArtifactSchemaError` (a mismatched
    config cannot reproduce the original trajectory).
    """
    from repro.core.mfdfp import MFDFPNetwork
    from repro.core.pipeline import MFDFPConfig, _run_phases
    from repro.core.quantizer import NetworkQuantizer
    from repro.nn.trainer import EpochResult, TrainHistory

    checkpoint = PipelineCheckpointer(directory, every=every)
    data = checkpoint.load_latest()
    try:
        saved_config = MFDFPConfig(**data["config"])
    except TypeError as exc:
        raise ArtifactSchemaError(f"{directory}: malformed pipeline config: {exc}") from exc
    if config is not None and asdict(config) != asdict(saved_config):
        raise ArtifactSchemaError(
            "resume config differs from the checkpointed run "
            f"(checkpointed: {asdict(saved_config)})"
        )
    config = saved_config
    plan = plan_from_meta(data["plan_meta"], str(directory))
    # The seed below is irrelevant: every consumer of this generator has
    # its state restored from the checkpoint before the first draw.
    rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (resume must re-derive the identical pre-kill stream; default mirrors the pipeline's)

    teacher = float_net.clone()
    teacher.set_weights(data["teacher"])
    quantizer = NetworkQuantizer(
        bits=config.bits,
        min_exp=config.min_exp,
        max_exp=config.max_exp,
        weight_mode=config.weight_mode,
        dynamic=config.dynamic,
        rng=rng,
    )
    quantizer.apply(float_net, plan)
    mfdfp = MFDFPNetwork(float_net, plan)

    # A phase-2 step file means phase 1 finished: its history is restored
    # and the trainer state belongs to phase 2.
    history1 = None
    if data["phase"] == "phase2":
        history1 = TrainHistory([EpochResult(**e) for e in data["phase1_history"]])
    return _run_phases(
        mfdfp, teacher, train, val, config, rng, data["float_val_error"], data["snapshots"],
        checkpoint, resume_state=data["trainer"], phase1_history=history1,
    )
