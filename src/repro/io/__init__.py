"""Artifact persistence: one container format, checkpoints, and a store.

Everything the reproduction writes to disk flows through this package:

* :mod:`repro.io.artifacts` — the versioned ``.npz``+JSON container
  (schema-validated, fingerprint-checked, typed
  :class:`~repro.io.artifacts.ArtifactError` hierarchy) with codecs for
  deployed MF-DFP networks, float networks, optimizer state, training
  checkpoints and full :class:`~repro.core.pipeline.MFDFPResult`
  objects.  The legacy version-1 format loads here too.
* :mod:`repro.io.checkpoint` — periodic epoch-boundary checkpoints for
  :class:`~repro.nn.trainer.Trainer` and Algorithm 1, with exact
  (bit-identical) resume.
* :mod:`repro.io.store` — :class:`~repro.io.store.ArtifactStore`, the
  versioned on-disk layout that
  :meth:`repro.serve.ModelRegistry.from_store` cold-starts from and
  ``python -m repro export/import/resume`` operate on.
* :mod:`repro.io.exploration` — whole-exploration checkpoints for the
  co-design explorer (``python -m repro explore``): completed
  evaluations persist as one container per save, and a killed search
  resumes bit-identically.
"""

from repro.io.artifacts import (
    FORMAT_VERSION,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactSchemaError,
    ArtifactVersionError,
    load_checkpoint,
    load_deployed,
    load_mfdfp_result,
    load_network_into,
    load_network_state,
    load_optimizer_state,
    read_container,
    read_header,
    save_checkpoint,
    save_deployed,
    save_mfdfp_result,
    save_network,
    save_optimizer,
    write_container,
)
from repro.io.checkpoint import (
    Checkpointer,
    CheckpointStateError,
    PipelineCheckpointer,
    resume_algorithm1,
)
from repro.io.exploration import ExplorationCheckpointer
from repro.io.store import (
    ArtifactStore,
    QuarantinedArtifactError,
    TransientStoreError,
)

__all__ = [
    "ArtifactCorruptError",
    "ArtifactError",
    "ArtifactSchemaError",
    "ArtifactStore",
    "ArtifactVersionError",
    "Checkpointer",
    "ExplorationCheckpointer",
    "FORMAT_VERSION",
    "PipelineCheckpointer",
    "QuarantinedArtifactError",
    "TransientStoreError",
    "load_checkpoint",
    "load_deployed",
    "load_mfdfp_result",
    "load_network_into",
    "load_network_state",
    "load_optimizer_state",
    "read_container",
    "read_header",
    "resume_algorithm1",
    "save_checkpoint",
    "save_deployed",
    "save_mfdfp_result",
    "save_network",
    "save_optimizer",
    "write_container",
]
