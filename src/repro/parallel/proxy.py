"""Host-side engine facade executing batches in pool workers.

:class:`SharedEngineProxy` quacks like a
:class:`~repro.core.engine.BatchedEngine` for everything the serving
tier touches — ``run``, ``input_shape``, ``deployed``, ``fingerprint``
— but ships each batch to a :class:`~repro.parallel.pool.ProcessPoolRunner`
worker, where the real engine runs over shared-memory weight planes.
Supervision, metrics, adaptive batching, and rollover all operate on it
unchanged; a worker crash surfaces through ``run`` as
:class:`~repro.parallel.pool.WorkerCrashedError`, which the Supervisor
already treats as actor death.
"""

from __future__ import annotations

import numpy as np

from repro.core.mfdfp import DeployedMFDFP
from repro.parallel import worker as worker_mod
from repro.parallel.arena import ArenaSpec
from repro.parallel.pool import ProcessPoolRunner


class SharedEngineProxy:
    """Batched-engine stand-in whose batches execute in pool workers.

    Self-healing cold path: any worker may pick a batch up, and one
    that has not installed the model yet raises
    :class:`~repro.parallel.worker.ModelNotLoadedError`; the proxy
    retries once with :func:`~repro.parallel.worker.install_and_run`,
    which ships the (weightless-on-the-wire) deployed artifact and
    attaches the shared planes.  After each worker has seen each model
    once, requests carry only the fingerprint and the batch.
    """

    def __init__(self, runner: ProcessPoolRunner, deployed: DeployedMFDFP, spec: ArenaSpec):
        self.runner = runner
        self.deployed = deployed
        self.spec = spec
        self.fingerprint = spec.fingerprint
        self.input_shape = tuple(deployed.input_shape)

    def run(self, x: np.ndarray) -> np.ndarray:
        try:
            return self.runner.call(worker_mod.run_batch, self.fingerprint, x)
        except worker_mod.ModelNotLoadedError:
            return self.runner.call(worker_mod.install_and_run, self.deployed, self.spec, x)

    def __repr__(self) -> str:
        return (
            f"SharedEngineProxy({self.deployed.name}, segment={self.spec.segment}, "
            f"workers={self.runner.workers})"
        )
