"""One resume policy under all three checkpointers.

``Checkpointer``, ``PipelineCheckpointer`` (through ``resume_algorithm1``)
and ``ExplorationCheckpointer`` share one rule: a file is valid when the
read its restore performs succeeds.  Restore takes the newest valid file,
skipping unreadable ones; a file that reads but does not fit raises; and
pruning counts only valid files, so a damaged newest write never evicts
the fallback.
"""

import zipfile

import numpy as np
import pytest

from repro.chaos import FaultPlan, installed
from repro.core import MFDFPConfig, run_algorithm1
from repro.datasets import cifar10_surrogate
from repro.explore import DesignSpace, ExploreConfig
from repro.explore.explorer import EvaluatedPoint
from repro.io import (
    ArtifactCorruptError,
    ArtifactSchemaError,
    Checkpointer,
    ExplorationCheckpointer,
    PipelineCheckpointer,
    read_header,
    resume_algorithm1,
    write_container,
)
from repro.nn import SGD, PlateauScheduler, Trainer
from repro.zoo import cifar10_small


def _flip_tensor_byte(path):
    """Flip the last data byte of one tensor entry; the header stays intact."""
    with zipfile.ZipFile(path) as archive:
        entry = next(i for i in archive.infolist() if not i.filename.startswith("__header__"))
    blob = bytearray(path.read_bytes())
    name_len = int.from_bytes(blob[entry.header_offset + 26 : entry.header_offset + 28], "little")
    extra_len = int.from_bytes(blob[entry.header_offset + 28 : entry.header_offset + 30], "little")
    data_start = entry.header_offset + 30 + name_len + extra_len
    blob[data_start + entry.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(blob))
    read_header(path)  # still reads: only a full read can tell


def _tear(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])


def _bitflip_plan(seed):
    return FaultPlan.from_dict(
        {
            "seed": seed,
            "rules": [{"site": "io.artifact.write", "fault": "bitflip", "trigger": {"call": 2}}],
        }
    )


class TrainerCase:
    """``Checkpointer``: files ``epoch_0001``/``epoch_0002``; restore = ``resume``."""

    @staticmethod
    def _trainer():
        net = cifar10_small(size=8, width=4, rng=np.random.default_rng(0))
        optimizer = SGD(net.params, lr=0.02, momentum=0.9)
        return Trainer(
            net,
            optimizer,
            scheduler=PlateauScheduler(optimizer, patience=1),
            batch_size=16,
            rng=np.random.default_rng(5),
        )

    def write(self, directory, keep=None):
        train, test = cifar10_surrogate(n_train=64, n_test=32, size=8, seed=2)
        ck = Checkpointer(directory, keep=keep)
        self._trainer().fit(train, test, epochs=2, checkpoint=ck)
        return ck

    def restore(self, directory) -> int:
        return Checkpointer(directory).resume(self._trainer())

    def write_foreign(self, ck):
        write_container(ck.path_for(3), "pipeline", {"phase": "phase1"}, {})


class PipelineCase:
    """``PipelineCheckpointer``: ``step_0001`` (phase 1), ``step_0002`` (phase 2);
    restore = ``resume_algorithm1``, checked bit-identical to an uninterrupted run."""

    config = MFDFPConfig(phase1_epochs=1, phase2_epochs=1, batch_size=16)

    def _run(self, checkpoint=None):
        train, test = cifar10_surrogate(n_train=64, n_test=32, size=8, seed=2)
        net = cifar10_small(size=8, width=4, rng=np.random.default_rng(0))
        return run_algorithm1(
            net, train, test, train.x[:32], self.config,
            rng=np.random.default_rng(3), checkpoint=checkpoint,
        )

    def write(self, directory, keep=3):
        ck = PipelineCheckpointer(directory, keep=keep)
        self._run(ck)
        return ck

    def restore(self, directory) -> int:
        data = PipelineCheckpointer(directory).load_latest()
        step = len(data["phase1_history"]) + len(data["trainer"]["history"])
        train, test = cifar10_surrogate(n_train=64, n_test=32, size=8, seed=2)
        template = cifar10_small(size=8, width=4, rng=np.random.default_rng(0))
        result = resume_algorithm1(template, train, test, directory)
        ref = self._run()
        assert result.phase2.val_errors == ref.phase2.val_errors
        for a, b in zip(result.mfdfp.params, ref.mfdfp.params):
            assert np.array_equal(a.data, b.data)
        return step

    def write_foreign(self, ck):
        write_container(ck.directory / "step_0003.npz", "checkpoint", {"phase": "phase1"}, {})


SPACE = DesignSpace(bits=(4, 8), min_exps=(-7,), num_pus=(1, 2), technologies=("65nm",))
OTHER_SPACE = DesignSpace(bits=(8,), min_exps=(-7,), num_pus=(1, 2, 4), technologies=("65nm",))
EXPLORE = ExploreConfig(seed=3, rung_epochs=(0, 1), final_epochs=2)


def _rows(space):
    return [
        EvaluatedPoint(
            point=p, rung=0, accuracy=0.5 + 0.01 * p.index, area_mm2=1.0 + p.index,
            power_mw=10.0, latency_us=2.0, energy_uj=0.02, full=False,
        )
        for p in space.points()
    ]


class ExplorationCase:
    """``ExplorationCheckpointer``: ``exploration_1``/``exploration_2``;
    restore = ``load``, which returns one row per stored evaluation."""

    def write(self, directory, keep=2):
        ck = ExplorationCheckpointer(directory, keep=keep)
        rows = _rows(SPACE)
        ck.save(rows[:1], SPACE, EXPLORE)
        ck.save(rows[:2], SPACE, EXPLORE)
        return ck

    def restore(self, directory) -> int:
        return len(ExplorationCheckpointer(directory).load(SPACE, EXPLORE))

    def write_foreign(self, ck):
        ck.save(_rows(OTHER_SPACE)[:3], OTHER_SPACE, EXPLORE)


CASES = [
    pytest.param(TrainerCase(), id="checkpointer"),
    pytest.param(PipelineCase(), id="pipeline"),
    pytest.param(ExplorationCase(), id="exploration"),
]


@pytest.mark.parametrize("case", CASES)
class TestResumePolicy:
    def test_corrupt_tensor_falls_back_to_next_newest(self, case, tmp_path):
        ck = case.write(tmp_path)
        newest = ck.checkpoints()[-1]
        _flip_tensor_byte(newest)
        assert case.restore(tmp_path) == 1
        assert newest.is_file(), "an unreadable file stays as evidence"

    def test_every_file_unreadable_is_typed(self, case, tmp_path):
        ck = case.write(tmp_path)
        for path in ck.checkpoints():
            _tear(path)
        with pytest.raises(ArtifactCorruptError, match="all 2 checkpoint file"):
            case.restore(tmp_path)

    def test_foreign_newest_file_raises_instead_of_being_skipped(self, case, tmp_path):
        ck = case.write(tmp_path)
        case.write_foreign(ck)
        with pytest.raises(ArtifactSchemaError):
            case.restore(tmp_path)

    @pytest.mark.parametrize("seed", range(4))
    def test_keep_one_under_bitflip_stays_resumable(self, case, tmp_path, seed):
        with installed(_bitflip_plan(seed)):
            ck = case.write(tmp_path, keep=1)
        assert ck.checkpoints(), "pruning deleted every checkpoint"
        assert case.restore(tmp_path) in (1, 2)
