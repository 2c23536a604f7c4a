"""Checkpointer behaviour and in-process exact-resume guarantees.

(The fresh-process kill-and-resume bit-identity gates live in
``test_resume_bit_identity.py``; these tests cover the mechanics —
intervals, restore strictness, RNG-site coverage — at in-process speed.)
"""

import numpy as np
import pytest

from repro.core import MFDFPConfig, MFDFPNetwork, run_algorithm1
from repro.core.pipeline import phase1_finetune
from repro.datasets import cifar10_surrogate
from repro.io import (
    Checkpointer,
    CheckpointStateError,
    PipelineCheckpointer,
    load_checkpoint,
    resume_algorithm1,
    save_checkpoint,
)
from repro.io.artifacts import ArtifactCorruptError, ArtifactError, ArtifactSchemaError
from repro.nn import SGD, PlateauScheduler, Trainer
from repro.nn.layers import Dense, Dropout, Flatten, ReLU
from repro.nn.network import Network
from repro.zoo import cifar10_small


def _problem(seed_net=0, seed_rng=5, compiled=False, dropout=False):
    train, test = cifar10_surrogate(n_train=96, n_test=48, size=8, seed=2)
    if dropout:
        rng = np.random.default_rng(seed_net)
        net = Network(
            [
                Flatten(name="flat"),
                Dense(3 * 8 * 8, 32, rng=rng, name="fc1"),
                ReLU(name="relu1"),
                Dropout(0.3, rng=np.random.default_rng(77), name="drop"),
                Dense(32, 10, rng=rng, name="fc2"),
            ],
            input_shape=(3, 8, 8),
            name="dropnet",
        )
    else:
        net = cifar10_small(size=8, width=4, rng=np.random.default_rng(seed_net))
    optimizer = SGD(net.params, lr=0.02, momentum=0.9)
    trainer = Trainer(
        net,
        optimizer,
        scheduler=PlateauScheduler(optimizer, patience=1),
        batch_size=16,
        rng=np.random.default_rng(seed_rng),
        compiled=compiled,
    )
    return trainer, train, test


def _weights_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestCheckpointer:
    def test_interval_and_latest(self, tmp_path):
        trainer, train, test = _problem()
        ck = Checkpointer(tmp_path, every=2)
        trainer.fit(train, test, epochs=5, checkpoint=ck)
        epochs = [int(p.stem.split("_")[1]) for p in ck.checkpoints()]
        assert epochs == [2, 4]
        assert ck.latest().name == "epoch_0004.npz"

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, every=0)

    def test_resume_without_checkpoint_returns_zero(self, tmp_path):
        trainer, _, _ = _problem()
        assert Checkpointer(tmp_path / "empty").resume(trainer) == 0

    def test_checkpoint_phase_label(self, tmp_path):
        trainer, train, test = _problem()
        ck = Checkpointer(tmp_path, phase="surrogate")
        trainer.fit(train, test, epochs=1, checkpoint=ck)
        phase, _, _ = load_checkpoint(ck.latest())
        assert phase == "surrogate"

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("compiled", [False, True])
    def test_resume_matches_uninterrupted(self, tmp_path, compiled, dropout):
        ref, train, test = _problem(compiled=compiled, dropout=dropout)
        ref.fit(train, test, epochs=5)

        part, train, test = _problem(compiled=compiled, dropout=dropout)
        ck = Checkpointer(tmp_path)
        part.fit(train, test, epochs=3, checkpoint=ck)

        fresh, train, test = _problem(compiled=compiled, dropout=dropout)
        assert Checkpointer(tmp_path).resume(fresh) == 3
        fresh.fit(train, test, epochs=5, resume=True)
        assert _weights_equal(ref.net.get_weights(), fresh.net.get_weights())
        assert ref.history.train_losses == fresh.history.train_losses
        assert ref.history.val_errors == fresh.history.val_errors

    def test_non_pcg64_generators_checkpoint_exactly(self, tmp_path):
        """MT19937/Philox states carry ndarrays; they must round-trip
        through the JSON header and resume bit-identically."""

        def mt_problem():
            trainer, train, test = _problem()
            trainer.rng = np.random.Generator(np.random.MT19937(7))
            return trainer, train, test

        ref, train, test = mt_problem()
        ref.fit(train, test, epochs=4)

        part, train, test = mt_problem()
        ck = Checkpointer(tmp_path)
        part.fit(train, test, epochs=2, checkpoint=ck)
        fresh, train, test = mt_problem()
        assert Checkpointer(tmp_path).resume(fresh) == 2
        fresh.fit(train, test, epochs=4, resume=True)
        assert _weights_equal(ref.net.get_weights(), fresh.net.get_weights())
        assert ref.history.train_losses == fresh.history.train_losses

    def test_resume_restores_scheduler_finish(self, tmp_path):
        trainer, train, test = _problem()
        trainer.scheduler.finished = True  # simulate a run that plateaued out
        ck = Checkpointer(tmp_path)
        ck.save(trainer)
        fresh, train, test = _problem()
        ck.resume(fresh)
        assert fresh.scheduler.finished
        fresh.fit(train, test, epochs=5, resume=True)
        assert fresh.history.epochs == []  # finished schedulers train no further

    def test_restore_into_wrong_architecture_rejected(self, tmp_path):
        trainer, train, test = _problem()
        ck = Checkpointer(tmp_path)
        trainer.fit(train, test, epochs=1, checkpoint=ck)
        other, _, _ = _problem(dropout=True)
        with pytest.raises((KeyError, ValueError)):
            ck.resume(other)

    def test_rng_site_mismatch_rejected(self, tmp_path):
        trainer, train, test = _problem(dropout=True)
        ck = Checkpointer(tmp_path)
        trainer.fit(train, test, epochs=1, checkpoint=ck)
        _, state, _ = load_checkpoint(ck.latest())
        del state["rng"]["layer:drop"]
        fresh, _, _ = _problem(dropout=True)
        with pytest.raises(ValueError, match="RNG site"):
            fresh.load_state_dict(state)


def _tear(path, keep=0.5):
    """Simulate a torn write: the file exists but its tail is gone."""
    blob = path.read_bytes()
    path.write_bytes(blob[: int(len(blob) * keep)])


class TestTornCheckpoints:
    def test_bad_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            Checkpointer(tmp_path, keep=0)

    def test_keep_prunes_oldest_verified(self, tmp_path):
        trainer, train, test = _problem()
        ck = Checkpointer(tmp_path, keep=2)
        trainer.fit(train, test, epochs=4, checkpoint=ck)
        assert [p.name for p in ck.checkpoints()] == ["epoch_0003.npz", "epoch_0004.npz"]

    def test_prune_never_deletes_newest_valid_when_newest_is_torn(self, tmp_path):
        """Regression: ``keep=1`` with a torn latest file must keep the
        newest file that actually loads — counting the torn file toward
        the window would evict resume's only fallback."""
        trainer, train, test = _problem()
        ck = Checkpointer(tmp_path, keep=1)
        trainer.fit(train, test, epochs=1, checkpoint=ck)
        valid = ck.path_for(1)
        torn = ck.path_for(2)
        torn.write_bytes(b"PK\x03\x04 torn to pieces")
        ck._prune()
        assert valid.is_file(), "pruning evicted the only loadable checkpoint"
        assert torn.is_file(), "torn files are evidence; pruning must not reap them"
        fresh, train, test = _problem()
        assert Checkpointer(tmp_path).resume(fresh) == 1

    def test_resume_skips_torn_newest_and_stays_bit_identical(self, tmp_path):
        ref, train, test = _problem()
        ref.fit(train, test, epochs=5)

        part, train, test = _problem()
        ck = Checkpointer(tmp_path)
        part.fit(train, test, epochs=3, checkpoint=ck)
        _tear(ck.path_for(3))

        fresh, train, test = _problem()
        resumed_ck = Checkpointer(tmp_path, keep=1)
        assert resumed_ck.resume(fresh) == 2  # fell back past the torn file
        fresh.fit(train, test, epochs=5, resume=True, checkpoint=resumed_ck)
        assert _weights_equal(ref.net.get_weights(), fresh.net.get_weights())
        assert ref.history.train_losses == fresh.history.train_losses
        # Re-running epoch 3 healed the torn file; pruning then applied.
        assert resumed_ck.latest().name == "epoch_0005.npz"

    def test_resume_with_every_file_torn_is_typed(self, tmp_path):
        trainer, train, test = _problem()
        ck = Checkpointer(tmp_path)
        trainer.fit(train, test, epochs=2, checkpoint=ck)
        for path in ck.checkpoints():
            _tear(path, keep=0.3)
        fresh, _, _ = _problem()
        with pytest.raises(ArtifactCorruptError, match="all 2 checkpoint file"):
            Checkpointer(tmp_path).resume(fresh)

    def test_pipeline_torn_newest_step_falls_back(self, tmp_path):
        train, test = cifar10_surrogate(n_train=96, n_test=48, size=8, seed=2)
        net = cifar10_small(size=8, width=4, rng=np.random.default_rng(0))
        config = MFDFPConfig(phase1_epochs=1, phase2_epochs=1, batch_size=16)
        ck = PipelineCheckpointer(tmp_path)
        run_algorithm1(net, train, test, train.x[:48], config,
                       rng=np.random.default_rng(3), checkpoint=ck)
        steps = ck.checkpoints()
        assert [p.name for p in steps] == ["step_0001.npz", "step_0002.npz"]
        _tear(steps[-1])
        data = ck.load_latest()
        assert data["phase"] == "phase1"  # the newest *loadable* boundary
        _tear(steps[0], keep=0.3)
        with pytest.raises(ArtifactCorruptError, match="unreadable"):
            ck.load_latest()

    def test_pipeline_prune_spares_newest_valid_behind_torn_file(self, tmp_path):
        """The verified-only window applies to step files too: a torn
        newest step must not push the newest valid one out of ``keep``."""
        valid = [tmp_path / f"step_{i:04d}.npz" for i in (1, 2)]
        trainer, _, _ = _problem()
        for path in valid:
            save_checkpoint(path, trainer.state_dict(), phase="phase1")
        torn = tmp_path / "step_0003.npz"
        torn.write_bytes(b"half a zip")
        ck = PipelineCheckpointer(tmp_path, keep=1)
        deleted = ck._prune()
        assert deleted == [valid[0]]
        assert valid[1].is_file() and torn.is_file()


class TestStochasticResume:
    def test_stochastic_weight_hooks_resume_exactly(self, tmp_path):
        """Stochastic rounding consumes RNG per forward; resume must too."""
        train, test = cifar10_surrogate(n_train=96, n_test=48, size=8, seed=2)
        config = MFDFPConfig(
            phase1_epochs=3, phase2_epochs=0, batch_size=16, weight_mode="stochastic",
            snapshot_phase1=False, compiled=True,
        )

        def make_mfdfp(rng):
            net = cifar10_small(size=8, width=4, rng=np.random.default_rng(1))
            return MFDFPNetwork.from_float(
                net, train.x[:48], weight_mode="stochastic", rng=rng
            )

        rng_a = np.random.default_rng(11)
        mf_a = make_mfdfp(rng_a)
        ref = phase1_finetune(mf_a, train, test, config, rng=rng_a)

        rng_b = np.random.default_rng(11)
        mf_b = make_mfdfp(rng_b)
        opt = SGD(mf_b.params, lr=config.lr, momentum=config.momentum)
        trainer = Trainer(
            mf_b.net,
            opt,
            scheduler=PlateauScheduler(opt, patience=config.plateau_patience,
                                       factor=config.lr_factor, min_lr=config.min_lr),
            batch_size=config.batch_size,
            rng=rng_b,
            compiled=config.compiled,
        )
        ck = Checkpointer(tmp_path)
        trainer.fit(train, test, epochs=2, checkpoint=ck)

        rng_c = np.random.default_rng(999)  # seed irrelevant: state is restored
        mf_c = make_mfdfp(rng_c)
        resumed = phase1_finetune(
            mf_c, train, test, config, rng=rng_c,
            resume_state=load_checkpoint(ck.latest())[1],
        )
        assert ref.train_losses == resumed.train_losses
        assert ref.val_errors == resumed.val_errors
        for a, b in zip(mf_a.params, mf_c.params):
            assert np.array_equal(a.data, b.data)


class TestPipelineCheckpointer:
    def test_resume_config_comes_from_checkpoint(self, tmp_path):
        train, test = cifar10_surrogate(n_train=96, n_test=48, size=8, seed=2)
        net = cifar10_small(size=8, width=4, rng=np.random.default_rng(0))
        config = MFDFPConfig(phase1_epochs=1, phase2_epochs=1, batch_size=16)
        ck = PipelineCheckpointer(tmp_path)
        run_algorithm1(net, train, test, train.x[:48], config, rng=np.random.default_rng(3),
                       checkpoint=ck)
        data = ck.load_latest()
        assert data["phase"] == "phase2"
        assert data["config"]["phase1_epochs"] == 1

        template = cifar10_small(size=8, width=4, rng=np.random.default_rng(0))
        with pytest.raises(ArtifactSchemaError, match="config differs"):
            resume_algorithm1(
                template, train, test, tmp_path,
                config=MFDFPConfig(phase1_epochs=7, phase2_epochs=1, batch_size=16),
            )

    def test_resume_from_empty_directory_rejected(self, tmp_path):
        template = cifar10_small(size=8, width=4)
        train, test = cifar10_surrogate(n_train=32, n_test=16, size=8, seed=2)
        with pytest.raises(ArtifactError, match="no pipeline checkpoint"):
            resume_algorithm1(template, train, test, tmp_path / "missing")

    def test_old_step_files_are_pruned(self, tmp_path):
        """Self-contained per-step files would grow quadratically; only
        the newest ``keep`` boundaries survive (resume reads one)."""
        train, test = cifar10_surrogate(n_train=96, n_test=48, size=8, seed=2)
        net = cifar10_small(size=8, width=4, rng=np.random.default_rng(0))
        config = MFDFPConfig(phase1_epochs=3, phase2_epochs=3, batch_size=16)
        ck = PipelineCheckpointer(tmp_path, keep=2)
        run_algorithm1(net, train, test, train.x[:48], config,
                       rng=np.random.default_rng(3), checkpoint=ck)
        names = [p.name for p in ck.checkpoints()]
        assert len(names) == 2
        assert names[-1] == "step_0006.npz"  # the newest boundary survives

    def test_temp_files_are_invisible_to_resume(self, tmp_path):
        """A kill mid-write leaves only a dot-temp file; globs skip it."""
        trainer, train, test = _problem()
        ck = Checkpointer(tmp_path)
        trainer.fit(train, test, epochs=2, checkpoint=ck)
        (tmp_path / ".tmp.999.epoch_0009.npz").write_bytes(b"truncated junk")
        assert ck.latest().name == "epoch_0002.npz"
        fresh, train, test = _problem()
        assert Checkpointer(tmp_path).resume(fresh) == 2

    def test_save_requires_begin(self, tmp_path):
        trainer, _, _ = _problem()
        ck = PipelineCheckpointer(tmp_path)
        with pytest.raises(ValueError, match="begin"):
            ck._save("phase1", trainer, seq=1)

    def test_save_before_begin_is_typed_lifecycle_error(self, tmp_path):
        """Regression: out-of-order checkpointer use raises from the io
        taxonomy (CheckpointStateError < ArtifactError < ValueError), so
        resume drivers catching ArtifactError see it too."""
        trainer, _, _ = _problem()
        ck = PipelineCheckpointer(tmp_path)
        with pytest.raises(CheckpointStateError):
            ck._save("phase1", trainer, seq=1)
        with pytest.raises(ArtifactError):
            ck._save("phase2", trainer, seq=1)
