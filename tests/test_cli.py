"""CLI smoke tests (fast subcommands only; table2/fig3 train and are
exercised through their underlying library functions elsewhere)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "table3", "schedule", "fig3", "serve"):
            args = parser.parse_args([cmd])
            assert callable(args.fn)

    def test_epochs_flag(self):
        args = build_parser().parse_args(["table2", "--epochs", "4"])
        assert args.epochs == 4

    @pytest.mark.parametrize("command", ["table2", "fig3"])
    def test_training_flags_default_off(self, command):
        args = build_parser().parse_args([command])
        assert args.profile is False

    @pytest.mark.parametrize("command", ["table2", "fig3"])
    def test_training_flags_parse(self, command):
        args = build_parser().parse_args([command, "--profile"])
        assert args.profile is True
        with pytest.raises(SystemExit):  # training always takes the compiled path
            build_parser().parse_args([command, "--no-compiled"])

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--models", "alexnet,cifar10_full",
                "--workers", "4",
                "--batch", "8",
                "--max-queue", "128",
                "--requests", "32",
                "--quarantine-after", "5",
                "--health",
            ]
        )
        assert args.models == ["alexnet", "cifar10_full"]
        assert args.workers == 4 and args.max_queue == 128
        assert args.batch == 8 and args.requests == 32
        assert args.quarantine_after == 5 and args.health is True

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.models is None  # resolved at run time: zoo default or store contents
        assert args.store is None
        assert args.workers == 2 and args.max_queue == 1024
        assert args.quarantine_after == 3 and args.health is False

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["--models", "nope"], "error: unknown model 'nope'; registered: "),
            (["--models", ","], "error: argument --models: expected at least one name"),
            (["--pool-workers", "2"], r"^error: --pool-workers needs --backend process\n"),
        ],
        ids=["unknown-model", "no-model", "pool-workers-without-process-backend"],
    )
    def test_serve_rejects_bad_input_in_one_line(self, argv, match, capsys):
        """Regression: these used to raise a raw traceback (or, for
        ``--pool-workers`` on the thread backend, be silently ignored)
        before any model compiled.

        An empty ``--models`` list is refused by the parser, which prints
        its error line to stderr; the others exit with the message itself.
        """
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", *argv])
        assert re.search(match, f"{exit_info.value}\n{capsys.readouterr().err}")

    @pytest.mark.parametrize(
        "argv, match",
        [
            ([], r"^error: pass --drill NAME"),
            (["--drill", "bogus"], r"^error: unknown drill 'bogus'; choose from .*torn-checkpoint"),
        ],
        ids=["no-drill", "unknown-drill"],
    )
    def test_chaos_rejects_bad_input_in_one_line(self, argv, match):
        """Regression: an unknown drill raised a DrillError traceback."""
        with pytest.raises(SystemExit, match=match):
            main(["chaos", *argv])

    @pytest.mark.parametrize("command", ["serve", "export"])
    def test_models_flag_rejects_an_empty_list(self, command, capsys):
        """Regression: ``export --models ,`` published nothing and exited 0."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--store", "dir", "--models", ","])
        assert exit_info.value.code == 2
        assert "expected at least one name" in capsys.readouterr().err

    def test_serve_store_flag(self):
        args = build_parser().parse_args(["serve", "--store", "/tmp/somewhere"])
        assert args.store == "/tmp/somewhere"

    def test_export_flags(self):
        args = build_parser().parse_args(["export", "--store", "dir", "--models", "a,b"])
        assert args.store == "dir" and args.models == ["a", "b"]
        with pytest.raises(SystemExit):  # --store is required
            build_parser().parse_args(["export"])

    def test_import_flags(self):
        args = build_parser().parse_args(["import", "file.npz", "--store", "dir", "--name", "x"])
        assert args.src == "file.npz" and args.store == "dir" and args.name == "x"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["import", "file.npz"])

    def test_resume_flags(self):
        args = build_parser().parse_args(["resume", "--checkpoint-dir", "ck", "--epochs", "9"])
        assert args.checkpoint_dir == "ck" and args.epochs == 9
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])

    @pytest.mark.parametrize("command", ["table2", "fig3"])
    def test_checkpoint_flags(self, command):
        args = build_parser().parse_args(
            [command, "--checkpoint-dir", "ck", "--checkpoint-every", "3"]
        )
        assert args.checkpoint_dir == "ck" and args.checkpoint_every == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--checkpoint-every", "0"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    @pytest.mark.parametrize("command", ["table2", "fig3"])
    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_nonpositive_epochs_rejected(self, command, epochs):
        """Regression: bare type=int let --epochs 0/-3 crash deep in training."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--epochs", epochs])

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "faults", "--jobs", "8", "--points", "3", "--epochs", "2"]
        )
        assert args.campaign == "faults"
        assert args.jobs == 8 and args.points == 3 and args.epochs == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "bitwidth"])
        assert args.campaign == "bitwidth"
        # --jobs None = "every core", resolved by run_campaign/resolve_jobs
        assert args.jobs is None and args.points is None and args.epochs == 3
        assert args.backend == "thread"

    def test_sweep_backend_flag(self):
        args = build_parser().parse_args(["sweep", "faults", "--backend", "process"])
        assert args.backend == "process"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "faults", "--backend", "coroutine"])

    def test_serve_backend_flags(self):
        args = build_parser().parse_args(["serve", "--backend", "process", "--pool-workers", "2"])
        assert args.backend == "process" and args.pool_workers == 2
        defaults = build_parser().parse_args(["serve"])
        assert defaults.backend == "thread" and defaults.pool_workers is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--pool-workers", "0"])

    def test_sweep_rejects_unknown_campaign(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "voltage"])

    def test_sweep_rejects_nonpositive_values(self):
        for flag in ("--jobs", "--points", "--epochs"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "faults", flag, "0"])

    def test_sweep_rejects_excess_points_before_training(self):
        """--points beyond the campaign's set fails fast, not after training."""
        with pytest.raises(SystemExit, match="supports 1..6 points"):
            main(["sweep", "faults", "--points", "99"])

    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.bits == [4, 8] and args.min_exps == [-7, -9]
        assert args.weight_modes == ["deterministic"]
        assert args.num_pus == [1, 2] and args.technologies == ["65nm"]
        assert args.seed == 0 and args.rung_epochs == [0, 1]
        assert args.final_epochs == 2 and args.margin == 0.02
        assert args.no_prune is False and args.checkpoint_dir is None
        assert args.jobs is None and args.backend == "thread" and args.epochs == 3

    def test_explore_flags(self):
        args = build_parser().parse_args(
            [
                "explore",
                "--bits", "4,6,8",
                "--min-exps=-5,-7",
                "--weight-modes", "deterministic,stochastic",
                "--num-pus", "1,2,4",
                "--technologies", "65nm,28nm",
                "--seed", "7",
                "--rung-epochs", "0,1,2",
                "--final-epochs", "3",
                "--margin", "0.05",
                "--no-prune",
                "--jobs", "4",
                "--backend", "process",
                "--checkpoint-dir", "ck",
            ]
        )
        assert args.bits == [4, 6, 8] and args.min_exps == [-5, -7]
        assert args.weight_modes == ["deterministic", "stochastic"]
        assert args.num_pus == [1, 2, 4] and args.technologies == ["65nm", "28nm"]
        assert args.seed == 7 and args.rung_epochs == [0, 1, 2]
        assert args.final_epochs == 3 and args.margin == 0.05 and args.no_prune is True
        assert args.jobs == 4 and args.backend == "process" and args.checkpoint_dir == "ck"

    def test_explore_rejects_bad_axis_lists(self):
        with pytest.raises(SystemExit):  # not integers
            build_parser().parse_args(["explore", "--bits", "a,b"])
        with pytest.raises(SystemExit):  # empty list
            build_parser().parse_args(["explore", "--bits", ","])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--backend", "coroutine"])

    def test_explore_rejects_invalid_space_before_training(self):
        """A bad grid must fail fast, not after paying for surrogate training."""
        with pytest.raises(SystemExit, match="error:"):
            main(["explore", "--bits", "0"])
        # Regression: one bit trained, then died in a math domain error.
        with pytest.raises(SystemExit, match=r"^error: [^\n]*bits[^\n]*$"):
            main(["explore", "--bits", "1", "--rung-epochs", "0", "--final-epochs", "1", "--epochs", "1"])
        with pytest.raises(SystemExit, match="error:"):
            main(["explore", "--technologies", "7nm"])
        with pytest.raises(SystemExit, match="error:"):
            main(["explore", "--rung-epochs", "2,1"])
        with pytest.raises(SystemExit, match="error:"):
            main(["explore", "--margin=-0.5"])


class TestFastCommands:
    def test_table1_prints_all_designs(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "Floating-point(32,32)" in out
        assert "Proposed MF-DFP(8,4)" in out
        assert "16.52" in out

    def test_closed_pipe_exits_without_traceback(self):
        """``python -m repro chaos --list | true`` must not print a traceback."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "chaos", "--list"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader is gone before the first write
        _, err = proc.communicate(timeout=60)
        assert err.decode() == ""
        assert proc.returncode == 1

    def test_chaos_list_names_the_serve_sites(self, capsys):
        main(["chaos", "--list"])
        out = capsys.readouterr().out
        assert "serve.engine.run" in out and "serve.builder.build" in out

    def test_table3_prints_both_networks(self, capsys):
        main(["table3"])
        out = capsys.readouterr().out
        assert "cifar10_full" in out
        assert "alexnet" in out
        assert "237.95" in out

    def test_schedule_prints_latencies(self, capsys):
        main(["schedule"])
        out = capsys.readouterr().out
        assert "fp32" in out and "mfdfp" in out
        assert "us" in out and "uJ" in out

    def test_serve_reports_multi_model_metrics(self, capsys, fresh_engine_cache):
        main(
            [
                "serve",
                "--models", "cifar10_full,alexnet",
                "--workers", "2",
                "--requests", "24",
                "--batch", "8",
            ]
        )
        out = capsys.readouterr().out
        assert "hosting cifar10_full, alexnet: 2 workers" in out
        assert "cifar10_full" in out and "alexnet" in out
        assert out.count("24 served") == 2  # both models served everything
        assert "modeled NPU" in out
        assert "p50" in out and "p99" in out
        assert "engine cache: 2 compiled" in out
        assert "48 served / 0 shed" in out

    def test_serve_health_prints_structured_json(self, capsys):
        import json

        main(["serve", "--models", "cifar10_full", "--workers", "1", "--health"])
        health = json.loads(capsys.readouterr().out)
        snap = health["models"]["cifar10_full"]
        assert snap["state"] == "running"
        assert snap["completed"] == 1 and snap["queue_depth"] == 0
        assert snap["restarts"] == 0 and snap["active_version"]
        assert health["workers_per_model"] == 1
        assert health["policy"]["max_failures"] == 3

    def test_sweep_runs_fault_campaign(self, capsys):
        main(["sweep", "faults", "--epochs", "1", "--points", "2", "--jobs", "2"])
        out = capsys.readouterr().out
        assert "faults campaign (2 points, --jobs 2, thread backend)" in out
        assert "ber=0e+00" in out and "ber=1e-04" in out
        assert "engine cache:" in out
        assert "modeled NPU" in out
        assert "compiled trainer" in out  # surrogate training took the fast path

    def test_fig3_profile_prints_layer_breakdown(self, capsys):
        main(["fig3", "--epochs", "1", "--profile"])
        out = capsys.readouterr().out
        assert "per-layer training time" in out
        assert "compiled fast path" in out
        assert "conv1" in out and "ip1" in out
        assert "float baseline error" in out  # the figure still prints


class TestPersistenceCommands:
    @pytest.fixture
    def tiny_store(self, tmp_path, monkeypatch):
        """A store + zoo monkeypatched down to one fast tiny deployable."""
        import numpy as np

        import repro.zoo as zoo
        from repro.core.mfdfp import deploy_calibrated
        from repro.zoo import cifar10_small

        def tiny_builder():
            net = cifar10_small(size=8, width=4, rng=np.random.default_rng(0), dtype=np.float64)
            return deploy_calibrated(net, np.random.default_rng(1).normal(size=(16, 3, 8, 8)))

        monkeypatch.setattr(zoo, "DEPLOYABLE_BUILDERS", {"tiny": tiny_builder})
        return tmp_path / "store"

    def test_export_then_serve_from_store(self, tiny_store, capsys):
        main(["export", "--store", str(tiny_store)])
        out = capsys.readouterr().out
        assert "tiny" in out and "v0001" in out and "fingerprint" in out
        assert "1 model(s) published" in out

        main(["serve", "--store", str(tiny_store), "--requests", "8", "--workers", "1"])
        out = capsys.readouterr().out
        assert "hosting tiny: 1 workers" in out
        assert "8 served" in out

    def test_export_unknown_model_fails_cleanly(self, tiny_store):
        with pytest.raises(SystemExit, match="unknown deployable"):
            main(["export", "--store", str(tiny_store), "--models", "ghost"])

    def test_serve_missing_store_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="error: .*not a repro artifact store"):
            main(["serve", "--store", str(tmp_path / "nope")])

    def test_export_with_any_unknown_model_publishes_nothing(self, tiny_store):
        """Names validate up front: a typo must not half-populate the store."""
        from repro.io import ArtifactStore

        with pytest.raises(SystemExit, match="unknown deployable"):
            main(["export", "--store", str(tiny_store), "--models", "tiny,ghost"])
        assert ArtifactStore(tiny_store).model_names() == []

    def test_import_roundtrip(self, tiny_store, tmp_path, capsys):
        import numpy as np

        from repro.core.mfdfp import deploy_calibrated
        from repro.io import ArtifactStore, save_deployed
        from repro.zoo import cifar10_small

        net = cifar10_small(size=8, width=4, rng=np.random.default_rng(2), dtype=np.float64)
        deployed = deploy_calibrated(net, np.random.default_rng(3).normal(size=(16, 3, 8, 8)))
        src = tmp_path / "artifact.npz"
        save_deployed(deployed, src)
        main(["import", str(src), "--store", str(tiny_store), "--name", "imported"])
        out = capsys.readouterr().out
        assert "imported" in out and "v0001" in out
        assert ArtifactStore(tiny_store).model_names() == ["imported"]

    def test_import_rejects_corrupt_file(self, tiny_store, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an artifact")
        with pytest.raises(SystemExit, match="error"):
            main(["import", str(bad), "--store", str(tiny_store)])

    def test_resume_without_checkpoint_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint"):
            main(["resume", "--checkpoint-dir", str(tmp_path / "empty")])

    def test_resume_with_nothing_left_to_train_fails_cleanly(self, tmp_path):
        from repro.cli import _surrogate_trainer
        from repro.io import Checkpointer

        trainer, train, test = _surrogate_trainer()
        ck_dir = tmp_path / "ck"
        trainer.fit(train, test, epochs=2, checkpoint=Checkpointer(ck_dir))
        with pytest.raises(SystemExit, match="nothing to train"):
            main(["resume", "--checkpoint-dir", str(ck_dir), "--epochs", "2"])

    def test_resume_names_the_file_it_restored(self, tmp_path, capsys):
        """A truncated newest checkpoint is skipped, and the message says so."""
        from repro.cli import _surrogate_trainer
        from repro.io import Checkpointer

        trainer, train, test = _surrogate_trainer()
        ck = Checkpointer(tmp_path / "ck")
        trainer.fit(train, test, epochs=2, checkpoint=ck)
        newest = ck.path_for(2)
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])

        main(["resume", "--checkpoint-dir", str(ck.directory), "--epochs", "3"])
        out = capsys.readouterr().out
        assert "resuming surrogate training at epoch 2/3 (from epoch_0001.npz)" in out

    def test_resume_with_only_unreadable_checkpoints_fails_cleanly(self, tmp_path):
        ck_dir = tmp_path / "ck"
        ck_dir.mkdir()
        (ck_dir / "epoch_0001.npz").write_bytes(b"PK\x03\x04 torn")
        with pytest.raises(SystemExit, match="error: .*unreadable"):
            main(["resume", "--checkpoint-dir", str(ck_dir)])

    def test_resume_continues_surrogate_training(self, tmp_path, capsys):
        from repro.cli import _surrogate_trainer
        from repro.io import Checkpointer

        trainer, train, test = _surrogate_trainer()
        ck_dir = tmp_path / "ck"
        trainer.fit(train, test, epochs=1, checkpoint=Checkpointer(ck_dir))

        main(["resume", "--checkpoint-dir", str(ck_dir), "--epochs", "2"])
        out = capsys.readouterr().out
        assert "resuming surrogate training at epoch 2/2" in out
        assert "(resumed)" in out
        # The resumed epoch's numbers must match an uninterrupted run.
        ref, train, test = _surrogate_trainer()
        ref.fit(train, test, epochs=2)
        assert f"{ref.history.epochs[1].train_loss:.4f}" in out
        assert f"{ref.history.epochs[1].val_error:.4f}" in out
