"""Command-line interface: regenerate the paper's tables from a shell.

Usage::

    python -m repro table1            # design area / power (Table 1)
    python -m repro table3            # parameter memory (Table 3)
    python -m repro schedule          # per-layer latency of both networks
    python -m repro fig3 [--epochs N] [--profile]
                                      # Figure-3 curves on the surrogate
    python -m repro table2 [--epochs N] [--profile]
                                      # accuracy/time/energy (Table 2)
    python -m repro serve [--models a,b] [--workers N] [--batch N] \
        [--max-queue N] [--requests N] [--store DIR] [--quarantine-after N] \
        [--backend thread|process] [--pool-workers N] [--health]
                                      # supervised multi-model serving
    python -m repro sweep CAMPAIGN [--jobs N] [--backend thread|process] \
        [--points N] [--epochs N]
                                      # parallel ablation/fault campaigns
    python -m repro export --store DIR [--models a,b]
                                      # publish zoo deployables to a store
    python -m repro import SRC --store DIR [--name N]
                                      # validate + publish an artifact file
    python -m repro resume --checkpoint-dir DIR [--epochs N]
                                      # continue a checkpointed training run
    python -m repro chaos --drill NAME|all [--seed N] [--quick] [--list]
                                      # fault-injection recovery drills
    python -m repro explore [--bits 4,8] [--min-exps -7,-9] \
        [--weight-modes deterministic] [--num-pus 1,2] [--technologies 65nm] \
        [--seed N] [--rung-epochs 0,1] [--final-epochs N] [--margin X] \
        [--no-prune] [--jobs N] [--backend thread|process] \
        [--checkpoint-dir DIR] [--epochs N]
                                      # co-design DSE with Pareto pruning

``table2`` and ``fig3`` train on the CIFAR-10 surrogate and take a few
minutes; the others are instantaneous.  Training runs through the
compiled fast path (:mod:`repro.nn.compiled`), and ``--profile`` prints
its per-layer forward/backward time breakdown after the surrogate
training.  ``serve`` hosts the named
registry models (default ``cifar10_full``; ``alexnet`` also ships) on
the supervised per-model actors of :class:`repro.serve.ServerRuntime`,
pushes interleaved requests through the per-model micro-batch mailboxes,
and prints a per-model metrics summary — served/shed counts, batch fill,
latency percentiles, and the modeled silicon throughput next to the
measured one.  Each claim takes every pending request up to ``--batch``
(greedy fill).  ``--quarantine-after`` sets the consecutive-failure
budget before a crashing model is quarantined, and
``--health`` prints the structured supervision/health surface as JSON
instead of running the demo traffic.

``sweep`` trains a small surrogate network once, then fans one of the
design-space ablation campaigns (``bitwidth``/``clamp``/``rounding``/
``dynamic``) or the weight-memory fault study (``faults``) out across
``--jobs`` workers — a thread pool by default, or real process workers
with ``--backend process`` (bit-identical results either way).
``serve --backend process`` likewise executes micro-batches in a pool
of ``--pool-workers`` processes against shared-memory engine weights.  Every evaluation runs through the shared
batched-evaluation API of :mod:`repro.analysis.campaign`: the fault
study executes corrupted artifacts on compiled engines behind one
content-addressed cache (the summary reports the cache traffic and the
modeled NPU batch-throughput/energy from ``Accelerator.batch_profile``),
while the design-space campaigns evaluate the quantized *simulation* —
numerically identical to the serial sweeps, parallelized.

``explore`` runs the hardware/quantization co-design search of
:mod:`repro.explore`: it trains the same small surrogate as ``sweep``,
then sweeps the declared grid (bit width × exponent clamp × rounding
mode × PU count × technology node) through successive-halving rungs —
cheap low-epoch surrogate evaluations prune Pareto-dominated designs
(accuracy↑ / energy↓ / area↓, with a ``--margin`` of slack) before the
survivors pay for full MF-DFP pipelines — and prints the resulting
frontier with per-design cost metrics from :mod:`repro.hw`.
``--no-prune`` runs every point at full fidelity instead (the frontier
baseline pruning is measured against), and ``--checkpoint-dir`` makes
the search durable: a killed exploration resumes bit-identically.

The persistence verbs ride on :mod:`repro.io`.  ``export`` builds the
zoo's deployable artifacts and publishes them (content-addressed,
versioned) into an :class:`~repro.io.store.ArtifactStore`; ``serve
--store DIR`` then cold-starts the registry from disk without
retraining or requantizing anything.  ``import`` validates any deployed
artifact file (current or legacy version-1 format) and
publishes it under a chosen name.  ``fig3``/``table2`` accept
``--checkpoint-dir`` to write epoch-boundary checkpoints of the
surrogate training, and ``resume`` continues such a run bit-identically
— same weights and curves as a run that was never interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _cmd_table1(args) -> None:
    from repro.report import format_table, table1_rows

    print(format_table(table1_rows(), title="Table 1: design metrics (measured vs paper)"))


def _cmd_table3(args) -> None:
    from repro.report import format_table, table3_rows
    from repro.zoo import alexnet, cifar10_full

    rows = table3_rows([cifar10_full(), alexnet()])
    print(format_table(rows, title="Table 3: parameter memory in MB (measured vs paper)"))


def _cmd_schedule(args) -> None:
    from repro.hw import Accelerator, AcceleratorConfig
    from repro.zoo import alexnet, cifar10_full

    for precision in ("fp32", "mfdfp"):
        acc = Accelerator(AcceleratorConfig(precision=precision))
        for net in (cifar10_full(), alexnet()):
            print(
                f"{precision:>6} {net.name:<14} {acc.latency_us(net):>12.2f} us  "
                f"{acc.energy_uj(net):>12.2f} uJ"
            )


def _surrogate_trainer(profile: bool = False):
    """The CLI's deterministic surrogate training problem, unfitted.

    Shared by ``table2``/``fig3`` (which fit it) and ``resume`` (which
    restores a checkpoint into it first) — both must construct the
    identical problem for resumed runs to be bit-identical.
    """
    from repro.datasets import cifar10_surrogate
    from repro.nn import SGD, PlateauScheduler, Trainer
    from repro.zoo import cifar10_small

    train, test = cifar10_surrogate(n_train=1500, n_test=400, size=16, noise=0.7, seed=2)
    net = cifar10_small(size=16, rng=np.random.default_rng(0))
    optimizer = SGD(net.params, lr=0.02, momentum=0.9)
    trainer = Trainer(
        net,
        optimizer,
        scheduler=PlateauScheduler(optimizer, patience=2),
        batch_size=32,
        profile=profile,
    )
    return trainer, train, test


def _train_problem(
    epochs: int,
    profile: bool = False,
    checkpoint_dir=None,
    checkpoint_every: int = 1,
):
    trainer, train, test = _surrogate_trainer(profile=profile)
    checkpoint = None
    if checkpoint_dir is not None:
        from repro.io import Checkpointer

        checkpoint = Checkpointer(checkpoint_dir, every=checkpoint_every)
    trainer.fit(train, test, epochs=epochs, checkpoint=checkpoint)
    if profile:
        _print_profile(trainer)
    return trainer.net, train, test


def _print_profile(trainer) -> None:
    from repro.nn import format_profile

    print("\nper-layer training time (surrogate training, compiled fast path):")
    print(format_profile(trainer.profile_rows()))
    print()


def _cmd_table2(args) -> None:
    from repro.core import Ensemble, MFDFPConfig, run_algorithm1
    from repro.hw import Accelerator, AcceleratorConfig
    from repro.nn import error_rate
    from repro.report import format_table, table2_row
    from repro.zoo import cifar10_full

    net, train, test = _train_problem(
        args.epochs,
        profile=args.profile,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    config = MFDFPConfig(
        phase1_epochs=args.epochs // 2, phase2_epochs=args.epochs // 2, lr=5e-3
    )
    result = run_algorithm1(net.clone(), train, test, train.x[:256], config)
    rng = np.random.default_rng(1)
    second = net.clone()
    for p in second.params:
        p.data = p.data + rng.normal(scale=0.02, size=p.data.shape).astype(p.data.dtype)
    result2 = run_algorithm1(second, train, test, train.x[:256], config, rng=rng)
    ensemble = Ensemble([result.mfdfp, result2.mfdfp])

    hw_net = cifar10_full()
    fp = Accelerator(AcceleratorConfig(precision="fp32"))
    mf = Accelerator(AcceleratorConfig(precision="mfdfp"))
    ens = Accelerator(AcceleratorConfig(precision="mfdfp", num_pus=2))
    base = fp.energy_uj(hw_net)
    rows = [
        table2_row("CIFAR-10(sur)", "Floating-Point(32,32)", 1 - error_rate(net, test), fp, hw_net),
        table2_row("CIFAR-10(sur)", "MF-DFP(8,4)", 1 - result.final_val_error, mf, hw_net, base),
        table2_row("CIFAR-10(sur)", "Ensemble MF-DFP", ensemble.accuracy(test), ens, hw_net, base),
    ]
    print(format_table(rows, title="Table 2 (measured on the surrogate)"))


def _cmd_serve(args) -> None:
    import json
    import time

    from repro.hw import Accelerator, AcceleratorConfig
    from repro.serve import ModelRegistry, QueueFullError, ServerRuntime, SupervisorPolicy

    if args.pool_workers is not None and args.backend != "process":
        raise SystemExit("error: --pool-workers needs --backend process")
    if args.store is not None:
        from repro.io import ArtifactError

        try:
            registry = ModelRegistry.from_store(args.store)
        except ArtifactError as exc:
            raise SystemExit(f"error: {exc}") from None
        default_models = registry.names()
        if not default_models:
            raise SystemExit(f"error: store {args.store} has no published models")
    else:
        registry = ModelRegistry.with_defaults()
        default_models = ["cifar10_full"]
    models = args.models or default_models
    known = registry.names()
    for name in models:  # fail fast, before any model compiles
        if name not in known:
            raise SystemExit(f"error: unknown model {name!r}; registered: {', '.join(known)}")
    runtime = ServerRuntime(
        registry,
        models,
        workers=args.workers,
        max_batch=args.batch,
        max_queue=args.max_queue,
        accelerator=Accelerator(AcceleratorConfig(precision="mfdfp")),
        policy=SupervisorPolicy(max_failures=args.quarantine_after),
        backend=args.backend,
        pool_workers=args.pool_workers,
    )
    if args.health:
        # Admin surface: one warmup request per model so the health dict
        # carries real latencies/versions, then the structured snapshot.
        warm_rng = np.random.default_rng(0)
        with runtime:
            for name in models:
                shape = registry.engine(name).input_shape
                runtime.submit(
                    name, warm_rng.normal(scale=0.5, size=shape).astype(np.float32)
                ).result()
            print(json.dumps(runtime.health(), indent=2, sort_keys=True))
        return
    rng = np.random.default_rng(0)
    samples = {
        name: rng.normal(scale=0.5, size=(args.requests,) + registry.engine(name).input_shape)
        .astype(np.float32)
        for name in models
    }

    print(
        f"hosting {', '.join(models)}: {args.workers} workers, "
        f"micro-batch {args.batch}, max queue {args.max_queue}"
    )
    t0 = time.perf_counter()
    futures, shed = [], 0
    with runtime:
        for i in range(args.requests):  # interleave models, as live traffic would
            for name in models:
                try:
                    futures.append((name, runtime.submit(name, samples[name][i])))
                except QueueFullError:
                    shed += 1
        logits = {name: [] for name in models}
        for name, future in futures:
            logits[name].append(future.result())
    elapsed = time.perf_counter() - t0

    served = sum(len(rows) for rows in logits.values())
    for name in models:
        stats = runtime.metrics_summary()[name]
        profile = runtime.hw_profile(name)
        print(
            f"  {name:<14} {stats['completed']:>5} served  {stats['rejected']:>3} shed  "
            f"mean fill {stats['mean_fill']:>5.1f}/{args.batch}  "
            f"p50 {1e3 * stats['latency_p50_s']:>6.2f} ms  "
            f"p99 {1e3 * stats['latency_p99_s']:>6.2f} ms  "
            f"modeled NPU {profile['throughput_ips']:>9.1f} samples/s"
        )
    cache = registry.cache_stats()
    print(
        f"  total         {served} served / {shed} shed in {elapsed:.3f}s "
        f"({served / elapsed:.1f} samples/s measured); "
        f"engine cache: {cache['misses']} compiled, {cache['hits']} hits"
    )
    for name in models:
        hist = np.bincount(np.argmax(np.stack(logits[name]), axis=1), minlength=10)
        print(f"  {name} prediction histogram: {hist}")


def _cmd_sweep(args) -> None:
    import time

    from repro.analysis import run_campaign, train_surrogate
    from repro.analysis.campaign import campaign_points
    from repro.core.engine import engine_cache
    from repro.core.mfdfp import deploy_calibrated
    from repro.datasets import cifar10_surrogate
    from repro.zoo import cifar10_small

    try:  # reject a bad --points before paying for training
        campaign_points(args.campaign, args.points)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    train, test = cifar10_surrogate(n_train=600, n_test=240, size=16, noise=0.7, seed=2)
    net = cifar10_small(size=16, rng=np.random.default_rng(0))
    print(f"training surrogate network ({args.epochs} epochs, compiled trainer)...")
    t0 = time.perf_counter()
    train_surrogate(
        net, train, test, epochs=args.epochs, rng=np.random.default_rng(1)
    )
    train_s = time.perf_counter() - t0

    calib = train.x[:256]
    deployed = None
    if args.campaign == "faults":
        deployed = deploy_calibrated(net.clone(), calib)
    result = run_campaign(
        args.campaign,
        net=net,
        deployed=deployed,
        calibration_x=calib,
        x=test.x,
        y=test.y,
        points=args.points,
        jobs=args.jobs,
        backend=args.backend,
        rng=np.random.default_rng(0),
    )

    metric = "accuracy" if args.campaign == "faults" else "error rate"
    print(
        f"\n{args.campaign} campaign ({len(result.points)} points, "
        f"--jobs {result.jobs}, {result.backend} backend)"
    )
    print(f"{'point':>16} {metric:>12}")
    for row in result.rows():
        print(f"{row['label']:>16} {row['value']:>12.4f}")
    summary = (
        f"\ntrained in {train_s:.1f}s; campaign in {result.elapsed_s:.2f}s "
        f"({len(result.points) / result.elapsed_s:.1f} points/s)"
    )
    if deployed is not None:  # only the fault study runs compiled engines
        summary += (
            f"; engine cache: {result.cache_misses} compiled, "
            f"{result.cache_hits} hits ({len(engine_cache())} resident)"
        )
    print(summary)
    if deployed is not None:
        from repro.hw import Accelerator, AcceleratorConfig

        # Pure schedule accounting — no recompile, no re-evaluation (the
        # campaign's ber=0 row already shows the clean accuracy).
        profile = Accelerator(AcceleratorConfig(precision="mfdfp")).batch_profile(
            deployed, batch_size=min(256, len(test.x))
        )
        print(
            f"modeled NPU (batched, clean weights): "
            f"{profile['throughput_ips']:.0f} samples/s, "
            f"{profile['energy_uj_per_sample']:.2f} uJ/sample "
            f"at batch {profile['batch_size']}"
        )


def _cmd_explore(args) -> None:
    import time

    from repro.analysis import train_surrogate
    from repro.datasets import cifar10_surrogate
    from repro.explore import (
        DesignSpace,
        DesignSpaceError,
        ExploreConfig,
        ExploreConfigError,
        explore,
    )
    from repro.zoo import cifar10_small

    try:
        space = DesignSpace(
            bits=tuple(args.bits),
            min_exps=tuple(args.min_exps),
            weight_modes=tuple(args.weight_modes),
            num_pus=tuple(args.num_pus),
            technologies=tuple(args.technologies),
        )
        config = ExploreConfig(
            seed=args.seed,
            rung_epochs=tuple(args.rung_epochs),
            final_epochs=args.final_epochs,
            margin=args.margin,
            prune=not args.no_prune,
        )
    except (DesignSpaceError, ExploreConfigError) as exc:
        raise SystemExit(f"error: {exc}") from None
    checkpoint = None
    if args.checkpoint_dir is not None:
        from repro.io import ExplorationCheckpointer

        checkpoint = ExplorationCheckpointer(args.checkpoint_dir)

    train, test = cifar10_surrogate(n_train=600, n_test=240, size=16, noise=0.7, seed=2)
    net = cifar10_small(size=16, rng=np.random.default_rng(0))
    print(f"training surrogate network ({args.epochs} epochs, compiled trainer)...")
    train_surrogate(net, train, test, epochs=args.epochs, rng=np.random.default_rng(1))

    mode = "successive halving" if config.prune else "exhaustive"
    print(
        f"exploring {len(space)} designs ({mode}, rungs {list(config.rung_epochs)}"
        f"+final, --jobs {args.jobs or 1}, {args.backend} backend)"
    )
    t0 = time.perf_counter()
    result = explore(
        net, train, test, train.x[:256], space, config,
        jobs=args.jobs or 1, backend=args.backend, checkpoint=checkpoint,
    )
    elapsed = time.perf_counter() - t0

    print(f"\nPareto frontier (accuracy vs energy vs area, {len(result.frontier)} designs):")
    print(
        f"{'design':>24} {'accuracy':>9} {'area mm2':>9} {'power mW':>9} "
        f"{'lat us':>8} {'uJ/batch':>9}"
    )
    for row in result.rows():
        print(
            f"{row['label']:>24} {row['accuracy']:>9.4f} {row['area_mm2']:>9.3f} "
            f"{row['power_mw']:>9.2f} {row['latency_us']:>8.2f} {row['energy_uj']:>9.3f}"
        )
    print(
        f"\n{result.total_evaluations} evaluations "
        f"({result.full_evaluations} full MF-DFP pipelines of {len(space)} designs; "
        f"survivors per rung {result.survivors_per_rung}) in {elapsed:.1f}s"
    )
    if checkpoint is not None:
        print(f"checkpoints under {checkpoint.directory} (re-run to resume)")


def _cmd_export(args) -> None:
    from repro.io import ArtifactStore
    from repro.zoo import publish_deployables

    store = ArtifactStore(args.store)
    try:
        published = publish_deployables(store, args.models)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    for name, version in published.items():
        path = store.model_path(name, version)
        print(
            f"  {name:<14} v{version:04d}  {path.stat().st_size:>9,} bytes  "
            f"fingerprint {store.fingerprint(name, version)}"
        )
    print(f"store {store.root}: {len(store.model_names())} model(s) published")


def _cmd_import(args) -> None:
    from repro.core.engine import engine_fingerprint
    from repro.io import ArtifactError, ArtifactStore, load_deployed

    try:
        deployed = load_deployed(args.src)
    except ArtifactError as exc:
        raise SystemExit(f"error: {exc}") from None
    name = args.name or deployed.name
    store = ArtifactStore(args.store)
    try:
        version = store.publish_deployed(name, deployed)
    except ArtifactError as exc:  # e.g. a corrupt existing version in the store
        raise SystemExit(f"error: {exc}") from None
    except ValueError as exc:  # legacy artifacts can carry store-invalid names
        raise SystemExit(f"error: {exc} (use --name to rename on import)") from None
    print(
        f"imported {args.src} as {name!r} v{version:04d} "
        f"({deployed.parameter_count():,} parameters, "
        f"fingerprint {engine_fingerprint(deployed)})"
    )


def _cmd_resume(args) -> None:
    from repro.io import ArtifactError, Checkpointer

    trainer, train, test = _surrogate_trainer(profile=args.profile)
    checkpoint = Checkpointer(args.checkpoint_dir, every=args.checkpoint_every)
    try:
        done = checkpoint.resume(trainer)
    except ArtifactError as exc:  # nothing readable, or a file from another run
        raise SystemExit(f"error: {exc}") from None
    if not done:
        raise SystemExit(f"error: no checkpoint found under {args.checkpoint_dir}")
    if done >= args.epochs:
        raise SystemExit(
            f"error: checkpoint already covers {done} epoch(s), nothing to train "
            f"at --epochs {args.epochs} (pass a larger --epochs to continue)"
        )
    # latest() is the newest valid file: the one resume just restored.
    restored = checkpoint.latest().name
    print(f"resuming surrogate training at epoch {done + 1}/{args.epochs} (from {restored})")
    trainer.fit(train, test, epochs=args.epochs, resume=True, checkpoint=checkpoint)
    if args.profile:
        _print_profile(trainer)
    print(f"{'epoch':>5}  {'train loss':>12}  {'val error':>10}  {'lr':>9}")
    for e in trainer.history.epochs:
        marker = " (resumed)" if e.epoch == done + 1 else ""
        print(f"{e.epoch:>5}  {e.train_loss:>12.4f}  {e.val_error:>10.4f}  {e.lr:>9.2e}{marker}")


def _cmd_fig3(args) -> None:
    from repro.core import MFDFPConfig, MFDFPNetwork, phase1_finetune, phase2_distill
    from repro.nn import error_rate

    net, train, test = _train_problem(
        args.epochs,
        profile=args.profile,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    float_err = error_rate(net, test)
    config = MFDFPConfig(
        phase1_epochs=args.epochs // 2, phase2_epochs=args.epochs // 2, lr=5e-3
    )
    labels_net = MFDFPNetwork.from_float(net.clone(), train.x[:256])
    curve_a = phase1_finetune(labels_net, train, test, config).val_errors
    curve_a += phase1_finetune(labels_net, train, test, config).val_errors
    st_net = MFDFPNetwork.from_float(net.clone(), train.x[:256])
    curve_b = phase1_finetune(st_net, train, test, config).val_errors
    curve_b += phase2_distill(st_net, net, train, test, config).val_errors
    print(f"float baseline error: {float_err:.4f}")
    print(f"{'epoch':>5}  {'labels-only':>12}  {'student-teacher':>16}")
    for i, (a, b) in enumerate(zip(curve_a, curve_b), 1):
        print(f"{i:>5}  {a:>12.4f}  {b:>16.4f}")


def _cmd_lint(args) -> None:
    from repro.lint.cli import run_from_args

    code = run_from_args(args)
    if code:
        raise SystemExit(code)


def _cmd_chaos(args) -> None:
    import json as _json

    # Import the owning layers so the full site catalog is registered
    # before plans validate or --list prints.
    import repro.io.store  # noqa: F401  (registers io.* sites)
    import repro.parallel.arena  # noqa: F401  (registers parallel.* sites)
    import repro.serve  # noqa: F401  (registers serve.* sites)
    from repro.chaos import DRILLS, run_all_drills, run_drill, site_catalog

    if args.list:
        print("drills:")
        for name in DRILLS:
            print(f"  {name}")
        print("injection sites:")
        for site in site_catalog().values():
            print(f"  {site.name}  [{site.layer}]  {site.description}")
        return
    if args.drill is None:
        raise SystemExit("error: pass --drill NAME (or --drill all, or --list)")
    if args.drill != "all" and args.drill not in DRILLS:
        raise SystemExit(
            f"error: unknown drill {args.drill!r}; choose from {', '.join(DRILLS)} or all"
        )
    if args.drill == "all":
        reports = run_all_drills(seed=args.seed, quick=args.quick, log=print)
    else:
        reports = [run_drill(args.drill, seed=args.seed, quick=args.quick, log=print)]
    for report in reports:
        print(f"\n=== drill {report.name} (seed={report.seed}) ===")
        print(_json.dumps(report.plan, indent=2, sort_keys=True))
        for invariant, verdict in report.invariants.items():
            print(f"  [ok] {invariant}: {verdict}")
    print(f"\n{len(reports)} drill(s) passed")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _int_list(value: str):
    try:
        items = [int(item) for item in value.split(",") if item.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None
    if not items:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {value!r}")
    return items


def _str_list(value: str):
    items = [item.strip() for item in value.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"expected at least one name, got {value!r}")
    return items


def _add_training_flags(parser, checkpointing: bool = True) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-layer forward/backward time breakdown of the "
        "surrogate training after it finishes",
    )
    if checkpointing:
        parser.add_argument(
            "--checkpoint-dir",
            default=None,
            metavar="DIR",
            help="write an epoch-boundary checkpoint of the surrogate "
            "training into DIR (resume with `python -m repro resume`)",
        )
    parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=1,
        metavar="K",
        help="checkpoint every K epochs (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of Tann et al., DAC 2017.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="design area/power (Table 1)").set_defaults(fn=_cmd_table1)
    sub.add_parser("table3", help="parameter memory (Table 3)").set_defaults(fn=_cmd_table3)
    sub.add_parser("schedule", help="latency/energy of both networks").set_defaults(
        fn=_cmd_schedule
    )
    p2 = sub.add_parser("table2", help="accuracy/time/energy (Table 2; trains)")
    p2.add_argument("--epochs", type=_positive_int, default=12)
    _add_training_flags(p2)
    p2.set_defaults(fn=_cmd_table2)
    p3 = sub.add_parser("fig3", help="training curves (Figure 3; trains)")
    p3.add_argument("--epochs", type=_positive_int, default=12)
    _add_training_flags(p3)
    p3.set_defaults(fn=_cmd_fig3)
    psw = sub.add_parser("sweep", help="parallel ablation/fault campaigns (trains briefly)")
    psw.add_argument(
        "campaign",
        choices=("bitwidth", "clamp", "rounding", "dynamic", "faults"),
        help="which campaign to run",
    )
    psw.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="campaign fan-out workers (default: every core)",
    )
    psw.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="fan points out on a thread pool (default) or across "
        "process workers for real cores past the GIL",
    )
    psw.add_argument(
        "--points",
        type=_positive_int,
        default=None,
        help="number of campaign points (default: the campaign's full set)",
    )
    psw.add_argument(
        "--epochs", type=_positive_int, default=3, help="surrogate training epochs"
    )
    psw.set_defaults(fn=_cmd_sweep)
    p4 = sub.add_parser("serve", help="concurrent multi-model serving demo")
    p4.add_argument(
        "--models",
        type=_str_list,
        default=None,
        help="comma-separated registered model names (default: cifar10_full, "
        "or every model in --store; alexnet also ships in the zoo)",
    )
    p4.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="cold-start the registry from an artifact store directory "
        "(written by `python -m repro export`) instead of building "
        "models in-process",
    )
    p4.add_argument("--workers", type=_positive_int, default=2, help="worker threads per model")
    p4.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="execute batches in-process (default) or in a shared pool "
        "of process workers over shared-memory engine weights",
    )
    p4.add_argument(
        "--pool-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="process workers for --backend process (default: every core)",
    )
    p4.add_argument(
        "--batch",
        type=_positive_int,
        default=64,
        help="largest micro-batch; each claim takes every pending request up to it",
    )
    p4.add_argument(
        "--max-queue",
        type=_positive_int,
        default=1024,
        help="per-model admission bound (requests beyond it are shed)",
    )
    p4.add_argument(
        "--requests", type=_positive_int, default=256, help="requests per model"
    )
    p4.add_argument(
        "--quarantine-after",
        type=_positive_int,
        default=3,
        metavar="N",
        help="consecutive actor failures before a model is quarantined "
        "instead of restarted",
    )
    p4.add_argument(
        "--health",
        action="store_true",
        help="print the structured health/admin surface (supervision "
        "state, versions, queue depths, latency percentiles) as JSON "
        "after one warmup request per model, then exit",
    )
    p4.set_defaults(fn=_cmd_serve)
    pex = sub.add_parser("export", help="publish zoo deployables into an artifact store")
    pex.add_argument("--store", required=True, metavar="DIR", help="artifact store directory")
    pex.add_argument(
        "--models",
        type=_str_list,
        default=None,
        help="comma-separated deployable names (default: every zoo deployable)",
    )
    pex.set_defaults(fn=_cmd_export)
    pim = sub.add_parser(
        "import", help="validate a deployed-artifact file and publish it into a store"
    )
    pim.add_argument("src", help="artifact file (current or legacy version-1 format)")
    pim.add_argument("--store", required=True, metavar="DIR", help="artifact store directory")
    pim.add_argument(
        "--name", default=None, help="store name (default: the artifact's own name)"
    )
    pim.set_defaults(fn=_cmd_import)
    pre = sub.add_parser(
        "resume", help="continue a checkpointed surrogate training run bit-identically"
    )
    pre.add_argument(
        "--checkpoint-dir",
        required=True,
        metavar="DIR",
        help="checkpoint directory written by fig3/table2 --checkpoint-dir",
    )
    pre.add_argument(
        "--epochs",
        type=_positive_int,
        default=12,
        help="total epochs (the resumed run trains the remainder)",
    )
    _add_training_flags(pre, checkpointing=False)
    pre.set_defaults(fn=_cmd_resume)
    pli = sub.add_parser(
        "lint", help="AST-based invariant checks over the codebase contracts"
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(pli)
    pli.set_defaults(fn=_cmd_lint)
    pch = sub.add_parser(
        "chaos", help="deterministic fault-injection recovery drills"
    )
    pch.add_argument(
        "--drill",
        default=None,
        metavar="NAME",
        help="drill to run, or 'all' (see --list for the catalog)",
    )
    pch.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-plan seed; a drill replays bit-identically from its "
        "printed plan plus this seed (default: 0)",
    )
    pch.add_argument(
        "--quick",
        action="store_true",
        help="smaller problems and fewer requests (the CI smoke configuration)",
    )
    pch.add_argument(
        "--list",
        action="store_true",
        help="print the drill catalog and every registered injection site",
    )
    pch.set_defaults(fn=_cmd_chaos)
    pxp = sub.add_parser(
        "explore", help="co-design DSE with Pareto pruning (trains briefly)"
    )
    pxp.add_argument(
        "--bits",
        type=_int_list,
        default=[4, 8],
        metavar="A,B,...",
        help="activation bit widths to sweep (default: 4,8)",
    )
    pxp.add_argument(
        "--min-exps",
        type=_int_list,
        default=[-7, -9],
        metavar="A,B,...",
        help="weight exponent clamps to sweep (default: -7,-9)",
    )
    pxp.add_argument(
        "--weight-modes",
        type=_str_list,
        default=["deterministic"],
        metavar="A,B,...",
        help="weight rounding modes: deterministic and/or stochastic "
        "(default: deterministic)",
    )
    pxp.add_argument(
        "--num-pus",
        type=_int_list,
        default=[1, 2],
        metavar="A,B,...",
        help="processing-unit counts to sweep (default: 1,2)",
    )
    pxp.add_argument(
        "--technologies",
        type=_str_list,
        default=["65nm"],
        metavar="A,B,...",
        help="technology nodes: 65nm, 45nm, 28nm (default: 65nm)",
    )
    pxp.add_argument(
        "--seed", type=int, default=0, help="exploration seed (default: 0)"
    )
    pxp.add_argument(
        "--rung-epochs",
        type=_int_list,
        default=[0, 1],
        metavar="A,B,...",
        help="phase-1 epochs per surrogate rung, non-decreasing; 0 means "
        "quantize-only (default: 0,1)",
    )
    pxp.add_argument(
        "--final-epochs",
        type=_positive_int,
        default=2,
        help="epochs per phase of the full MF-DFP pipeline survivors run "
        "(default: 2)",
    )
    pxp.add_argument(
        "--margin",
        type=float,
        default=0.02,
        help="accuracy slack a design may trail the surrogate frontier by "
        "and still survive pruning (default: 0.02)",
    )
    pxp.add_argument(
        "--no-prune",
        action="store_true",
        help="evaluate every design at full fidelity (the exhaustive "
        "baseline pruning is measured against)",
    )
    pxp.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="evaluation fan-out workers (default: 1)",
    )
    pxp.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="fan evaluations out on a thread pool (default) or across "
        "process workers (bit-identical results either way)",
    )
    pxp.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist completed evaluations into DIR; a killed exploration "
        "re-run with the same flags resumes bit-identically",
    )
    pxp.add_argument(
        "--epochs", type=_positive_int, default=3, help="surrogate training epochs"
    )
    pxp.set_defaults(fn=_cmd_explore)
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so
        # the interpreter's final flush cannot raise again, and exit
        # without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise SystemExit(1)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    main()
