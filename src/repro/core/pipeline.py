"""Algorithm 1 end to end: float network → fine-tuned MF-DFP network(s).

Phase 1 quantizes and fine-tunes with hard labels (shadow float weights);
Phase 2 continues with the student-teacher loss of Eq. 1; Phase 3 repeats
the process from different starting float networks and ensembles them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.distill import DistillationLoss
from repro.core.ensemble import Ensemble
from repro.core.mfdfp import MFDFPNetwork
from repro.core.quantizer import QuantizationPlan
from repro.nn.compiled import CompiledTrainer
from repro.nn.data import ArrayDataset, BatchIterator
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.nn.optim import SGD, PlateauScheduler
from repro.nn.trainer import EpochResult, TrainHistory, Trainer, error_rate, topk_correct


@dataclass
class MFDFPConfig:
    """Hyper-parameters of Algorithm 1 (defaults follow the paper).

    ``compiled`` routes both fine-tuning phases through the compiled
    training fast path (:mod:`repro.nn.compiled`) — bit-identical to the
    eager layers, substantially faster.  ``snapshot_phase1`` records the
    quantized weights after every phase-1 epoch (Algorithm 1 keeps the
    per-epoch ``W_q``); with the compiled path the snapshot is served
    from the quantized-weight cache, so only tensors that changed since
    the epoch's validation sweep are requantized — in practice none.
    Snapshots are collected only under deterministic weight rounding:
    requantizing through a stochastic hook would consume RNG state and
    change the training trajectory itself.
    """

    bits: int = 8
    min_exp: int = -7
    max_exp: int = 0
    weight_mode: str = "deterministic"
    dynamic: bool = True
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 64
    phase1_epochs: int = 20
    phase2_epochs: int = 20
    tau: float = 20.0
    beta: float = 0.2
    plateau_patience: int = 2
    lr_factor: float = 0.1
    min_lr: float = 1e-7
    compiled: bool = True
    snapshot_phase1: bool = True


@dataclass
class MFDFPResult:
    """Everything produced by one run of Algorithm 1 on one float net.

    ``phase1_snapshots`` holds one ``{param name: quantized weights}``
    dict per completed phase-1 epoch when the config asked for them
    (Algorithm 1's per-epoch ``W_q``), else None.
    """

    mfdfp: MFDFPNetwork
    plan: QuantizationPlan
    phase1: TrainHistory
    phase2: TrainHistory
    float_val_error: float
    phase1_snapshots: Optional[list[dict]] = None

    @property
    def final_val_error(self) -> float:
        """Validation error after the last completed phase."""
        for history in (self.phase2, self.phase1):
            if history.epochs:
                return history.epochs[-1].val_error
        return float("nan")

    def error_curve(self) -> list[tuple[int, float, str]]:
        """Figure-3-style series: (epoch, val error, phase) triples."""
        curve = [(e.epoch, e.val_error, "phase1") for e in self.phase1.epochs]
        offset = len(self.phase1.epochs)
        curve += [(offset + e.epoch, e.val_error, "phase2") for e in self.phase2.epochs]
        return curve


def phase1_finetune(
    mfdfp: MFDFPNetwork,
    train: ArrayDataset,
    val: ArrayDataset,
    config: MFDFPConfig,
    rng: Optional[np.random.Generator] = None,
    snapshots: Optional[list] = None,
    resume_state: Optional[dict] = None,
    checkpoint=None,
) -> TrainHistory:
    """Phase 1 (Algorithm 1 lines 3–9): fine-tune with hard labels.

    Quantized forward passes and float master updates happen automatically
    through the layer hooks attached by ``MFDFPNetwork.from_float``.
    Pass a list as ``snapshots`` to collect the per-epoch quantized
    weights (Algorithm 1's ``W_q``); with ``config.compiled`` the copies
    come out of the trainer's quantized-weight cache, which the epoch's
    validation sweep already filled — nothing is requantized.

    ``resume_state`` is a ``Trainer.state_dict()`` captured at a phase-1
    epoch boundary: it is restored into the freshly built trainer and
    the fit continues bit-identically from the next epoch.
    ``checkpoint`` is forwarded to ``Trainer.fit`` (called once per
    epoch, after the scheduler step).
    """
    optimizer = SGD(
        mfdfp.params, lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay
    )
    scheduler = PlateauScheduler(
        optimizer,
        factor=config.lr_factor,
        patience=config.plateau_patience,
        min_lr=config.min_lr,
    )
    epoch_callback = None
    if snapshots is not None:
        def epoch_callback(trainer, result):
            snapshots.append({k: v.copy() for k, v in trainer.quantized_weights().items()})

    trainer = Trainer(
        mfdfp.net,
        optimizer,
        loss=SoftmaxCrossEntropy(),
        scheduler=scheduler,
        batch_size=config.batch_size,
        rng=rng or np.random.default_rng(1),  # repro-lint: disable=rng-discipline (deterministic default when the caller injects no rng; paper-pipeline runs must reproduce)
        epoch_callback=epoch_callback,
        compiled=config.compiled,
    )
    if resume_state is not None:
        trainer.load_state_dict(resume_state)
    return trainer.fit(
        train,
        val,
        epochs=config.phase1_epochs,
        resume=resume_state is not None,
        checkpoint=checkpoint,
    )


def phase2_distill(
    mfdfp: MFDFPNetwork,
    teacher: Network,
    train: ArrayDataset,
    val: ArrayDataset,
    config: MFDFPConfig,
    rng: Optional[np.random.Generator] = None,
    resume_state: Optional[dict] = None,
    checkpoint=None,
) -> TrainHistory:
    """Phase 2 (Algorithm 1 lines 10–20): student-teacher fine-tuning.

    Teacher logits are computed on the fly per batch (equivalent to the
    paper's precomputed ``t_logits``, without storing the full training
    set's logits).  Both the student's quantized steps and the teacher's
    float forwards run through the compiled fast path when
    ``config.compiled`` (bit-identical to eager execution); the reported
    train loss is the exact sample mean, weighted by batch size.

    ``resume_state``/``checkpoint`` mirror :func:`phase1_finetune`: the
    state is a ``Trainer.state_dict()`` captured at a phase-2 epoch
    boundary (the driving trainer owns the scheduler and history, so one
    state dict covers the whole phase), and ``checkpoint`` runs once per
    epoch after the scheduler step.
    """
    rng = rng or np.random.default_rng(2)  # repro-lint: disable=rng-discipline (deterministic default when the caller injects no rng; paper-pipeline runs must reproduce)
    optimizer = SGD(
        mfdfp.params, lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay
    )
    scheduler = PlateauScheduler(
        optimizer,
        factor=config.lr_factor,
        patience=config.plateau_patience,
        min_lr=config.min_lr,
    )
    loss = DistillationLoss(tau=config.tau, beta=config.beta)
    # A Trainer drives the student so phase 2 shares the compiled
    # executor plumbing; the teacher gets its own executor (separate
    # network, separate plans).  The scheduler and history hang off the
    # trainer (stepped by this loop, not by fit) so that
    # ``Trainer.state_dict`` captures the complete phase state.
    trainer = Trainer(
        mfdfp.net,
        optimizer,
        loss=loss,
        scheduler=scheduler,
        batch_size=config.batch_size,
        rng=rng,
        compiled=config.compiled,
    )
    if resume_state is not None:
        trainer.load_state_dict(resume_state)
    teacher_executor = CompiledTrainer(teacher) if config.compiled else None
    history = trainer.history
    start = len(history.epochs) + 1
    for epoch in range(start, config.phase2_epochs + 1):
        if scheduler.finished:
            break
        batches = BatchIterator(train, config.batch_size, shuffle=True, rng=rng)
        total, count = 0.0, 0
        for x, y in batches:
            if teacher_executor is not None:
                loss.set_teacher_logits(teacher_executor.logits(x))
            else:
                loss.set_teacher_logits(teacher.logits(x))
            logits = trainer.forward_batch(x, training=True)
            total += loss.forward(logits, y) * len(x)
            count += len(x)
            mfdfp.net.zero_grad()
            trainer.backward_batch(loss.backward())
            optimizer.step()
        val_error = trainer.evaluate_error(val)
        train_loss = total / count if count else float("nan")
        history.append(EpochResult(epoch, train_loss, val_error, optimizer.lr))
        scheduler.step(val_error)
        if checkpoint is not None:
            checkpoint(trainer)
        if scheduler.finished:
            break
    return history


def run_algorithm1(
    float_net: Network,
    train: ArrayDataset,
    val: ArrayDataset,
    calibration_x: np.ndarray,
    config: Optional[MFDFPConfig] = None,
    rng: Optional[np.random.Generator] = None,
    checkpoint=None,
) -> MFDFPResult:
    """Full Algorithm 1 on one float network (Phases 1 and 2).

    ``float_net`` is cloned to serve as the (frozen) teacher; the original
    instance is converted in place into the MF-DFP student.

    ``checkpoint`` is an optional pipeline checkpointer (duck-typed so
    this module needs no ``repro.io`` import — see
    :class:`repro.io.checkpoint.PipelineCheckpointer`): ``begin`` is
    called once with the run context, ``phase1``/``phase2`` once per
    epoch at the exact-resume boundary, and ``phase1_complete`` when
    phase 1 finishes.  A killed run restarts through
    :func:`repro.io.checkpoint.resume_algorithm1`.
    """
    config = config or MFDFPConfig()
    rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (deterministic default when the caller injects no rng; paper-pipeline runs must reproduce)
    if config.compiled:
        # Through an inference plan (bit-identical to the eager forward),
        # the baseline leaves no batch-sized caches on the student-to-be.
        correct = topk_correct(float_net, val.x, val.y, logits_fn=CompiledTrainer(float_net).logits)
        float_val_error = 1.0 - correct / len(val)
    else:
        float_val_error = error_rate(float_net, val)
    teacher = float_net.clone()
    mfdfp = MFDFPNetwork.from_float(
        float_net,
        calibration_x,
        bits=config.bits,
        min_exp=config.min_exp,
        max_exp=config.max_exp,
        weight_mode=config.weight_mode,
        dynamic=config.dynamic,
        rng=rng,
    )
    # Snapshots only under deterministic rounding: a stochastic hook
    # consumes RNG state on every call, so snapshotting would both shift
    # the draws of subsequent training steps (breaking pre-snapshot
    # reproducibility) and record a fresh draw the forward pass never
    # used.
    collect = config.snapshot_phase1 and config.weight_mode == "deterministic"
    snapshots: Optional[list] = [] if collect else None
    return _run_phases(
        mfdfp, teacher, train, val, config, rng, float_val_error, snapshots, checkpoint
    )


def _run_phases(
    mfdfp: MFDFPNetwork,
    teacher: Network,
    train: ArrayDataset,
    val: ArrayDataset,
    config: MFDFPConfig,
    rng: np.random.Generator,
    float_val_error: float,
    snapshots: Optional[list],
    checkpoint,
    resume_state: Optional[dict] = None,
    phase1_history: Optional[TrainHistory] = None,
) -> MFDFPResult:
    """Algorithm 1's phase sequence: phase 1, ``phase1_complete``, phase 2.

    :func:`run_algorithm1` runs it fresh;
    :func:`repro.io.checkpoint.resume_algorithm1` runs it from restored
    state.  ``resume_state`` is a trainer state at an epoch boundary of
    phase 1, or of phase 2 when ``phase1_history`` says phase 1 is done.
    """
    hook1 = hook2 = None
    if checkpoint is not None:
        checkpoint.begin(
            plan=mfdfp.plan,
            config=config,
            teacher=teacher,
            float_val_error=float_val_error,
            snapshots=snapshots,
        )
        hook1, hook2 = checkpoint.phase1, checkpoint.phase2
    if phase1_history is None:
        phase1_history = phase1_finetune(
            mfdfp, train, val, config, rng=rng, snapshots=snapshots,
            resume_state=resume_state, checkpoint=hook1,
        )
        resume_state = None
    if checkpoint is not None:
        checkpoint.phase1_complete(phase1_history)
    history2 = phase2_distill(
        mfdfp, teacher, train, val, config, rng=rng, resume_state=resume_state, checkpoint=hook2
    )
    return MFDFPResult(
        mfdfp=mfdfp,
        plan=mfdfp.plan,
        phase1=phase1_history,
        phase2=history2,
        float_val_error=float_val_error,
        phase1_snapshots=snapshots,
    )


def build_mfdfp_ensemble(
    float_nets: Sequence[Network],
    train: ArrayDataset,
    val: ArrayDataset,
    calibration_x: np.ndarray,
    config: Optional[MFDFPConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Ensemble, list[MFDFPResult]]:
    """Phase 3: run Algorithm 1 per starting network and ensemble them."""
    if len(float_nets) < 2:
        raise ValueError("an ensemble needs at least two starting networks")
    rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (deterministic default when the caller injects no rng; paper-pipeline runs must reproduce)
    results = [
        run_algorithm1(net, train, val, calibration_x, config, rng=rng) for net in float_nets
    ]
    ensemble = Ensemble([r.mfdfp for r in results], name="mfdfp_ensemble")
    return ensemble, results
