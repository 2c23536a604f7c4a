"""Training loop, evaluation helpers, and history tracking."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.nn.data import ArrayDataset, BatchIterator
from repro.nn.loss import Loss, SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.nn.optim import SGD, PlateauScheduler


def topk_correct(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    k: int = 1,
    batch_size: int = 256,
    logits_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> int:
    """Number of samples whose label lands in the top-k logits.

    The chunked evaluation primitive shared by :func:`evaluate_topk` and
    the analysis campaign runner (:mod:`repro.analysis.campaign`): one
    forward pass per ``batch_size`` slice, never materializing logits
    for the whole set at once.  ``logits_fn`` overrides the forward pass
    (the compiled training fast path routes evaluation through its
    planned executor, which returns bit-identical logits).
    """
    if logits_fn is None:
        logits_fn = net.logits
    correct = 0
    for start in range(0, len(x), batch_size):
        logits = logits_fn(x[start : start + batch_size])
        topk = np.argpartition(-logits, kth=min(k, logits.shape[1] - 1), axis=1)[:, :k]
        correct += int((topk == y[start : start + batch_size, None]).any(axis=1).sum())
    return correct


def evaluate_topk(net: Network, dataset: ArrayDataset, k: int = 1, batch_size: int = 256) -> float:
    """Top-k classification accuracy of ``net`` on ``dataset`` (fraction)."""
    return topk_correct(net, dataset.x, dataset.y, k=k, batch_size=batch_size) / len(dataset)


def error_rate(net: Network, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """Top-1 error rate (1 - accuracy)."""
    return 1.0 - evaluate_topk(net, dataset, k=1, batch_size=batch_size)


def _rng_state_to_jsonable(state):
    """Bit-generator state → JSON-able form (MT19937 et al. carry ndarrays)."""
    if isinstance(state, dict):
        return {k: _rng_state_to_jsonable(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return {"__ndarray__": state.tolist(), "dtype": str(state.dtype)}
    if isinstance(state, np.integer):
        return int(state)
    return state


def _rng_state_from_jsonable(state):
    """Exact inverse of :func:`_rng_state_to_jsonable`."""
    if isinstance(state, dict):
        if "__ndarray__" in state:
            return np.array(state["__ndarray__"], dtype=state["dtype"])
        return {k: _rng_state_from_jsonable(v) for k, v in state.items()}
    return state


@dataclass
class EpochResult:
    """Metrics recorded after each training epoch."""

    epoch: int
    train_loss: float
    val_error: float
    lr: float


@dataclass
class TrainHistory:
    """Sequence of per-epoch results with convenience accessors."""

    epochs: list[EpochResult] = field(default_factory=list)

    def append(self, result: EpochResult) -> None:
        self.epochs.append(result)

    @property
    def val_errors(self) -> list[float]:
        return [e.val_error for e in self.epochs]

    @property
    def train_losses(self) -> list[float]:
        return [e.train_loss for e in self.epochs]

    def best_epoch(self) -> EpochResult:
        if not self.epochs:
            raise ValueError("history is empty")
        return min(self.epochs, key=lambda e: e.val_error)


class Trainer:
    """Mini-batch SGD training driver.

    Args:
        net: Network to train.
        optimizer: Parameter updater (typically :class:`SGD` over
            ``net.params``).
        loss: Loss object; defaults to softmax cross entropy.
        scheduler: Optional LR schedule stepped once per epoch with the
            validation error; a :class:`PlateauScheduler` reproduces the
            paper's policy and its ``finished`` flag stops training.
        batch_size: Mini-batch size.
        rng: Generator controlling batch shuffling.
        epoch_callback: Optional ``fn(trainer, EpochResult)`` hook invoked
            after each epoch (used by the MF-DFP pipeline to snapshot
            quantized weights).
        augment: Optional batch transform (e.g. :class:`~repro.nn.augment.Augmenter`)
            applied to training inputs only.
        compiled: Route training and evaluation through the compiled
            fast path (:mod:`repro.nn.compiled`): the same layer code,
            run with a plan's persistent workspaces, fused DFP hooks and
            memoized quantized weights, so it is bit-identical to
            ``False``, which allocates every array afresh.  Layer types
            without a workspace run their plain ``forward`` inside the
            plan.
        profile: Collect per-layer forward/backward wall-clock times of
            the compiled plans; see :meth:`profile_rows`.  Requires
            ``compiled``.
    """

    def __init__(
        self,
        net: Network,
        optimizer: SGD,
        loss: Optional[Loss] = None,
        scheduler=None,
        batch_size: int = 64,
        rng: Optional[np.random.Generator] = None,
        epoch_callback: Optional[Callable] = None,
        augment: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        compiled: bool = True,
        profile: bool = False,
    ):
        if profile and not compiled:
            raise ValueError("profile=True times the compiled plans; it requires compiled=True")
        self.net = net
        self.optimizer = optimizer
        self.loss = loss or SoftmaxCrossEntropy()
        self.scheduler = scheduler
        self.batch_size = batch_size
        self.rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (documented deterministic default; golden loss curves depend on this exact stream)
        self.epoch_callback = epoch_callback
        self.augment = augment
        self.compiled = compiled
        self.profile = profile
        self.history = TrainHistory()
        self._executor = None

    @property
    def executor(self):
        """The compiled executor, built lazily; None when disabled."""
        if not self.compiled:
            return None
        if self._executor is None:
            from repro.nn.compiled import CompiledTrainer

            self._executor = CompiledTrainer(self.net, profile=self.profile)
        return self._executor

    # -- single-batch execution (compiled or eager, always bit-identical) --
    def forward_batch(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Forward one batch through the compiled executor or eagerly.

        The building block custom training loops (e.g. the phase-2
        distillation loop) share with :meth:`train_epoch`; bit-identical
        either way.
        """
        executor = self.executor
        if executor is not None:
            return executor.forward(x, training=training)
        return self.net.forward(x, training=training)

    def backward_batch(self, grad: np.ndarray) -> None:
        """Backpropagate one batch (pairs with :meth:`forward_batch`)."""
        executor = self.executor
        if executor is not None:
            executor.backward(grad)
        else:
            self.net.backward(grad)

    def train_epoch(self, train: ArrayDataset) -> float:
        """One pass over the training set; returns the mean sample loss.

        Batch losses are weighted by batch size, so the return value is
        the exact mean over every sample seen this epoch even when the
        dataset length is not divisible by ``batch_size`` (an unweighted
        mean of batch means over-weights a partial trailing batch).
        """
        batches = BatchIterator(train, self.batch_size, shuffle=True, rng=self.rng)
        total, count = 0.0, 0
        for x, y in batches:
            if self.augment is not None:
                x = self.augment(x)
            logits = self.forward_batch(x, training=True)
            total += self.loss.forward(logits, y) * len(x)
            count += len(x)
            self.net.zero_grad()
            self.backward_batch(self.loss.backward())
            self.optimizer.step()
        return total / count if count else float("nan")

    def evaluate_error(self, dataset: ArrayDataset, batch_size: int = 256) -> float:
        """Top-1 error on ``dataset``, through the compiled executor when on.

        Bit-identical to :func:`error_rate` on the same network — the
        executor runs the same layer code — but without requantizing
        unchanged weights on every batch, and through inference
        forwards: no backward state is kept, and convolutions lower a
        block of samples at a time, so a large ``batch_size`` costs
        little more memory than its activations.
        """
        executor = self.executor
        logits_fn = None
        if executor is not None:
            logits_fn = lambda xb: executor.forward(xb, training=False)  # noqa: E731
        correct = topk_correct(
            self.net, dataset.x, dataset.y, k=1, batch_size=batch_size, logits_fn=logits_fn
        )
        return 1.0 - correct / len(dataset)

    def quantized_weights(self) -> dict[str, np.ndarray]:
        """Weights as the quantized forward pass sees them.

        Served from the compiled executor's quantized-weight cache when
        available — after an epoch's validation sweep this requantizes
        nothing — and recomputed eagerly otherwise.  The MF-DFP pipeline
        snapshots these per phase-1 epoch.
        """
        executor = self.executor
        if executor is not None:
            return executor.quantized_weights()
        out = {}
        for layer in self.net.layers:
            w = layer.effective_weight()
            if w is not None:
                out[layer.name] = w
        return out

    # -- persistence (exact resume) ----------------------------------------
    def rng_sites(self) -> list[tuple[str, np.random.Generator]]:
        """Every random source that influences the training trajectory.

        The trainer's shuffle generator, the augmenter's, each layer's
        (dropout masks) and each quantization hook's (stochastic weight
        rounding).  Labels are stable across processes, so a checkpoint
        written in one run restores into a freshly built trainer in
        another.  Sites may alias one underlying generator (the MF-DFP
        pipeline threads one generator through shuffling and hooks);
        capturing and restoring aliases is idempotent because all
        aliased labels carry the same state.
        """
        sites: list[tuple[str, np.random.Generator]] = [("trainer", self.rng)]
        if isinstance(getattr(self.augment, "rng", None), np.random.Generator):
            sites.append(("augment", self.augment.rng))
        for layer in self.net.layers:
            if isinstance(getattr(layer, "rng", None), np.random.Generator):
                sites.append((f"layer:{layer.name}", layer.rng))
            for tag, hook in (
                ("whook", layer.weight_quantizer),
                ("ohook", layer.output_quantizer),
            ):
                if isinstance(getattr(hook, "rng", None), np.random.Generator):
                    sites.append((f"{tag}:{layer.name}", hook.rng))
        return sites

    def state_dict(self) -> dict:
        """Everything needed to resume training bit-identically.

        Master weights, optimizer velocity and hyper-parameters,
        scheduler progress, every RNG site's bit-generator state, and
        the epoch history.  Captured at an epoch boundary (after the
        scheduler step), restoring this into a freshly constructed
        trainer and continuing with ``fit(..., resume=True)`` reproduces
        the uninterrupted run exactly — see ``repro.io.checkpoint``.
        """
        return {
            "weights": {p.name: p.data.copy() for p in self.net.params},
            "optimizer": self.optimizer.state_dict(),
            "scheduler": None if self.scheduler is None else self.scheduler.state_dict(),
            "rng": {
                label: _rng_state_to_jsonable(gen.bit_generator.state)
                for label, gen in self.rng_sites()
            },
            "history": [asdict(e) for e in self.history.epochs],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this trainer (strict)."""
        self.net.set_weights(state["weights"])
        self.optimizer.load_state_dict(state["optimizer"])
        saved_scheduler = state.get("scheduler")
        if (saved_scheduler is None) != (self.scheduler is None):
            raise ValueError(
                "scheduler mismatch: checkpoint "
                f"{'has' if saved_scheduler is not None else 'lacks'} scheduler state, "
                f"trainer {'lacks' if self.scheduler is None else 'has'} a scheduler"
            )
        if saved_scheduler is not None:
            self.scheduler.load_state_dict(saved_scheduler)
        sites = dict(self.rng_sites())
        saved_rng = state["rng"]
        if set(sites) != set(saved_rng):
            missing = set(sites) ^ set(saved_rng)
            raise ValueError(f"RNG site mismatch: {sorted(missing)}")
        for label, gen in sites.items():
            gen.bit_generator.state = _rng_state_from_jsonable(saved_rng[label])
        self.history = TrainHistory([EpochResult(**e) for e in state["history"]])

    def profile_rows(self) -> list[dict]:
        """Per-layer timing rows of the compiled plans (empty before any batch)."""
        return self._executor.profile_rows() if self._executor is not None else []

    def fit(
        self,
        train: ArrayDataset,
        val: ArrayDataset,
        epochs: int,
        resume: bool = False,
        checkpoint: Optional[Callable[["Trainer"], None]] = None,
    ) -> TrainHistory:
        """Train up to ``epochs`` epochs (or until the scheduler finishes).

        With ``resume=True`` the run continues from the restored history
        (see :meth:`load_state_dict`): epoch numbering picks up where it
        left off and ``epochs`` still means *total* epochs, so a run
        killed after k epochs and resumed trains exactly the remaining
        ``epochs - k``.  ``checkpoint`` is invoked with the trainer after
        each epoch's scheduler step — the epoch boundary where
        :meth:`state_dict` is exact — typically a
        :class:`repro.io.checkpoint.Checkpointer`.
        """
        start = len(self.history.epochs) + 1 if resume else 1
        for epoch in range(start, epochs + 1):
            if isinstance(self.scheduler, PlateauScheduler) and self.scheduler.finished:
                break
            train_loss = self.train_epoch(train)
            val_error = self.evaluate_error(val)
            result = EpochResult(epoch, train_loss, val_error, self.optimizer.lr)
            self.history.append(result)
            if self.epoch_callback is not None:
                self.epoch_callback(self, result)
            if self.scheduler is not None:
                self.scheduler.step(val_error)
            if checkpoint is not None:
                checkpoint(self)
            if isinstance(self.scheduler, PlateauScheduler) and self.scheduler.finished:
                break
        return self.history
