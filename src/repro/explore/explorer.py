"""Successive-halving design-space exploration with Pareto pruning.

The explorer walks a :class:`~repro.explore.space.DesignSpace` through a
ladder of evaluation fidelities ("rungs"):

* rung 0 (and any rung with epoch budget 0) quantizes the trained float
  network and measures accuracy with **no fine-tuning** — the epoch-0
  point of Figure 3, costing one calibration pass;
* intermediate rungs run a few epochs of phase-1 fine-tuning — a cheap
  surrogate for where the full pipeline will land;
* the final rung runs the complete MF-DFP pipeline (Algorithm 1 phases
  1+2 via :func:`repro.core.pipeline.run_algorithm1`) on the survivors.

Before rung 0, *cost twins* are eliminated without any evaluation:
designs identical in quantization (bits, clamp, rounding mode, PU
count) but differing in a cost-only axis (technology node) measure
bit-identical accuracy at every fidelity — the RNG contract below —
so within such a group only the cost-Pareto-optimal members can ever
reach a frontier.  After every surrogate rung, points that are
Pareto-dominated on (accuracy, energy, area) — with a configurable
accuracy ``margin`` protecting against low-fidelity noise — are pruned
(:func:`repro.analysis.frontier.prune_dominated`), so the expensive full
pipeline runs only on candidates that could still matter.  The reported
frontier is the exact (margin-free) Pareto set of the full-fidelity
survivors.

Determinism contract: every evaluation derives its RNG from
``SeedSequence([seed, rung, bits, -min_exp, weight-mode, member])`` —
keyed on the *quantization identity*, never on the point's position in
the grid, so nothing about pruning decisions, fan-out
(``jobs``/``backend``), chunking, or kill-and-resume can change any
point's measured accuracy, and designs that differ only in the
cost-side axis (technology node) measure bit-identical accuracy — which
is why a dominated node is pruned by *exactly* the frontier the
exhaustive run would have found.  The cost
metrics (area, power, latency and energy = power × latency) come from
one :class:`repro.hw.accelerator.Accelerator` per design, priced by the
point's technology node; they are closed-form and computed host-side.  The whole exploration is therefore
bit-identical across ``jobs=1``/thread, ``jobs=N``/process, and a
mid-run SIGKILL + resume — pinned by the cross-backend property tests.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.campaign import evaluate_batched, parallel_map
from repro.analysis.frontier import Objective, pareto_frontier, prune_dominated
from repro.core.ensemble import Ensemble
from repro.core.mfdfp import MFDFPNetwork
from repro.core.pipeline import MFDFPConfig, phase1_finetune, run_algorithm1
from repro.explore.space import WEIGHT_MODES, DesignPoint, DesignSpace
from repro.hw.accelerator import Accelerator, AcceleratorConfig
from repro.hw.cost import CostModel, technology
from repro.nn.data import ArrayDataset
from repro.nn.network import Network


class ExploreConfigError(ValueError):
    """An exploration configuration is out of range or inconsistent."""


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs of one exploration run.

    Attributes:
        seed: Root of every per-point RNG stream
            (``SeedSequence([seed, rung, bits, -min_exp, mode, member])``).
        rung_epochs: Phase-1 epoch budget per surrogate rung, cheapest
            first; ``0`` means quantize-only (no fine-tuning).  The full
            pipeline always runs as one extra final rung after these.
        final_epochs: Phase-1 *and* phase-2 epoch budget of the final
            full-pipeline rung.
        margin: Accuracy slack for surrogate-rung pruning — a point
            survives unless it is dominated by more than this on the
            (noisy) accuracy axis.  Exact objectives (energy, area)
            always prune with zero slack.
        prune: ``False`` evaluates every point at full fidelity
            (exhaustive mode — the reference the pruning benchmark
            compares against).
        lr: Fine-tuning learning rate for the surrogate and final rungs.
        batch_size: Evaluation batch size.
        checkpoint_every: Evaluations between checkpoint saves when a
            checkpointer is attached (smaller = finer resume granularity).
    """

    seed: int = 0
    rung_epochs: tuple = (0, 1)
    final_epochs: int = 2
    margin: float = 0.02
    prune: bool = True
    lr: float = 5e-3
    batch_size: int = 256
    checkpoint_every: int = 8

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ExploreConfigError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        epochs = tuple(self.rung_epochs)
        for e in epochs:
            if isinstance(e, bool) or not isinstance(e, numbers.Integral) or e < 0:
                raise ExploreConfigError(f"rung_epochs must be ints >= 0, got {e!r}")
        if list(epochs) != sorted(epochs):
            raise ExploreConfigError(
                f"rung_epochs must be non-decreasing (cheapest rung first), got {epochs}"
            )
        object.__setattr__(self, "rung_epochs", tuple(int(e) for e in epochs))
        if (
            isinstance(self.final_epochs, bool)
            or not isinstance(self.final_epochs, numbers.Integral)
            or self.final_epochs < 1
        ):
            raise ExploreConfigError(f"final_epochs must be an int >= 1, got {self.final_epochs!r}")
        object.__setattr__(self, "final_epochs", int(self.final_epochs))
        if not (self.margin >= 0):  # also rejects NaN
            raise ExploreConfigError(f"margin must be >= 0, got {self.margin!r}")
        if self.checkpoint_every < 1:
            raise ExploreConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every!r}"
            )

    @property
    def final_rung(self) -> int:
        """Index of the full-pipeline rung (after every surrogate rung)."""
        return len(self.rung_epochs)

    def spec(self) -> dict:
        """JSON-serializable description embedded in checkpoints."""
        return {
            "seed": self.seed,
            "rung_epochs": list(self.rung_epochs),
            "final_epochs": self.final_epochs,
            "margin": float(self.margin),
            "prune": bool(self.prune),
            "lr": float(self.lr),
            "batch_size": int(self.batch_size),
        }


@dataclass(frozen=True)
class EvaluatedPoint:
    """One design point measured at one fidelity rung.

    ``accuracy`` comes from the rung's evaluation; the cost metrics are
    closed-form model outputs and identical across rungs.  ``full``
    marks final-rung (complete MF-DFP pipeline) evaluations — only those
    appear in frontiers.
    """

    point: DesignPoint
    rung: int
    accuracy: float
    area_mm2: float
    power_mw: float
    latency_us: float
    energy_uj: float
    full: bool


@dataclass
class ExplorationResult:
    """Everything one exploration produced.

    ``evaluations`` holds every (point, rung) measurement in canonical
    order (rung-major, then point index).  ``frontier`` is the exact
    Pareto set — maximize accuracy, minimize energy and area — over the
    full-fidelity survivors.  ``full_evaluations`` counts complete
    MF-DFP pipeline runs, the currency the successive-halving gate is
    measured in.
    """

    space: DesignSpace
    config: ExploreConfig
    evaluations: list
    frontier: list
    survivors_per_rung: list
    full_evaluations: int

    @property
    def total_evaluations(self) -> int:
        return len(self.evaluations)

    def rows(self) -> list[dict]:
        """Frontier as printable/serializable dicts, canonical order."""
        return [
            {
                "label": e.point.label,
                "bits": e.point.bits,
                "min_exp": e.point.min_exp,
                "weight_mode": e.point.weight_mode,
                "num_pus": e.point.num_pus,
                "technology": e.point.technology,
                "accuracy": e.accuracy,
                "area_mm2": e.area_mm2,
                "power_mw": e.power_mw,
                "latency_us": e.latency_us,
                "energy_uj": e.energy_uj,
            }
            for e in self.frontier
        ]


def _member_rng(seed: int, rung: int, point: DesignPoint, member: int) -> np.random.Generator:
    """The one RNG stream of an ensemble member's evaluation.

    Keyed on the quantization identity ``(seed, rung, bits, -min_exp,
    weight mode, member)`` — independent of pruning decisions, fan-out,
    chunking, resume, *and* of the cost-only technology axis, so two
    grid points that quantize identically measure identical accuracy.
    (``-min_exp`` because clamps are negative and seed entries must not be.)
    """
    mode = WEIGHT_MODES.index(point.weight_mode)
    return np.random.default_rng(
        np.random.SeedSequence([seed, rung, point.bits, -point.min_exp, mode, member])
    )


def _member_start(net: Network, rng: np.random.Generator, member: int) -> Network:
    """Starting float network for ensemble member ``member``.

    Member 0 is the trained network itself; later members perturb the
    trained weights (as the paper's Phase 3 restarts from different
    float networks) so the ensemble members decorrelate.
    """
    start = net.clone()
    if member > 0:
        for p in start.params:
            p.data = p.data + rng.normal(scale=0.02, size=p.data.shape).astype(p.data.dtype)
    return start


class _PointTask:
    """Picklable zero-argument task: one design point at one rung.

    Returns ``(point index, rung, accuracy)`` — plain floats cross the
    process boundary; cost metrics are computed host-side.  Carries the
    float network and datasets by value (pickled per task on the process
    backend, shared by reference on the thread backend).
    """

    def __init__(self, net, train, val, calibration_x, point, rung, epochs, full, config):
        self.net = net
        self.train = train
        self.val = val
        self.calibration_x = calibration_x
        self.point = point
        self.rung = rung
        self.epochs = epochs
        self.full = full
        self.config = config

    def __call__(self) -> tuple:
        acc = _point_accuracy(
            self.net,
            self.train,
            self.val,
            self.calibration_x,
            self.point,
            self.rung,
            self.epochs,
            self.full,
            self.config,
        )
        return (self.point.index, self.rung, acc)


def _point_accuracy(
    net: Network,
    train: ArrayDataset,
    val: ArrayDataset,
    calibration_x: np.ndarray,
    point: DesignPoint,
    rung: int,
    epochs: int,
    full: bool,
    config: ExploreConfig,
) -> float:
    """Accuracy of one design point at one fidelity, bit-deterministic."""
    members = []
    for member in range(point.num_pus):
        rng = _member_rng(config.seed, rung, point, member)
        start = _member_start(net, rng, member)
        mf_config = MFDFPConfig(
            bits=point.bits,
            min_exp=point.min_exp,
            weight_mode=point.weight_mode,
            lr=config.lr,
            phase1_epochs=config.final_epochs if full else epochs,
            phase2_epochs=config.final_epochs,
            snapshot_phase1=False,
        )
        if full:
            result = run_algorithm1(start, train, val, calibration_x, mf_config, rng=rng)
            members.append(result.mfdfp)
            continue
        mf = MFDFPNetwork.from_float(
            start,
            calibration_x,
            bits=point.bits,
            min_exp=point.min_exp,
            weight_mode=point.weight_mode,
            rng=rng,
        )
        if epochs > 0:
            phase1_finetune(mf, train, val, mf_config, rng=rng)
        members.append(mf)
    if len(members) == 1:
        return evaluate_batched(members[0], val.x, val.y, batch_size=config.batch_size)
    return Ensemble(members).accuracy(val, batch_size=config.batch_size)


def _cost_metrics(net: Network, point: DesignPoint, models: dict) -> tuple:
    """(area_mm2, power_mw, latency_us, energy_uj) — closed-form, host-side.

    Latency schedules the workload on one PU (ensemble members run in
    parallel on their own PUs); power and area scale with ``num_pus``
    through the cost model, so the ensemble pays energy, not time.
    """
    model = models.get(point.technology)
    if model is None:
        model = models[point.technology] = CostModel(technology(point.technology))
    acc = Accelerator(AcceleratorConfig(num_pus=point.num_pus, bits=point.bits), cost_model=model)
    return (acc.area_mm2, acc.power_mw, acc.latency_us(net), acc.energy_uj(net))


def _cost_twin_survivors(points: list, costs: dict) -> list:
    """Drop designs that a quantization-identical sibling cost-dominates.

    Designs sharing (bits, min_exp, weight_mode, num_pus) measure
    bit-identical accuracy at every rung (the RNG contract), so within
    such a group only the members on the (energy, area) Pareto set can
    ever reach any frontier — the rest are eliminated before rung 0
    without spending a single evaluation.  Margin-relaxed pruning cannot
    do this: an exact accuracy tie is never "dominated by more than the
    margin".  Grid order is preserved; equal-cost ties are kept.
    """
    groups: dict = {}
    for p in points:
        groups.setdefault((p.bits, p.min_exp, p.weight_mode, p.num_pus), []).append(p)
    cost_axes = [
        Objective("energy_uj", key=lambda p: costs[p.index][3]),
        Objective("area_mm2", key=lambda p: costs[p.index][0]),
    ]
    kept = set()
    for group in groups.values():
        for p in group if len(group) == 1 else pareto_frontier(group, cost_axes):
            kept.add(p.index)
    return [p for p in points if p.index in kept]


def _objectives(margin: float) -> list[Objective]:
    """Maximize accuracy (with slack on noisy rungs), minimize energy/area."""
    return [
        Objective("accuracy", key=lambda e: e.accuracy, maximize=True, margin=margin),
        Objective("energy_uj", key=lambda e: e.energy_uj),
        Objective("area_mm2", key=lambda e: e.area_mm2),
    ]


def explore(
    net: Network,
    train: ArrayDataset,
    val: ArrayDataset,
    calibration_x: np.ndarray,
    space: DesignSpace,
    config: Optional[ExploreConfig] = None,
    *,
    jobs: Optional[int] = 1,
    backend: str = "thread",
    checkpoint=None,
) -> ExplorationResult:
    """Run one multi-dimensional co-design exploration.

    Evaluates ``space`` through the successive-halving rung ladder of
    ``config``, fanning each rung's evaluations out through
    :func:`repro.analysis.campaign.parallel_map` (``backend="thread"``
    shares the network; ``backend="process"`` pickles per-point tasks
    across real cores).  ``checkpoint`` is an optional
    :class:`repro.io.exploration.ExplorationCheckpointer`: completed
    evaluations are persisted every ``config.checkpoint_every`` points
    and a restarted exploration reloads them, re-derives every pruning
    decision from the stored rows, and continues — bit-identically,
    because no measurement depends on which run performed it.
    """
    config = config or ExploreConfig()
    points = space.points()
    done: dict = {}
    if checkpoint is not None:
        done = checkpoint.load(space, config)

    models: dict = {}
    costs = {p.index: _cost_metrics(net, p, models) for p in points}

    def materialize(index: int, rung: int, accuracy: float, full: bool) -> EvaluatedPoint:
        area, power, latency, energy = costs[index]
        return EvaluatedPoint(
            point=points[index],
            rung=rung,
            accuracy=accuracy,
            area_mm2=area,
            power_mw=power,
            latency_us=latency,
            energy_uj=energy,
            full=full,
        )

    def run_rung(survivors: list, rung: int, epochs: int, full: bool) -> list:
        pending = [p for p in survivors if (rung, p.index) not in done]
        for chunk_start in range(0, len(pending), config.checkpoint_every):
            chunk = pending[chunk_start : chunk_start + config.checkpoint_every]
            results = parallel_map(
                [
                    _PointTask(net, train, val, calibration_x, p, rung, epochs, full, config)
                    for p in chunk
                ],
                jobs=jobs,
                backend=backend,
            )
            for index, r, acc in results:
                done[(r, index)] = materialize(index, r, acc, full)
            if checkpoint is not None:
                checkpoint.save(list(done.values()), space, config)
        return [done[(rung, p.index)] for p in survivors]

    survivors = points
    survivors_per_rung = []
    if config.prune:
        survivors = _cost_twin_survivors(points, costs)
        for rung, epochs in enumerate(config.rung_epochs):
            rung_evals = run_rung(survivors, rung, epochs, full=False)
            kept = prune_dominated(rung_evals, _objectives(config.margin))
            survivors = [e.point for e in kept]
            survivors_per_rung.append(len(survivors))

    final_evals = run_rung(survivors, config.final_rung, config.final_epochs, full=True)
    survivors_per_rung.append(len(survivors))
    frontier = pareto_frontier(final_evals, _objectives(0.0))

    evaluations = [done[key] for key in sorted(done)]
    return ExplorationResult(
        space=space,
        config=config,
        evaluations=evaluations,
        frontier=frontier,
        survivors_per_rung=survivors_per_rung,
        full_evaluations=sum(1 for e in evaluations if e.full),
    )
