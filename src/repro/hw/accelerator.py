"""The full accelerator: area, power, latency, energy, and execution.

Combines the cost model (Table 1), the tile scheduler (inference time in
Table 2) and bit-accurate execution of deployed MF-DFP networks.  The
execution kernels themselves live in :mod:`repro.core.engine` — one
layer-op registry shared by the eager reference path and the compiled
:class:`~repro.core.engine.BatchedEngine`; this module adds the
hardware accounting around both.
The FP32 baseline is the same tile organization with 32-bit multipliers
and a deeper multiply pipeline; it executes networks in plain floating
point.

Energy follows the paper's method: average power x inference latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.mfdfp import DeployedMFDFP
from repro.hw.cost import CostBreakdown, CostModel
from repro.hw.memory import BufferConfig, MemorySubsystem
from repro.hw.scheduler import Schedule, TileScheduler
from repro.nn.network import Network

#: Pipeline depths (cycles of fill per layer).  The FP32 multiply pipeline
#: is deeper than the shift pipeline, giving MF-DFP the marginal latency
#: edge visible in Table 2 (246.52 us vs 246.27 us on CIFAR-10).
PIPELINE_DEPTH = {"fp32": 10, "mfdfp": 4}


@dataclass(frozen=True)
class AcceleratorConfig:
    """Configuration of one accelerator instance.

    Attributes:
        precision: ``"mfdfp"`` (proposed) or ``"fp32"`` (baseline).
        num_pus: Processing units; 2 runs a two-network ensemble in
            parallel (Phase 3).
        clock_mhz: Core clock; the paper fixes 250 MHz for all designs.
        buffers: Optional buffer geometry override.
        dma_bandwidth: Off-chip bandwidth in bytes per cycle, or None for
            the paper's compute-bound setting (main memory excluded from
            the evaluation).  When set, layers whose transfers exceed
            their compute time become memory bound; FP32 moves 4-8x more
            bytes, so it stalls first.
    """

    precision: str = "mfdfp"
    num_pus: int = 1
    clock_mhz: float = 250.0
    buffers: Optional[BufferConfig] = None
    dma_bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.precision not in ("mfdfp", "fp32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.num_pus < 1:
            raise ValueError("need at least one processing unit")
        if self.dma_bandwidth is not None and self.dma_bandwidth <= 0:
            raise ValueError("dma_bandwidth must be positive (or None)")


class Accelerator:
    """Area/power/latency/energy model plus bit-accurate execution."""

    def __init__(self, config: AcceleratorConfig | None = None, cost_model: CostModel | None = None):
        from repro.core.engine import EngineCache

        self.config = config or AcceleratorConfig()
        self.cost_model = cost_model or CostModel()
        self._engine_cache = EngineCache(capacity=self.ENGINE_CACHE_SIZE)
        self.breakdown: CostBreakdown = self.cost_model.evaluate(
            self.config.precision, self.config.num_pus, self.config.buffers
        )
        buffers = self.config.buffers
        if buffers is None:
            buffers = (
                CostModel._fp32_buffers() if self.config.precision == "fp32" else BufferConfig()
            )
        self.memory = MemorySubsystem(buffers)
        fp32 = self.config.precision == "fp32"
        self.scheduler = TileScheduler(
            clock_mhz=self.config.clock_mhz,
            pipeline_depth=PIPELINE_DEPTH[self.config.precision],
            dma_bandwidth=self.config.dma_bandwidth,
            activation_bits=32 if fp32 else 8,
            weight_bits=32 if fp32 else 4,
        )

    # -- design metrics (Table 1) ---------------------------------------------
    @property
    def area_mm2(self) -> float:
        return self.breakdown.area_mm2

    @property
    def power_mw(self) -> float:
        return self.breakdown.power_mw

    def savings_vs_baseline(self) -> tuple[float, float]:
        """(area %, power %) saved versus the FP32 single-PU baseline."""
        return self.cost_model.savings_vs_baseline(self.breakdown)

    # -- performance metrics (Table 2) ------------------------------------------
    def schedule(self, workload: Union[Network, DeployedMFDFP]) -> Schedule:
        """Cycle-accurate schedule of one inference.

        With multiple PUs, ensemble members run in parallel: the schedule
        (and therefore latency) is that of a single network.
        """
        if isinstance(workload, DeployedMFDFP):
            schedule = self.scheduler.schedule_deployed(workload)
        else:
            schedule = self.scheduler.schedule_network(workload)
        for layer in schedule.layers:
            self.memory.record_layer(layer.inputs_read, layer.weights_read, layer.outputs_written)
        return schedule

    def latency_us(self, workload: Union[Network, DeployedMFDFP]) -> float:
        """Single-inference latency in microseconds."""
        return self.schedule(workload).time_us()

    def energy_uj(self, workload: Union[Network, DeployedMFDFP]) -> float:
        """Single-inference energy: average power x latency (as the paper)."""
        return self.power_mw * 1e-3 * self.latency_us(workload)

    def energy_breakdown(self, workload: Union[Network, DeployedMFDFP]) -> list[dict]:
        """Per-layer time and energy (power x per-layer cycle share).

        Returns one dict per scheduled layer with keys ``name``, ``kind``,
        ``cycles``, ``time_us``, ``energy_uj``; the energy column sums to
        :meth:`energy_uj`.
        """
        schedule = self.schedule(workload)
        rows = []
        for layer in schedule.layers:
            time_us = layer.cycles / self.config.clock_mhz
            rows.append(
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "cycles": layer.cycles,
                    "time_us": time_us,
                    "energy_uj": self.power_mw * 1e-3 * time_us,
                }
            )
        return rows

    def schedule_batch(self, deployed: DeployedMFDFP, batch_size: int) -> Schedule:
        """Batched schedule: weights stay resident across the batch.

        Compute and activation traffic scale with the batch; weight
        transfers and each layer's pipeline fill are paid once per batch
        (the engine and the weight-stationary tiles reuse the loaded
        weights), so per-sample latency and energy drop as the batch
        grows.
        """
        schedule = self.scheduler.schedule_deployed_batch(deployed, batch_size)
        for layer in schedule.layers:
            self.memory.record_layer(layer.inputs_read, layer.weights_read, layer.outputs_written)
        return schedule

    def batch_throughput_ips(self, deployed: DeployedMFDFP, batch_size: int) -> float:
        """Steady-state samples/second when serving ``batch_size`` batches."""
        return self.schedule_batch(deployed, batch_size).throughput_ips()

    def batch_energy_uj(self, deployed: DeployedMFDFP, batch_size: int) -> float:
        """Energy of one whole batch: average power x batch latency."""
        return self.power_mw * 1e-3 * self.schedule_batch(deployed, batch_size).time_us()

    def batch_profile(self, deployed: DeployedMFDFP, batch_size: int) -> dict:
        """Modeled silicon accounting for serving one network in batches.

        One schedule pass, surfaced in the shape the serving runtime's
        metrics expect: ``throughput_ips`` (steady-state samples/s),
        ``batch_latency_us``, ``batch_energy_uj`` and the derived
        ``energy_uj_per_sample``.
        """
        schedule = self.schedule_batch(deployed, batch_size)
        batch_latency_us = schedule.time_us()
        batch_energy_uj = self.power_mw * 1e-3 * batch_latency_us
        return {
            "batch_size": batch_size,
            "throughput_ips": schedule.throughput_ips(),
            "batch_latency_us": batch_latency_us,
            "batch_energy_uj": batch_energy_uj,
            "energy_uj_per_sample": batch_energy_uj / batch_size,
        }

    # -- execution ----------------------------------------------------------------
    def run(self, deployed: DeployedMFDFP, x: np.ndarray) -> np.ndarray:
        """Bit-accurate integer inference; returns float logits.

        Every activation is an integer code; every multiply is a shift;
        rounding is round-half-to-even exactly as in the RTL datapath.
        """
        # Lazy: repro.core.engine imports repro.hw.datapath.
        from repro.core.engine import execute_deployed

        if self.config.precision != "mfdfp":
            raise ValueError("run() executes MF-DFP networks; use run_float for the baseline")
        codes = execute_deployed(deployed, x)
        last = deployed.ops[-1]
        return codes.astype(np.float64) * 2.0 ** (-last.out_frac)

    #: Compiled engines kept per accelerator (see :meth:`engine_for`).
    ENGINE_CACHE_SIZE = 8

    def engine_for(self, deployed: DeployedMFDFP):
        """The cached :class:`~repro.core.engine.BatchedEngine` for a network.

        Compiles on first use through a content-addressed
        :class:`~repro.core.engine.EngineCache`: networks with identical
        integer tensors share one engine even across distinct ``deploy()``
        calls, lookups are thread-safe, and the cache is bounded at
        :data:`ENGINE_CACHE_SIZE` entries (least-recently-used evicted)
        so sweeping many networks through one accelerator cannot grow
        memory without bound.
        """
        return self._engine_cache.get(deployed)

    def run_batched(self, deployed: DeployedMFDFP, x: np.ndarray) -> np.ndarray:
        """Compiled-engine inference; bit-identical to :meth:`run`.

        Use this for serving-style workloads: the first call compiles the
        network (weight LUT decode + gather tables), subsequent calls
        only pay the batched kernels.
        """
        if self.config.precision != "mfdfp":
            raise ValueError("run_batched() executes MF-DFP networks")
        return self.engine_for(deployed).run(x)

    def evaluate_deployed(
        self, deployed: DeployedMFDFP, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> dict:
        """Accuracy on a labelled set, with *batched* silicon accounting.

        The experiment-campaign companion to :meth:`run_batched`:
        executes through the cached compiled engine in ``batch_size``
        slices and prices the workload with :meth:`schedule_batch`
        (weights resident across each batch) — one schedule per distinct
        slice size instead of one per sample, the accounting analogue of
        the batched execution itself.  Returns ``accuracy``, ``samples``,
        ``modeled_latency_us``, ``modeled_energy_uj`` and the implied
        ``modeled_throughput_ips``.
        """
        if self.config.precision != "mfdfp":
            raise ValueError("evaluate_deployed() executes MF-DFP networks")
        y = np.asarray(y)
        n = len(x)
        if n == 0:
            raise ValueError("cannot evaluate on an empty batch")
        if n != len(y):
            raise ValueError(f"x has {n} samples but y has {len(y)} labels")
        engine = self.engine_for(deployed)
        correct = 0
        for start in range(0, n, batch_size):
            codes = engine.run_codes(x[start : start + batch_size])
            correct += int((codes.argmax(axis=1) == y[start : start + batch_size]).sum())
        full_batches, remainder = divmod(n, batch_size)
        modeled_us = 0.0
        if full_batches:
            modeled_us += full_batches * self.schedule_batch(deployed, batch_size).time_us()
        if remainder:
            modeled_us += self.schedule_batch(deployed, remainder).time_us()
        modeled_uj = self.power_mw * 1e-3 * modeled_us
        return {
            "accuracy": correct / n,
            "samples": n,
            "modeled_latency_us": modeled_us,
            "modeled_energy_uj": modeled_uj,
            "modeled_throughput_ips": n / (modeled_us * 1e-6),
        }

    def run_float(self, net: Network, x: np.ndarray) -> np.ndarray:
        """FP32 baseline inference (plain floating point)."""
        return net.logits(x)

    def run_ensemble(self, members: list[DeployedMFDFP], x: np.ndarray) -> np.ndarray:
        """Phase 3 in hardware: one deployed network per processing unit.

        Each PU evaluates its member in parallel (latency = one network);
        the averaged logits implement the paper's ensemble vote.  Requires
        ``num_pus >= len(members)``.
        """
        if self.config.precision != "mfdfp":
            raise ValueError("ensembles run on the MF-DFP accelerator")
        if not members:
            raise ValueError("ensemble needs at least one member")
        if len(members) > self.config.num_pus:
            raise ValueError(
                f"{len(members)} members need {len(members)} processing units; "
                f"this accelerator has {self.config.num_pus}"
            )
        acc = None
        for member in members:
            z = self.run(member, x)
            acc = z if acc is None else acc + z
        return acc / len(members)
