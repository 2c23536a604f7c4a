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
from repro.hw.cost import CostBreakdown, CostModel, validate_design
from repro.hw.memory import BufferConfig
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
        bits: MF-DFP activation width, from which every datapath wire
            is sized (8 is the paper's design; ``"fp32"`` admits only 8).
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
    bits: int = 8
    clock_mhz: float = 250.0
    buffers: Optional[BufferConfig] = None
    dma_bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.precision not in ("mfdfp", "fp32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        num_pus, bits = validate_design(self.precision, self.num_pus, self.bits)
        object.__setattr__(self, "num_pus", num_pus)
        object.__setattr__(self, "bits", bits)
        if self.dma_bandwidth is not None and self.dma_bandwidth <= 0:
            raise ValueError("dma_bandwidth must be positive (or None)")


class Accelerator:
    """Area/power/latency/energy model plus bit-accurate execution."""

    def __init__(self, config: AcceleratorConfig | None = None, cost_model: CostModel | None = None):
        self.config = config = config or AcceleratorConfig()
        self.cost_model = cost_model or CostModel()
        self.breakdown: CostBreakdown = self.cost_model.evaluate(
            config.precision, config.num_pus, config.buffers, config.bits
        )
        fp32 = config.precision == "fp32"
        self.scheduler = TileScheduler(
            clock_mhz=config.clock_mhz,
            pipeline_depth=PIPELINE_DEPTH[config.precision],
            dma_bandwidth=config.dma_bandwidth,
            activation_bits=32 if fp32 else config.bits,
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
            return self.scheduler.schedule_deployed(workload)
        return self.scheduler.schedule_network(workload)

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
        return self.scheduler.schedule_deployed_batch(deployed, batch_size)

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
            raise ValueError("run() executes MF-DFP networks; the FP32 baseline runs as net.logits(x)")
        codes = execute_deployed(deployed, x)
        last = deployed.ops[-1]
        return codes.astype(np.float64) * 2.0 ** (-last.out_frac)

    def evaluate_deployed(
        self, deployed: DeployedMFDFP, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> dict:
        """Accuracy on a labelled set, with *batched* silicon accounting.

        The accuracy is :func:`repro.core.engine.deployed_accuracy`
        (the process-wide cached engine, in ``batch_size`` slices); the
        workload is priced with :meth:`schedule_batch` (weights resident
        across each batch) — one schedule per distinct slice size
        instead of one per sample, the accounting analogue of the
        batched execution itself.  Returns ``accuracy``, ``samples``,
        ``modeled_latency_us``, ``modeled_energy_uj`` and the implied
        ``modeled_throughput_ips``.
        """
        # Lazy: repro.core.engine imports repro.hw.datapath.
        from repro.core.engine import deployed_accuracy

        if self.config.precision != "mfdfp":
            raise ValueError("evaluate_deployed() executes MF-DFP networks")
        accuracy = deployed_accuracy(deployed, x, y, batch_size)
        n = len(x)
        full_batches, remainder = divmod(n, batch_size)
        modeled_us = 0.0
        if full_batches:
            modeled_us += full_batches * self.schedule_batch(deployed, batch_size).time_us()
        if remainder:
            modeled_us += self.schedule_batch(deployed, remainder).time_us()
        modeled_uj = self.power_mw * 1e-3 * modeled_us
        return {
            "accuracy": accuracy,
            "samples": n,
            "modeled_latency_us": modeled_us,
            "modeled_energy_uj": modeled_uj,
            "modeled_throughput_ips": n / (modeled_us * 1e-6),
        }

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
