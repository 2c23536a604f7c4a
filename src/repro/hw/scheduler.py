"""Tile scheduling and cycle counting.

The accelerator is tile-based (DianNao style): each cycle a processing
unit consumes 16 input words and 16x16 weights, producing 16 partial
sums.  A convolution with ``S`` synapses per output (``in_ch * k * k``),
``F`` output channels and ``P`` output positions therefore takes

    compute_cycles = P * ceil(F / 16) * ceil(S / 16)

plus a per-layer pipeline fill.  Pooling runs on the dedicated pooling
path, which reads one 16-word input row per cycle.  The FP32 baseline
shares this schedule (same tile organization, same 250 MHz clock) but
has a deeper pipeline — which is why Table 2's inference times are
nearly identical, with MF-DFP marginally faster.

Optionally the scheduler models the off-chip DMA: with double-buffered
memory subsystems, each layer's effective time is the max of compute and
transfer time.  The paper's evaluation excludes main memory (compute
bound at its bandwidth), which is the default here (``dma_bandwidth``
None); enabling it exposes a second MF-DFP advantage — its transfers are
4-8x smaller, so it stays compute-bound at bandwidths where the FP32
design stalls (see ``benchmarks/bench_ablation_bandwidth.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.mfdfp import DeployedLayer, DeployedMFDFP
from repro.hw.datapath import NEURONS, SYNAPSES
from repro.nn.layers.conv import Conv2D, conv_output_size
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.norm import LocalResponseNorm
from repro.nn.layers.pool import AvgPool2D, MaxPool2D, pool_output_size
from repro.nn.network import Network


@dataclass(frozen=True)
class LayerSchedule:
    """Cycle count and traffic of one scheduled operation.

    ``cycles`` is the effective (wall-clock) count: with a DMA model it is
    ``max(compute, dma) + pipeline fill``; without one it is compute plus
    fill.  Buffer-access fields count on-chip SRAM words; ``*_elems``
    count the unique off-chip elements a double-buffered DMA must move.
    """

    name: str
    kind: str
    cycles: int
    compute_cycles: int = 0
    dma_cycles: int = 0
    macs: int = 0
    inputs_read: int = 0
    weights_read: int = 0
    outputs_written: int = 0
    input_elems: int = 0
    weight_elems: int = 0
    output_elems: int = 0

    @property
    def memory_bound(self) -> bool:
        """True when the DMA transfer, not compute, sets this layer's time."""
        return self.dma_cycles > self.compute_cycles


@dataclass
class Schedule:
    """A schedule on one processing unit (one inference, or a batch).

    ``batch_size`` is 1 for the paper's single-inference schedules;
    :meth:`TileScheduler.schedule_deployed_batch` produces schedules
    covering a whole batch, where :meth:`time_us` is the batch latency
    and :meth:`throughput_ips` accounts for all samples in it.
    """

    network: str
    clock_mhz: float
    layers: list[LayerSchedule] = field(default_factory=list)
    batch_size: int = 1

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def time_us(self) -> float:
        """Latency of the scheduled work (whole batch) in microseconds."""
        return self.total_cycles / self.clock_mhz

    def utilization(self) -> float:
        """Average MAC-lane utilization over compute cycles."""
        compute_cycles = sum(l.cycles for l in self.layers if l.kind in ("conv", "dense"))
        if compute_cycles == 0:
            return 0.0
        return self.total_macs / (compute_cycles * NEURONS * SYNAPSES)

    def memory_bound_layers(self) -> list[str]:
        """Names of layers whose DMA time exceeds their compute time."""
        return [l.name for l in self.layers if l.memory_bound]

    def throughput_ips(self) -> float:
        """Steady-state throughput in inferences per second (one PU).

        For batched schedules, every sample of the batch counts.
        """
        return self.batch_size * 1e6 / self.time_us()


class TileScheduler:
    """Maps networks onto the 16-neuron / 16-synapse tile.

    Args:
        clock_mhz: Core clock (paper: constant 250 MHz for all designs).
        pipeline_depth: Per-layer pipeline fill cycles.  The FP32
            multiply pipeline is deeper than the MF-DFP shift pipeline,
            producing the small latency edge MF-DFP shows in Table 2.
        dma_bandwidth: Off-chip bandwidth in *bytes per cycle*, or None
            for the paper's compute-bound setting (main memory excluded).
        activation_bits: Off-chip activation width (8 MF-DFP / 32 FP32).
        weight_bits: Off-chip weight width (4 MF-DFP / 32 FP32).
    """

    def __init__(
        self,
        clock_mhz: float = 250.0,
        pipeline_depth: int = 4,
        dma_bandwidth: Optional[float] = None,
        activation_bits: int = 8,
        weight_bits: int = 4,
    ):
        if dma_bandwidth is not None and dma_bandwidth <= 0:
            raise ValueError("dma_bandwidth must be positive (or None)")
        self.clock_mhz = clock_mhz
        self.pipeline_depth = pipeline_depth
        self.dma_bandwidth = dma_bandwidth
        self.activation_bits = activation_bits
        self.weight_bits = weight_bits

    # -- DMA model -------------------------------------------------------------
    def _dma_cycles(self, input_elems: int, weight_elems: int, output_elems: int) -> int:
        """Transfer cycles for one layer's unique off-chip traffic."""
        if self.dma_bandwidth is None:
            return 0
        total_bytes = (
            (input_elems + output_elems) * self.activation_bits
            + weight_elems * self.weight_bits
        ) / 8.0
        return math.ceil(total_bytes / self.dma_bandwidth)

    def _finalize(self, compute_cycles: int, dma_cycles: int) -> int:
        """Effective cycles: double-buffered overlap of compute and DMA."""
        return max(compute_cycles, dma_cycles) + self.pipeline_depth

    # -- per-op cycle models -----------------------------------------------------
    def _compute_op(
        self, name, kind, out_units, positions, syn_per_out, input_elems, weight_elems
    ) -> LayerSchedule:
        """Tiled conv/dense cycles: positions x channel-tiles x syn-chunks."""
        tiles = positions * math.ceil(out_units / NEURONS)
        chunks = math.ceil(syn_per_out / SYNAPSES)
        compute = tiles * chunks
        output_elems = out_units * positions
        dma = self._dma_cycles(input_elems, weight_elems, output_elems)
        return LayerSchedule(
            name=name,
            kind=kind,
            cycles=self._finalize(compute, dma),
            compute_cycles=compute,
            dma_cycles=dma,
            macs=out_units * positions * syn_per_out,
            inputs_read=tiles * chunks * SYNAPSES,
            weights_read=tiles * chunks * SYNAPSES * NEURONS,
            outputs_written=output_elems,
            input_elems=input_elems,
            weight_elems=weight_elems,
            output_elems=output_elems,
        )

    def _pool_op(self, name, kind, out_elems, window, input_elems) -> LayerSchedule:
        compute = math.ceil(out_elems * window / SYNAPSES)
        dma = self._dma_cycles(input_elems, 0, out_elems)
        return LayerSchedule(
            name=name,
            kind=kind,
            cycles=self._finalize(compute, dma),
            compute_cycles=compute,
            dma_cycles=dma,
            inputs_read=out_elems * window,
            outputs_written=out_elems,
            input_elems=input_elems,
            output_elems=out_elems,
        )

    # -- deployed networks ---------------------------------------------------------
    def schedule_deployed(self, deployed: DeployedMFDFP) -> Schedule:
        """Schedule a deployed MF-DFP network."""
        schedule = Schedule(network=deployed.name, clock_mhz=self.clock_mhz)
        shape = deployed.input_shape
        for op in deployed.ops:
            shape = self._schedule_op(schedule, op, shape)
        return schedule

    def schedule_deployed_batch(self, deployed: DeployedMFDFP, batch_size: int) -> Schedule:
        """Schedule ``batch_size`` inferences with weights held resident.

        Per layer, compute cycles, activation traffic and MACs scale with
        the batch while off-chip weight traffic (``weight_elems``) is
        paid once — the batched engine (and a weight-stationary tile
        schedule) reuse the loaded weights for every sample.  Each
        layer's pipeline is filled once per batch, not once per sample,
        which is where the modeled batching speedup comes from in the
        compute-bound setting.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        base = self.schedule_deployed(deployed)
        layers = []
        for l in base.layers:
            compute = l.compute_cycles * batch_size
            dma = self._dma_cycles(
                l.input_elems * batch_size, l.weight_elems, l.output_elems * batch_size
            )
            layers.append(
                LayerSchedule(
                    name=l.name,
                    kind=l.kind,
                    cycles=self._finalize(compute, dma),
                    compute_cycles=compute,
                    dma_cycles=dma,
                    macs=l.macs * batch_size,
                    inputs_read=l.inputs_read * batch_size,
                    weights_read=l.weights_read * batch_size,
                    outputs_written=l.outputs_written * batch_size,
                    input_elems=l.input_elems * batch_size,
                    weight_elems=l.weight_elems,
                    output_elems=l.output_elems * batch_size,
                )
            )
        return Schedule(
            network=base.network,
            clock_mhz=self.clock_mhz,
            layers=layers,
            batch_size=batch_size,
        )

    def _schedule_op(self, schedule: Schedule, op: DeployedLayer, shape: tuple) -> tuple:
        if op.kind == "conv":
            c, h, w = shape
            oh = conv_output_size(h, op.kernel_size, op.stride, op.pad)
            ow = conv_output_size(w, op.kernel_size, op.stride, op.pad)
            groups = getattr(op, "groups", 1) or 1
            syn = (op.in_channels // groups) * op.kernel_size * op.kernel_size
            weights = op.out_channels * syn + op.out_channels
            schedule.layers.append(
                self._compute_op(op.name, "conv", op.out_channels, oh * ow, syn, c * h * w, weights)
            )
            return (op.out_channels, oh, ow)
        if op.kind == "dense":
            weights = op.out_features * op.in_features + op.out_features
            schedule.layers.append(
                self._compute_op(
                    op.name, "dense", op.out_features, 1, op.in_features, op.in_features, weights
                )
            )
            return (op.out_features,)
        if op.kind in ("maxpool", "avgpool"):
            c, h, w = shape
            oh = pool_output_size(h, op.kernel_size, op.stride, op.pad, op.ceil_mode)
            ow = pool_output_size(w, op.kernel_size, op.stride, op.pad, op.ceil_mode)
            window = op.kernel_size * op.kernel_size
            schedule.layers.append(
                self._pool_op(op.name, op.kind, c * oh * ow, window, c * h * w)
            )
            return (c, oh, ow)
        if op.kind == "flatten":
            return (int(math.prod(shape)),)
        raise ValueError(f"cannot schedule op kind {op.kind!r}")

    # -- float networks ----------------------------------------------------------------
    def schedule_network(self, net: Network) -> Schedule:
        """Schedule a float network (the FP32 baseline runs the same tiles)."""
        if net.input_shape is None:
            raise ValueError("network needs input_shape for scheduling")
        schedule = Schedule(network=net.name, clock_mhz=self.clock_mhz)
        shape = net.input_shape
        for layer in net.layers:
            if isinstance(layer, Conv2D):
                c, h, w = shape
                oh = conv_output_size(h, layer.kernel_size, layer.stride, layer.pad)
                ow = conv_output_size(w, layer.kernel_size, layer.stride, layer.pad)
                groups = getattr(layer, "groups", 1)
                syn = (layer.in_channels // groups) * layer.kernel_size**2
                weights = layer.out_channels * syn + layer.out_channels
                schedule.layers.append(
                    self._compute_op(
                        layer.name, "conv", layer.out_channels, oh * ow, syn, c * h * w, weights
                    )
                )
            elif isinstance(layer, Dense):
                weights = layer.out_features * layer.in_features + layer.out_features
                schedule.layers.append(
                    self._compute_op(
                        layer.name,
                        "dense",
                        layer.out_features,
                        1,
                        layer.in_features,
                        layer.in_features,
                        weights,
                    )
                )
            elif isinstance(layer, (MaxPool2D, AvgPool2D)):
                c, h, w = shape
                _, oh, ow = layer.output_shape(shape)
                kind = "maxpool" if isinstance(layer, MaxPool2D) else "avgpool"
                schedule.layers.append(
                    self._pool_op(layer.name, kind, c * oh * ow, layer.kernel_size**2, c * h * w)
                )
            elif isinstance(layer, (Flatten, Dropout)):
                pass  # free: reshaping / inference no-op
            elif isinstance(layer, LocalResponseNorm):
                raise ValueError(
                    "LRN cannot be scheduled on this accelerator; the paper removes LRN layers"
                )
            shape = layer.output_shape(shape)
        return schedule
