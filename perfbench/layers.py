"""Per-layer measurements shared by the workloads' traced runs.

Engine ops are timed by swapping each ``CompiledOp`` of an engine's
``program`` for one whose kernel records a span; bytes are computed from
the sizes of the tensors each call reads and writes (input codes, the
op's stored 4-bit weight codes, output codes), not measured on a memory
bus.  Operations are ``2 x MACs``, with the MAC count per sample taken
from the tile scheduler.  Modeled cycles and energy per layer come from
``TileScheduler.schedule_deployed_batch`` and the accelerator's power.
"""

from __future__ import annotations

import dataclasses
import time

from common import mean
from repro.hw import Accelerator


def wrap_engine(tracer, engine, model: str) -> None:
    """Time every op of ``engine`` (the traced run's engines only)."""
    weights = {
        op.name: 0 if op.weight_codes is None else op.weight_codes.nbytes
        for op in engine.deployed.ops
    }

    def timed(op):
        name = f"core.engine.op.{model}.{op.name}"
        kernel = op.kernel

        def kernel_timed(codes, check_widths=False):
            start = time.perf_counter()
            out = kernel(codes, check_widths)
            tracer.record(
                name, start, time.perf_counter(), n=len(codes),
                nbytes=codes.nbytes + out.nbytes + weights[op.name],
            )
            return out

        return dataclasses.replace(op, kernel=kernel_timed)

    engine.program = [timed(op) for op in engine.program]


def hw_layers(deployed, batch: int) -> list[dict]:
    """Modeled per-inference rows of a deployed net scheduled at ``batch``."""
    acc = Accelerator()
    schedule = acc.scheduler.schedule_deployed_batch(deployed, batch)
    rows = []
    for layer in schedule.layers:
        rows.append(
            {
                "name": layer.name,
                "kind": layer.kind,
                "macs": layer.macs / batch,
                "cycles": layer.cycles / batch,
                "compute_cycles": layer.compute_cycles / batch,
                "dma_cycles": layer.dma_cycles / batch,
                "memory_bound": layer.memory_bound,
                "energy_uj": acc.power_mw * 1e-3 * layer.cycles / acc.config.clock_mhz / batch,
            }
        )
    return rows


def npu_per_inference(deployeds, batch: int) -> tuple[float, float]:
    """Mean modeled cycles and energy per inference over ``deployeds``."""
    acc = Accelerator()
    cycles = [acc.scheduler.schedule_deployed_batch(d, batch).total_cycles / batch for d in deployeds]
    energy = [acc.batch_profile(d, batch)["energy_uj_per_sample"] for d in deployeds]
    return mean(cycles), mean(energy)


def engine_layer_metrics(tracer, models: dict, batch: int) -> tuple[dict, list[str]]:
    """Per-op metrics plus the printed per-layer table.

    ``models`` maps a model key to its deployed network; ``batch`` is
    the fixed batch the modeled numbers are scheduled at.
    """
    metrics: dict = {}
    lines = [
        f"{'layer':<26}{'ms/call':>9}{'MMAC/call':>11}{'KB/call':>9}{'GOP/s':>8}"
        f"{'cyc/inf':>10}{'dma/inf':>9}{'mem':>5}{'uJ/inf':>9}"
    ]
    memory_bound = 0
    for model, deployed in models.items():
        for row in hw_layers(deployed, batch):
            key = f"{model}.{row['name']}"
            spans = [s for s in tracer.spans if s.name == f"core.engine.op.{key}"]
            busy = sum(s.duration for s in spans)
            samples = sum(s.attrs["n"] for s in spans)
            ms = 1e3 * busy / len(spans) if spans else 0.0
            macs = row["macs"] * samples / len(spans) if spans else 0.0
            kbytes = mean(s.attrs["nbytes"] for s in spans) / 1024 if spans else 0.0
            gops = 2 * row["macs"] * samples / busy / 1e9 if busy else 0.0
            memory_bound += row["memory_bound"]
            metrics[f"core.engine.op.{key}.ms"] = ms
            metrics[f"core.engine.op.{key}.gops"] = gops
            metrics[f"hw.scheduler.{key}.cycles"] = row["cycles"]
            lines.append(
                f"{key:<26}{ms:>9.3f}{macs / 1e6:>11.3f}{kbytes:>9.1f}{gops:>8.2f}"
                f"{row['cycles']:>10.1f}{row['dma_cycles']:>9.1f}"
                f"{'yes' if row['memory_bound'] else 'no':>5}{row['energy_uj']:>9.4f}"
            )
    metrics["hw.scheduler.memory_bound_layers"] = memory_bound
    return metrics, lines
