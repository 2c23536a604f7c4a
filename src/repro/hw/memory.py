"""Geometry of the three SRAM buffers.

The accelerator implements "three separate memory subsystems assigned to
input data, weights, and output data" (Section 5), each with its own DMA
so transfers overlap computation.  Buffers are modelled as word-organized
SRAM macros; word widths depend on the precision mode (8-bit activations
and 4-bit weights for MF-DFP vs 32-bit everything for the FP32 baseline).
The cost model prices their bits (Table 1).  Per-layer buffer traffic is
recorded on each :class:`~repro.hw.scheduler.LayerSchedule`, and the
off-chip DMA is timed by ``TileScheduler(dma_bandwidth=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BufferConfig:
    """Word counts and widths of the three buffers (one processing unit).

    Word counts are shared between precision modes; widths shrink with
    the data types, which is where the MF-DFP memory savings come from.
    """

    input_words: int = 16384
    output_words: int = 16384
    weight_words: int = 65536
    input_bits: int = 8
    output_bits: int = 8
    weight_bits: int = 4

    @property
    def total_bits(self) -> int:
        return (
            self.input_words * self.input_bits
            + self.output_words * self.output_bits
            + self.weight_words * self.weight_bits
        )

    @property
    def total_kbytes(self) -> float:
        return self.total_bits / 8.0 / 1024.0

    def scaled_to_precision(self, activation_bits: int, weight_bits: int) -> "BufferConfig":
        """Same geometry with different element widths."""
        return BufferConfig(
            input_words=self.input_words,
            output_words=self.output_words,
            weight_words=self.weight_words,
            input_bits=activation_bits,
            output_bits=activation_bits,
            weight_bits=weight_bits,
        )

