"""The single multiplier-free neuron of Figure 2(a).

A neuron owns 16 synapses.  Each cycle it receives 16 input codes and 16
⟨s, e⟩ weights, forms the shift products, reduces them through the
widening adder tree, and adds the result into its accumulator.  When a
whole output has been accumulated (possibly over many 16-synapse chunks),
the Accumulator & Routing stage applies the non-linearity and realigns
the radix point from ``m`` (input) to ``n`` (output).
"""

from __future__ import annotations

import numpy as np

from repro.hw.datapath import (
    accumulator_route,
    adder_tree,
    check_width,
    datapath_widths,
    shift_product,
)


class Neuron:
    """Bit-accurate model of one neuron (16 synapses).

    Args:
        num_synapses: Synapses per cycle (the paper's design: 16).
        check_widths: Verify every wire against its declared width; keep
            on for verification, off for speed.
        bits: Activation width; sizes every wire (``datapath_widths``).
    """

    def __init__(self, num_synapses: int = 16, check_widths: bool = True, bits: int = 8):
        if num_synapses != 16:
            raise ValueError("the Figure 2(a) adder tree is built for 16 synapses")
        self.num_synapses = num_synapses
        self.check_widths = check_widths
        self.widths = datapath_widths(bits)
        self.acc = np.int64(0)

    def reset(self) -> None:
        """Clear the accumulator (start of a new output computation)."""
        self.acc = np.int64(0)

    def load_bias(self, bias_int: int) -> None:
        """Preload the accumulator with a bias on the ``2^-(m+7)`` grid."""
        self.acc = np.int64(bias_int)

    def accumulate(self, x_codes: np.ndarray, w_sign: np.ndarray, w_exp: np.ndarray) -> np.int64:
        """One cycle: 16 shift products, adder tree, accumulate.

        Unused synapse slots should be fed ``x_code = 0``.
        Returns the updated accumulator value.
        """
        x_codes = np.asarray(x_codes)
        if x_codes.shape != (self.num_synapses,):
            raise ValueError(f"expected {self.num_synapses} synapses, got shape {x_codes.shape}")
        products = shift_product(x_codes, w_sign, w_exp, self.widths.bits)
        partial = adder_tree(products, self.check_widths, self.widths.bits)
        self.acc = np.int64(self.acc + partial)
        if self.check_widths:
            check_width(np.array([self.acc]), self.widths.accumulator, "accumulator")
        return self.acc

    def emit(self, m: int, n: int, activation: str = "none") -> int:
        """Finish the output: NL + radix routing to a ``bits``-bit code.

        ``m``/``n`` are the input/output radix indices of Figure 2(a); the
        accumulator grid has fraction length ``m + 7``.
        """
        out = accumulator_route(np.array([self.acc]), m + 7, n, activation, max_code=self.widths.code_max)
        return int(out[0])

    def compute_output(
        self,
        x_codes: np.ndarray,
        w_sign: np.ndarray,
        w_exp: np.ndarray,
        bias_int: int,
        m: int,
        n: int,
        activation: str = "none",
    ) -> int:
        """Convenience: full dot product over any number of synapses.

        Inputs are split into 16-wide chunks (zero-padded); the result is
        the neuron's ``bits``-bit output code.
        """
        x_codes = np.asarray(x_codes, dtype=np.int64).ravel()
        w_sign = np.asarray(w_sign, dtype=np.int64).ravel()
        w_exp = np.asarray(w_exp, dtype=np.int64).ravel()
        if not (x_codes.shape == w_sign.shape == w_exp.shape):
            raise ValueError("inputs and weights must have matching lengths")
        self.reset()
        self.load_bias(bias_int)
        k = self.num_synapses
        total = x_codes.size
        for start in range(0, total, k):
            xs = np.zeros(k, dtype=np.int64)
            ss = np.ones(k, dtype=np.int64)
            es = np.zeros(k, dtype=np.int64)
            chunk = slice(start, min(start + k, total))
            width = chunk.stop - chunk.start
            xs[:width] = x_codes[chunk]
            ss[:width] = w_sign[chunk]
            es[:width] = w_exp[chunk]
            self.accumulate(xs, ss, es)
        return self.emit(m, n, activation)
