"""The processing unit of Figure 2(b).

A *processing unit* (PU) implements 16 neurons with 16 synapses each —
256 shift-product lanes fed by the input and weight buffers every cycle.
The NPU holds one PU for the single MF-DFP configuration and two for the
ensemble (``AcceleratorConfig.num_pus``); each PU evaluates one network
of the ensemble, so M networks run in the time of one.
"""

from __future__ import annotations

import numpy as np

from repro.hw.datapath import NEURONS, SYNAPSES
from repro.hw.neuron import Neuron


class ProcessingUnit:
    """16 neurons × 16 synapses, computed bit-accurately.

    The per-cycle interface mirrors the hardware: a shared 16-wide input
    vector is broadcast to all neurons, each neuron applying its own 16
    weights (weight-stationary tile); ``bits`` sizes every neuron's wires.
    """

    def __init__(self, bits: int = 8):
        self.neurons = [Neuron(bits) for _ in range(NEURONS)]

    def reset(self) -> None:
        for neuron in self.neurons:
            neuron.reset()

    def load_bias(self, bias_ints: np.ndarray) -> None:
        """Preload all 16 accumulators (one bias per neuron)."""
        bias_ints = np.asarray(bias_ints, dtype=np.int64)
        if bias_ints.shape != (NEURONS,):
            raise ValueError(f"expected {NEURONS} biases, got {bias_ints.shape}")
        for neuron, b in zip(self.neurons, bias_ints):
            neuron.load_bias(int(b))

    def cycle(self, x_codes: np.ndarray, w_sign: np.ndarray, w_exp: np.ndarray) -> np.ndarray:
        """One cycle over all 16 neurons.

        Args:
            x_codes: Shared input codes, shape ``(16,)``.
            w_sign, w_exp: Per-neuron weights, shape ``(16, 16)``.

        Returns:
            The 16 accumulator values after this cycle.
        """
        w_sign = np.asarray(w_sign)
        w_exp = np.asarray(w_exp)
        if w_sign.shape != (NEURONS, SYNAPSES):
            raise ValueError(f"expected weights ({NEURONS}, {SYNAPSES}), got {w_sign.shape}")
        return np.array(
            [
                neuron.accumulate(x_codes, w_sign[i], w_exp[i])
                for i, neuron in enumerate(self.neurons)
            ],
            dtype=np.int64,
        )

    def emit(self, m: int, n: int, activation: str = "none") -> np.ndarray:
        """Finish all 16 outputs through Accumulator & Routing."""
        return np.array([neuron.emit(m, n, activation) for neuron in self.neurons], dtype=np.int64)

    def compute_tile(
        self,
        x_codes: np.ndarray,
        w_sign: np.ndarray,
        w_exp: np.ndarray,
        bias_ints: np.ndarray,
        m: int,
        n: int,
        activation: str = "none",
    ) -> np.ndarray:
        """Full tile: 16 outputs sharing one input vector of any length.

        Args:
            x_codes: Input codes, shape ``(K,)`` (chunked into 16s).
            w_sign, w_exp: Weights, shape ``(16, K)``.
            bias_ints: Accumulator-grid biases, shape ``(16,)``.

        Returns:
            The 16 output codes.
        """
        x_codes = np.asarray(x_codes, dtype=np.int64)
        w_sign = np.asarray(w_sign, dtype=np.int64)
        w_exp = np.asarray(w_exp, dtype=np.int64)
        k = x_codes.size
        if w_sign.shape != (NEURONS, k):
            raise ValueError(f"weights must be ({NEURONS}, {k}), got {w_sign.shape}")
        self.reset()
        self.load_bias(bias_ints)
        for start in range(0, k, SYNAPSES):
            stop = min(start + SYNAPSES, k)
            xs = np.zeros(SYNAPSES, dtype=np.int64)
            ss = np.ones((NEURONS, SYNAPSES), dtype=np.int64)
            es = np.zeros((NEURONS, SYNAPSES), dtype=np.int64)
            xs[: stop - start] = x_codes[start:stop]
            ss[:, : stop - start] = w_sign[:, start:stop]
            es[:, : stop - start] = w_exp[:, start:stop]
            self.cycle(xs, ss, es)
        return self.emit(m, n, activation)

