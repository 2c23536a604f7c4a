"""Baseline weight-quantization schemes the paper positions against.

Section 1 argues that binary [14] and ternary [12] precisions "often lead
to unacceptable accuracy loss on large datasets", while plain fixed-point
schemes [9, 13] need at least 8 bits for weights *and* a real multiplier
in hardware.  These baselines make that comparison runnable: each class
is a drop-in ``weight_quantizer`` hook (same shadow-weight training
semantics as :class:`~repro.core.pow2.Pow2WeightQuantizer`), and
:class:`~repro.hw.cost.CostModel` prices the corresponding datapaths.

* :class:`BinaryWeightQuantizer` — BinaryConnect-style ±1 (optionally
  scaled by E|w|, as in BWN).
* :class:`TernaryWeightQuantizer` — {-1, 0, +1} with the Δ = 0.7·E|w|
  threshold of Li et al. / Hwang & Sung [12].
* :class:`FixedPointWeightQuantizer` — ⟨b, f⟩ dynamic fixed-point
  weights, the Ristretto/Courbariaux representation [10, 13].
"""

from __future__ import annotations

import numpy as np

from repro.core.dfp import MIN_BITS, DFPFormat, choose_fraction_length, dfp_quantize


class BinaryWeightQuantizer:
    """Binary weights: ``sign(w)`` (optionally scaled by ``mean|w|``).

    ``scaled=False`` is BinaryConnect's deterministic binarization;
    ``scaled=True`` is the BWN refinement where the per-tensor scale
    ``alpha = E|w|`` minimizes the L2 binarization error.
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w)
        sign = np.where(w >= 0, 1.0, -1.0)
        if self.scaled:
            alpha = float(np.mean(np.abs(w))) or 1.0
            sign = sign * alpha
        return sign.astype(w.dtype, copy=False)

    def __repr__(self) -> str:
        return f"BinaryWeightQuantizer(scaled={self.scaled})"


class TernaryWeightQuantizer:
    """Ternary weights {-a, 0, +a} with threshold ``delta_ratio * E|w|``.

    Weights below the threshold become exactly zero; survivors take the
    mean magnitude of the surviving weights (``scaled=True``) or ±1.
    """

    def __init__(self, delta_ratio: float = 0.7, scaled: bool = True):
        if delta_ratio <= 0:
            raise ValueError("delta_ratio must be positive")
        self.delta_ratio = delta_ratio
        self.scaled = scaled

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w)
        delta = self.delta_ratio * float(np.mean(np.abs(w)))
        mask = np.abs(w) > delta
        if self.scaled:
            selected = np.abs(w[mask])
            alpha = float(selected.mean()) if selected.size else 1.0
        else:
            alpha = 1.0
        out = np.where(mask, np.sign(w) * alpha, 0.0)
        return out.astype(w.dtype, copy=False)

    def __repr__(self) -> str:
        return f"TernaryWeightQuantizer(delta={self.delta_ratio}, scaled={self.scaled})"


class FixedPointWeightQuantizer:
    """⟨b, f⟩ dynamic fixed-point weights (per-tensor fraction length).

    The fraction length is chosen per call from the tensor's range —
    consistent with the shadow-weight flow, where the master weights
    drift during fine-tuning.
    """

    def __init__(self, bits: int = 8):
        if bits < MIN_BITS:
            raise ValueError(f"need at least {MIN_BITS} bits")
        self.bits = bits

    def __call__(self, w: np.ndarray) -> np.ndarray:
        f = choose_fraction_length(w, bits=self.bits)
        return dfp_quantize(w, DFPFormat(self.bits, f))

    def __repr__(self) -> str:
        return f"FixedPointWeightQuantizer(bits={self.bits})"
