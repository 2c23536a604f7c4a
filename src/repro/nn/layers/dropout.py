"""Inverted dropout regularization."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.workspace import buffer, scratch


class Dropout(Layer):
    """Inverted dropout: zero each activation with probability ``p``.

    Active only in training mode; at inference the layer is the identity
    (the 1/(1-p) scaling is applied during training, so no rescale is
    needed at test time).
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None, name=None):
        super().__init__(name=name)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (documented deterministic default; compiled/eager bit-identity depends on it)

    def forward(self, x: np.ndarray, ws=None) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._cache = (None,)
            return self._quantize_output(x, ws, owned=False)
        keep = 1.0 - self.p
        draws = self.rng.random(out=scratch(ws, x.shape, np.float64))
        kept = np.less(draws, keep, out=scratch(ws, x.shape, bool))
        # The mask is materialized in the input dtype: a float64 mask
        # would silently upcast both the output product and the backward
        # gradient of a float32 network.
        scaled = np.divide(kept, keep, out=scratch(ws, x.shape, np.float64))
        mask = buffer(ws, "mask", x.shape, x.dtype)
        np.copyto(mask, scaled, casting="same_kind")
        self._cache = (mask,)
        y = np.multiply(x, mask, out=buffer(ws, "y", x.shape, x.dtype))
        return self._quantize_output(y, ws)

    def backward(self, grad: np.ndarray, ws=None, need_dx: bool = True) -> Optional[np.ndarray]:
        (mask,) = self._saved()
        if not need_dx:
            return None
        if mask is None:
            return grad
        return np.multiply(
            grad, mask, out=buffer(ws, "dx", grad.shape, np.promote_types(grad.dtype, mask.dtype))
        )

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape
