"""Element-wise non-linearity layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.workspace import buffer


class ReLU(Layer):
    """Rectified linear unit: ``max(x, 0)``."""

    def forward(self, x: np.ndarray, ws=None) -> np.ndarray:
        if not self._inference(ws):
            self._cache = np.greater(x, 0, out=buffer(ws, "mask", x.shape, bool))
        # where(x > 0, x, 0.0) in two passes that take out=: fmax drops
        # NaN and x <= 0 to zero, and adding +0.0 turns the -0.0 that
        # fmax may keep (float64 does) into +0.0, changing nothing else.
        y = np.fmax(x, 0.0, out=buffer(ws, "y", x.shape, x.dtype))
        y += 0.0
        return self._quantize_output(y, ws)

    def backward(self, grad: np.ndarray, ws=None, need_dx: bool = True) -> Optional[np.ndarray]:
        mask = self._saved()
        if not need_dx:
            return None
        return np.multiply(grad, mask, out=buffer(ws, "dx", grad.shape, grad.dtype))

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape


class Tanh(Layer):
    """Hyperbolic tangent."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.tanh(x)
        self._cache = y
        return self._quantize_output(y)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        y = self._saved()
        return grad * (1.0 - y**2)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape


class Sigmoid(Layer):
    """Logistic sigmoid: ``1 / (1 + exp(-x))``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        self._cache = y
        return self._quantize_output(y)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        y = self._saved()
        return grad * y * (1.0 - y)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape
