"""Flatten layer: collapse all non-batch dimensions."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.base import Layer


class Flatten(Layer):
    """Reshape ``(N, ...)`` to ``(N, prod(...))``."""

    def forward(self, x: np.ndarray, ws=None) -> np.ndarray:
        self._cache = x.shape
        return self._quantize_output(x.reshape(x.shape[0], -1), ws, owned=False)

    def backward(self, grad: np.ndarray, ws=None, need_dx: bool = True) -> Optional[np.ndarray]:
        shape = self._saved()
        return grad.reshape(shape) if need_dx else None

    def output_shape(self, input_shape: tuple) -> tuple:
        return (int(np.prod(input_shape)),)
