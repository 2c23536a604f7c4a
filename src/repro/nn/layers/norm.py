"""Local response normalization (cross-channel), as in AlexNet/Caffe.

The paper *removes* LRN layers because they are not amenable to the
multiplier-free hardware.  The layer is still implemented here so that (a)
the original float architectures can be built faithfully and (b) the
"remove LRN" transformation in :mod:`repro.zoo` is an explicit, testable
step rather than an omission.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer


class LocalResponseNorm(Layer):
    """Cross-channel LRN: ``y_i = x_i / (k + alpha/n * sum_j x_j^2)^beta``.

    The sum runs over ``local_size`` adjacent channels centered on ``i``
    (clipped at the channel boundaries), matching Caffe's
    ``ACROSS_CHANNELS`` mode.
    """

    def __init__(self, local_size: int = 5, alpha: float = 1e-4, beta: float = 0.75, k: float = 1.0, name=None):
        super().__init__(name=name)
        if local_size % 2 == 0:
            raise ValueError("local_size must be odd")
        self.local_size = local_size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def _window_sum(self, t: np.ndarray) -> np.ndarray:
        """Sum ``t`` over the channel window for every channel (NCHW)."""
        c = t.shape[1]
        half = self.local_size // 2
        csum = np.cumsum(np.pad(t, ((0, 0), (1, 0), (0, 0), (0, 0))), axis=1)
        lo = np.maximum(np.arange(c) - half, 0)
        hi = np.minimum(np.arange(c) + half + 1, c)
        return csum[:, hi] - csum[:, lo]

    def forward(self, x: np.ndarray) -> np.ndarray:
        sq_sum = self._window_sum(x**2)
        scale = self.k + (self.alpha / self.local_size) * sq_sum
        y = x * scale ** (-self.beta)
        self._cache = (x, scale, y)
        return self._quantize_output(y.astype(x.dtype, copy=False))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, scale, y = self._saved()
        coef = 2.0 * self.alpha * self.beta / self.local_size
        inner = grad * y / scale  # dy_i * x_i * S_i^(-beta-1)
        dx = grad * scale ** (-self.beta) - coef * x * self._window_sum(inner)
        return dx.astype(grad.dtype, copy=False)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape
