"""Max and average pooling with Caffe-compatible ceil-mode geometry.

Caffe's pooling layers (used by the paper's ``cifar10_full`` network) use
ceil mode for the output size, so a 32x32 map pooled with kernel 3 /
stride 2 produces 16x16.  Windows that extend past the input border are
clipped: max pooling takes the max over valid elements and average pooling
divides by the number of valid elements in the window.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from repro.nn.layers.base import Layer

_NEG_INF = -np.inf


def pool_output_size(size: int, kernel: int, stride: int, pad: int, ceil_mode: bool) -> int:
    """Spatial output size of pooling; ceil mode matches Caffe.

    Caffe drops a last window that starts past the input only when
    ``pad > 0``; here the rule holds without padding too, since such a
    window would read nothing.  Windows read input whenever ``pad < kernel``.
    """
    num = size + 2 * pad - kernel
    out = (math.ceil(num / stride) if ceil_mode else num // stride) + 1
    if (out - 1) * stride >= size + pad:
        out -= 1  # the last window must start inside the input
    if out <= 0:
        raise ValueError(
            f"pooling produces non-positive output size: size={size}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


class _Pool2D(Layer):
    """Shared geometry for max/average pooling."""

    def __init__(
        self,
        kernel_size: int,
        stride: Optional[int] = None,
        pad: int = 0,
        ceil_mode: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.pad = pad
        self.ceil_mode = ceil_mode
        self._cache = None

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        return (
            c,
            pool_output_size(h, k, s, p, self.ceil_mode),
            pool_output_size(w, k, s, p, self.ceil_mode),
        )

    def _windows(self, x: np.ndarray, fill: float):
        """Return strided windows ``(N, C, oh, ow, k, k)`` over padded input.

        The input is padded with ``fill``: left/top by ``self.pad``,
        right/bottom by ``self.pad`` plus whatever ceil mode requires.
        """
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.pad
        _, oh, ow = self.output_shape((c, h, w))
        need_h = (oh - 1) * s + k
        need_w = (ow - 1) * s + k
        pad_b = max(0, need_h - (h + p))
        pad_r = max(0, need_w - (w + p))
        xp = np.pad(x, ((0, 0), (0, 0), (p, pad_b), (p, pad_r)), constant_values=fill)
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        win = win[:, :, ::s, ::s, :, :][:, :, :oh, :ow]
        return win, xp.shape, oh, ow

    def _valid_counts(self, x_shape: tuple, oh: int, ow: int) -> np.ndarray:
        """Number of non-padding elements in each pooling window.

        Depends only on geometry, so it is memoized process-wide (the
        eager path used to rebuild a ones-map and its windows on every
        forward pass).  The cached array is read-only and shared.
        """
        _, _, h, w = x_shape
        return pool_valid_counts(h, w, self.kernel_size, self.stride, self.pad, self.ceil_mode)


@functools.lru_cache(maxsize=256)
def pool_valid_counts(
    h: int, w: int, kernel: int, stride: int, pad: int, ceil_mode: bool
) -> np.ndarray:
    """``(oh, ow)`` count of in-bounds elements per pooling window."""
    probe = _Pool2D(kernel, stride=stride, pad=pad, ceil_mode=ceil_mode)
    ones = np.ones((1, 1, h, w), dtype=np.float64)
    win, _, _, _ = probe._windows(ones, fill=0.0)
    counts = win.sum(axis=(-1, -2))[0, 0]  # (oh, ow)
    counts.setflags(write=False)
    return counts


class MaxPool2D(_Pool2D):
    """Max pooling; gradients are routed to the per-window argmax."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        win, xp_shape, oh, ow = self._windows(x, fill=_NEG_INF)
        k = self.kernel_size
        flat = win.reshape(*win.shape[:4], k * k)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, xp_shape, arg, oh, ow)
        return self._quantize_output(np.ascontiguousarray(out))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x_shape, xp_shape, arg, oh, ow = self._cache
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        hp, wp = xp_shape[2], xp_shape[3]
        # One flat 1-D scatter (the fast indexed-ufunc path) instead of a
        # broadcast 4-tuple index; iteration order — and therefore float
        # accumulation order per target — is the same C order either way.
        rows = np.arange(oh, dtype=np.intp)[None, None, :, None] * s + arg // k
        cols = np.arange(ow, dtype=np.intp)[None, None, None, :] * s + arg % k
        base = (np.arange(n * c, dtype=np.intp) * hp).reshape(n, c, 1, 1)
        target = (base + rows) * wp + cols
        dxp = np.zeros(xp_shape, dtype=grad.dtype)
        np.add.at(
            dxp.reshape(-1), target.reshape(-1), np.ascontiguousarray(grad).reshape(-1)
        )
        return dxp[:, :, p : p + h, p : p + w]


class AvgPool2D(_Pool2D):
    """Average pooling over the valid (non-padding) part of each window."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        win, xp_shape, oh, ow = self._windows(x, fill=0.0)
        counts = self._valid_counts(x.shape, oh, ow)
        out = win.sum(axis=(-1, -2)) / counts[None, None]
        self._cache = (x.shape, xp_shape, counts, oh, ow)
        return self._quantize_output(out.astype(x.dtype, copy=False))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x_shape, xp_shape, counts, oh, ow = self._cache
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        g = grad / counts[None, None]
        dxp = np.zeros(xp_shape, dtype=grad.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += g
        return dxp[:, :, p : p + h, p : p + w]
