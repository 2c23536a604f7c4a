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
from repro.nn.layers.workspace import buffer, scratch

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

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        oh, ow, _, _ = self._geometry(h, w)
        return (c, oh, ow)

    def _geometry(self, h: int, w: int) -> tuple:
        """``(oh, ow, hp, wp)``: output size and padded input size.

        The input is padded left/top by ``self.pad`` and right/bottom by
        ``self.pad`` plus whatever ceil mode requires.
        """
        k, s, p = self.kernel_size, self.stride, self.pad
        oh = pool_output_size(h, k, s, p, self.ceil_mode)
        ow = pool_output_size(w, k, s, p, self.ceil_mode)
        hp = h + p + max(0, (oh - 1) * s + k - (h + p))
        wp = w + p + max(0, (ow - 1) * s + k - (w + p))
        return oh, ow, hp, wp

    def _windows(self, x: np.ndarray, fill: float):
        """Return strided windows ``(N, C, oh, ow, k, k)`` over padded input.

        The input is padded with ``fill``: left/top by ``self.pad``,
        right/bottom by ``self.pad`` plus whatever ceil mode requires.
        """
        h, w = x.shape[2:]
        k, s, p = self.kernel_size, self.stride, self.pad
        oh, ow, hp, wp = self._geometry(h, w)
        xp = np.pad(x, ((0, 0), (0, 0), (p, hp - h - p), (p, wp - w - p)), constant_values=fill)
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

    def forward(self, x: np.ndarray, ws=None) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.pad
        oh, ow, hp, wp = self._geometry(h, w)
        xp = buffer(ws, "xp", (n, c, hp, wp), x.dtype, fill=_NEG_INF)
        xp[:, :, p : p + h, p : p + w] = x  # the border stays -inf
        if self._inference(ws) and ws.rounds_output:
            # Inference onto a DFP grid: a tap-by-tap np.maximum scan (no
            # windows, no argmax) is bit-identical after the hook — a
            # +0.0/-0.0 tie is the only value the scan order can change,
            # and both round to code 0; NaN propagates through maximum as
            # through argmax-and-take.
            y = buffer(ws, "y", (n, c, oh, ow), x.dtype)
            y[...] = xp[:, :, : s * oh : s, : s * ow : s]
            for i in range(k):
                for j in range(k):
                    if i or j:
                        np.maximum(y, xp[:, :, i : i + s * oh : s, j : j + s * ow : s], out=y)
            return self._quantize_output(y, ws)
        # Tap-by-tap strided copies beat one 6-D transposed copy (few
        # taps, long contiguous runs).  Each window's taps land in (i, j)
        # order, so argmax breaks ties as on the windows themselves.
        # Only the argmax outlives the forward, and only for a backward.
        taps = scratch(ws, (n, c, oh, ow, k, k), x.dtype)
        for i in range(k):
            for j in range(k):
                taps[:, :, :, :, i, j] = xp[:, :, i : i + s * oh : s, j : j + s * ow : s]
        flat = taps.reshape(-1, k * k)
        if self._inference(ws):
            arg = take = scratch(ws, (flat.shape[0],), np.intp)  # the gather index overwrites arg
        else:
            arg = buffer(ws, "arg", (flat.shape[0],), np.intp)
            take = scratch(ws, arg.shape, np.intp)
            self._cache = (x.shape, xp.shape, arg.reshape(n, c, oh, ow), oh, ow)
        np.argmax(flat, axis=-1, out=arg)
        starts = buffer(ws, "starts", arg.shape, np.intp, fill=lambda: np.arange(0, taps.size, k * k))
        np.add(starts, arg, out=take)
        y = np.take(flat.reshape(-1), take, out=buffer(ws, "y", (n, c, oh, ow), x.dtype).reshape(-1))
        return self._quantize_output(y.reshape(n, c, oh, ow), ws)

    def backward(self, grad: np.ndarray, ws=None, need_dx: bool = True) -> Optional[np.ndarray]:
        x_shape, xp_shape, arg, oh, ow = self._saved()
        if not need_dx:
            return None
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        hp, wp = xp_shape[2], xp_shape[3]
        # One flat 1-D scatter (the fast indexed-ufunc path) instead of a
        # broadcast 4-tuple index; iteration order — and therefore float
        # accumulation order per target — is the same C order either way.
        target = buffer(ws, "target", arg.shape, np.intp)
        np.floor_divide(arg, k, out=target)
        target += np.arange(oh, dtype=np.intp)[None, None, :, None] * s
        target += (np.arange(n * c, dtype=np.intp) * hp).reshape(n, c, 1, 1)
        target *= wp
        target += np.remainder(arg, k, out=scratch(ws, arg.shape, np.intp))
        target += np.arange(ow, dtype=np.intp)[None, None, None, :] * s
        dxp = buffer(ws, "dxp", xp_shape, grad.dtype)
        dxp[...] = 0
        np.add.at(dxp.reshape(-1), target.reshape(-1), np.ascontiguousarray(grad).reshape(-1))
        return dxp[:, :, p : p + h, p : p + w]


class AvgPool2D(_Pool2D):
    """Average pooling over the valid (non-padding) part of each window."""

    def forward(self, x: np.ndarray, ws=None) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.pad
        oh, ow, hp, wp = self._geometry(h, w)
        xp = buffer(ws, "xp", (n, c, hp, wp), x.dtype, fill=0)
        xp[:, :, p : p + h, p : p + w] = x  # the border stays 0
        counts = self._valid_counts(x.shape, oh, ow)
        sums = scratch(ws, (n, c, oh, ow), x.dtype)
        if ws is not None and self._exact_tap_sum(ws.in_grid, x.dtype):
            sums[...] = 0.0
            for i in range(k):
                for j in range(k):
                    sums += xp[:, :, i : i + s * oh : s, j : j + s * ow : s]
        else:
            win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
            win[:, :, ::s, ::s][:, :, :oh, :ow].sum(axis=(-1, -2), out=sums)
        quotient = np.divide(sums, counts, out=scratch(ws, sums.shape, np.float64))
        y = buffer(ws, "y", sums.shape, x.dtype)
        np.copyto(y, quotient, casting="same_kind")
        self._cache = (x.shape, xp.shape, counts, oh, ow)
        return self._quantize_output(y, ws)

    def _exact_tap_sum(self, grid, dtype) -> bool:
        """True when every partial window sum is exact, in any order.

        An input on a DFP grid is ``code * 2^-f`` with
        ``|code| <= max_code``, so every partial sum of a window is an
        integer multiple of ``2^-f`` below ``k^2 * max_code * 2^-f``.
        While that fits the float mantissa (float32 below 2^24, float64
        below 2^53, as for the engine's GEMM dtypes) the cheap tap-by-tap
        sum equals the pairwise window sum bit for bit.
        """
        if grid is None or np.dtype(dtype).kind != "f":
            return False
        mantissa = 2 ** (53 if np.dtype(dtype) == np.float64 else 24)
        return self.kernel_size**2 * grid.max_code <= mantissa

    def backward(self, grad: np.ndarray, ws=None, need_dx: bool = True) -> Optional[np.ndarray]:
        x_shape, xp_shape, counts, oh, ow = self._saved()
        if not need_dx:
            return None
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        g = buffer(ws, "grad", grad.shape, np.promote_types(grad.dtype, counts.dtype))
        np.divide(grad, counts, out=g)
        dxp = buffer(ws, "dxp", xp_shape, grad.dtype)
        dxp[...] = 0
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += g
        return dxp[:, :, p : p + h, p : p + w]
