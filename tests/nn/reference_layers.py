"""A frozen reference for the seven planned training layers.

These classes copy the float arithmetic of ``Conv2D``, ``Dense``,
``ReLU``, ``MaxPool2D``, ``AvgPool2D``, ``Flatten`` and ``Dropout`` as
the eager layers computed it before the compiled trainer and the eager
stack shared one implementation: the im2col lowering, the merged
weight-gradient GEMM, the flat ``np.add.at`` col2im and max-pool
scatters, the padded pooling windows and the valid-count divisor.

They import nothing from ``repro.nn.layers`` but :class:`Layer`, so a
change to the shipped kernels cannot change them too.
:func:`referencify` swaps them into a built network in place; the
swapped layers keep their weights, geometry and hooks.  Exact-type plan
dispatch then runs them through their plain ``forward(x)`` and
``backward(grad)`` on either trainer path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["REFERENCE_CLASSES", "referencify"]


# -- conv lowering ---------------------------------------------------------------
def conv_output_size(size, kernel, stride, pad):
    return (size + 2 * pad - kernel) // stride + 1


def im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    windows = windows[:, :, :out_h, :out_w, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im(cols, x_shape, kh, kw, stride, pad):
    """Flat ``np.add.at`` scatter; each target sums its taps in tap order."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    span = c * hp * wp
    grid = np.arange(span).reshape(1, c, hp, wp)
    index = im2col(grid, kh, kw, stride, 0)[0][0].astype(np.intp)
    combined = (np.arange(n, dtype=np.intp)[:, None, None] * span + index[None]).reshape(-1)
    dx = np.zeros((n, span), dtype=cols.dtype)
    np.add.at(dx.reshape(-1), combined, np.ascontiguousarray(cols).reshape(-1))
    dx = dx.reshape(n, c, hp, wp)
    if pad:
        dx = dx[:, :, pad : hp - pad, pad : wp - pad]
    return dx


# -- pooling windows -------------------------------------------------------------
def pool_output_size(size, kernel, stride, pad, ceil_mode):
    num = size + 2 * pad - kernel
    out = (math.ceil(num / stride) if ceil_mode else num // stride) + 1
    if (out - 1) * stride >= size + pad:
        out -= 1
    return out


def pool_windows(layer, x, fill):
    n, c, h, w = x.shape
    k, s, p = layer.kernel_size, layer.stride, layer.pad
    oh = pool_output_size(h, k, s, p, layer.ceil_mode)
    ow = pool_output_size(w, k, s, p, layer.ceil_mode)
    pad_b = max(0, (oh - 1) * s + k - (h + p))
    pad_r = max(0, (ow - 1) * s + k - (w + p))
    xp = np.pad(x, ((0, 0), (0, 0), (p, pad_b), (p, pad_r)), constant_values=fill)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::s, ::s, :, :][:, :, :oh, :ow]
    return win, xp.shape, oh, ow


def pool_valid_counts(layer, h, w):
    win, _, _, _ = pool_windows(layer, np.ones((1, 1, h, w), dtype=np.float64), 0.0)
    return win.sum(axis=(-1, -2))[0, 0]


# -- layers ----------------------------------------------------------------------
class _Weighted(Layer):
    @property
    def params(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def effective_weight(self):
        w = self.weight.data
        if self.weight_quantizer is not None:
            w = self.weight_quantizer(w)
        return w


class RefConv2D(_Weighted):
    def forward(self, x):
        n = x.shape[0]
        k, s, p, g = self.kernel_size, self.stride, self.pad, self.groups
        w = self.effective_weight()
        cols, out_h, out_w = im2col(x, k, k, s, p)
        syn = (self.in_channels // g) * k * k
        cols_g = cols.reshape(n, g, syn, -1)
        w_mat = w.reshape(g, self.out_channels // g, syn)
        y = np.matmul(w_mat[None], cols_g).reshape(n, self.out_channels, -1)
        if self.bias is not None:
            y += self.bias.data[None, :, None]
        self._ref = (x.shape, cols_g, w_mat)
        return self._quantize_output(y.reshape(n, self.out_channels, out_h, out_w))

    def backward(self, grad):
        x_shape, cols_g, w_mat = self._ref
        n = grad.shape[0]
        k, s, p, g = self.kernel_size, self.stride, self.pad, self.groups
        gr = grad.reshape(n, g, self.out_channels // g, -1)
        pos = gr.shape[-1]
        gr_t = np.ascontiguousarray(gr.transpose(1, 2, 0, 3)).reshape(g, -1, n * pos)
        cols_t = np.ascontiguousarray(cols_g.transpose(1, 0, 3, 2)).reshape(g, n * pos, -1)
        dw = np.matmul(gr_t, cols_t)
        self.weight.grad = dw.reshape(self.weight.data.shape).astype(self.weight.data.dtype)
        if self.bias is not None:
            self.bias.grad = gr.sum(axis=(0, 3)).reshape(-1).astype(self.bias.data.dtype)
        dcols = np.matmul(w_mat.transpose(0, 2, 1)[None], gr).reshape(n, -1, pos)
        return col2im(dcols, x_shape, k, k, s, p)


class RefDense(_Weighted):
    def forward(self, x):
        w = self.effective_weight()
        y = x @ w.T
        if self.bias is not None:
            y += self.bias.data[None, :]
        self._ref = (x, w)
        return self._quantize_output(y)

    def backward(self, grad):
        x, w = self._ref
        self.weight.grad = (grad.T @ x).astype(self.weight.data.dtype)
        if self.bias is not None:
            self.bias.grad = grad.sum(axis=0).astype(self.bias.data.dtype)
        return grad @ w


class RefReLU(Layer):
    def forward(self, x):
        mask = x > 0
        self._ref = mask
        return self._quantize_output(np.where(mask, x, 0.0).astype(x.dtype, copy=False))

    def backward(self, grad):
        return grad * self._ref


class RefMaxPool2D(Layer):
    def forward(self, x):
        win, xp_shape, oh, ow = pool_windows(self, x, -np.inf)
        k = self.kernel_size
        flat = win.reshape(*win.shape[:4], k * k)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        self._ref = (x.shape, xp_shape, arg, oh, ow)
        return self._quantize_output(np.ascontiguousarray(out))

    def backward(self, grad):
        x_shape, xp_shape, arg, oh, ow = self._ref
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        hp, wp = xp_shape[2], xp_shape[3]
        rows = np.arange(oh, dtype=np.intp)[None, None, :, None] * s + arg // k
        cols = np.arange(ow, dtype=np.intp)[None, None, None, :] * s + arg % k
        base = (np.arange(n * c, dtype=np.intp) * hp).reshape(n, c, 1, 1)
        target = (base + rows) * wp + cols
        dxp = np.zeros(xp_shape, dtype=grad.dtype)
        np.add.at(dxp.reshape(-1), target.reshape(-1), np.ascontiguousarray(grad).reshape(-1))
        return dxp[:, :, p : p + h, p : p + w]


class RefAvgPool2D(Layer):
    def forward(self, x):
        win, xp_shape, oh, ow = pool_windows(self, x, 0.0)
        counts = pool_valid_counts(self, x.shape[2], x.shape[3])
        out = win.sum(axis=(-1, -2)) / counts[None, None]
        self._ref = (x.shape, xp_shape, counts, oh, ow)
        return self._quantize_output(out.astype(x.dtype, copy=False))

    def backward(self, grad):
        x_shape, xp_shape, counts, oh, ow = self._ref
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        g = grad / counts[None, None]
        dxp = np.zeros(xp_shape, dtype=grad.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += g
        return dxp[:, :, p : p + h, p : p + w]


class RefFlatten(Layer):
    def forward(self, x):
        self._ref = x.shape
        return self._quantize_output(x.reshape(x.shape[0], -1))

    def backward(self, grad):
        return grad.reshape(self._ref)


class RefDropout(Layer):
    def forward(self, x):
        if not self.training or self.p == 0.0:
            self._ref = None
            return self._quantize_output(x)
        keep = 1.0 - self.p
        self._ref = ((self.rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
        return self._quantize_output((x * self._ref).astype(x.dtype, copy=False))

    def backward(self, grad):
        if self._ref is None:
            return grad
        return grad * self._ref


#: Shipped class name -> reference class.  Keyed by name so this module
#: needs no import of the classes it stands in for.
REFERENCE_CLASSES = {
    "Conv2D": RefConv2D,
    "Dense": RefDense,
    "ReLU": RefReLU,
    "MaxPool2D": RefMaxPool2D,
    "AvgPool2D": RefAvgPool2D,
    "Flatten": RefFlatten,
    "Dropout": RefDropout,
}


def referencify(net):
    """Swap every planned layer of ``net`` for its reference class, in place."""
    for layer in net.layers:
        ref = REFERENCE_CLASSES.get(type(layer).__name__)
        if ref is None:
            raise TypeError(f"no reference for layer type {type(layer).__name__}")
        layer.__class__ = ref
    return net
