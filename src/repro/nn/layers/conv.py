"""2-D convolution layer with im2col lowering.

The convolution is lowered to a matrix multiplication via ``im2col``, the
same strategy Caffe uses; ``col2im`` scatters gradients back.  Data layout
is NCHW throughout.  This is the only implementation of the layer's
arithmetic: the compiled training path (:mod:`repro.nn.compiled`) runs
these same methods with a plan's workspace, which only decides where
each array lives.  A plan's inference forward lowers a block of samples
at a time (:data:`INFERENCE_BLOCK_BYTES`) into the plan's scratch, with
the same per-sample GEMMs as the whole-batch lowering.

Patch geometry is shared infrastructure: :func:`patch_index_table` builds
the flat gather/scatter index tables that both ``col2im`` here and the
compiled inference engine's im2col gather table
(:mod:`repro.core.engine`) are derived from, memoized per geometry.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

import numpy as np

from repro.nn.initializers import resolve_initializer
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.workspace import buffer, scratch


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution (floor mode, as in Caffe)."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size: "
            f"input={size}, kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


#: Byte budget of one im2col block in a planned inference forward: a
#: block holds as many samples' columns as fit, at least one.
INFERENCE_BLOCK_BYTES = 256 * 1024


def inference_block(sample_bytes: int) -> int:
    """Samples per im2col block when one sample's columns take ``sample_bytes``."""
    return max(1, INFERENCE_BLOCK_BYTES // sample_bytes)


def _patches(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws=None):
    """The im2col operand as a view: ``(windows, out_h, out_w)``.

    ``windows`` has shape ``(N, C, kh, kw, out_h, out_w)`` and reads the
    input, or its zero-padded copy in ``ws`` (or a new one) when ``pad``
    is set; copying it into a C-contiguous array gives the columns.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad:
        xp = buffer(ws, "im2col.pad", (n, c, h + 2 * pad, w + 2 * pad), x.dtype, fill=0)
        xp[:, :, pad : pad + h, pad : pad + w] = x  # the border stays zero
        x = xp
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :][:, :, :out_h, :out_w, :, :]
    return windows.transpose(0, 1, 4, 5, 2, 3), out_h, out_w


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws=None):
    """Lower input patches to columns.

    Args:
        x: Input of shape ``(N, C, H, W)``.
        kh, kw: Kernel height and width.
        stride: Stride (same in both dimensions).
        pad: Zero padding (same on all sides).
        ws: Optional workspace holding the padded input and the columns.

    Returns:
        ``(cols, out_h, out_w)`` where ``cols`` is C-contiguous with
        shape ``(N, C*kh*kw, out_h*out_w)``.
    """
    windows, out_h, out_w = _patches(x, kh, kw, stride, pad, ws)
    cols = buffer(ws, "im2col.cols", windows.shape, x.dtype)
    np.copyto(cols, windows)
    n, c = x.shape[:2]
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


@functools.lru_cache(maxsize=256)
def patch_index_table(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int, sentinel: bool = False
):
    """Flat patch-index table for one convolution geometry, memoized.

    Returns ``(index, out_h, out_w)`` where ``index`` has shape
    ``(c*kh*kw, out_h*out_w)``: entry ``[t, p]`` is the flat position the
    ``t``-th kernel tap of output position ``p`` reads from (gather) or
    writes to (scatter).

    With ``sentinel=False`` positions index the flattened *padded* input
    ``(c*(h+2*pad)*(w+2*pad),)`` — the scatter space of :func:`col2im`.
    With ``sentinel=True`` they index the flattened unpadded input plus
    one trailing slot ``c*h*w`` holding the padding value — the gather
    space of the compiled inference engine
    (:mod:`repro.core.engine` derives its im2col tables here).

    The table depends only on geometry, so it is cached process-wide and
    returned read-only: every caller shares one frozen array.
    """
    hp, wp = h + 2 * pad, w + 2 * pad
    if sentinel:
        fill = c * h * w
        grid = np.full((1, c, hp, wp), fill, dtype=np.int64)
        grid[0, :, pad : pad + h, pad : pad + w] = np.arange(fill).reshape(c, h, w)
    else:
        grid = np.arange(c * hp * wp).reshape(1, c, hp, wp)
    cols, out_h, out_w = im2col(grid, kh, kw, stride, 0)
    index = cols[0].astype(np.intp)
    index.setflags(write=False)
    return index, out_h, out_w


#: Above this many scatter slots (``n * c*kh*kw * out_h*out_w``) col2im
#: stops caching a batch-combined index and loops over samples instead,
#: bounding cache memory for very large batches.
_COL2IM_COMBINED_LIMIT = 1 << 24


@functools.lru_cache(maxsize=8)
def _col2im_batch_index(
    n: int, c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Batch-combined flat scatter index for col2im, memoized.

    Extends the geometry table of :func:`patch_index_table` across the
    batch axis so the whole scatter is a single 1-D ``np.add.at`` (the
    fast indexed-ufunc path).  Keyed by batch size as well as geometry;
    the small LRU bounds memory, and callers above
    :data:`_COL2IM_COMBINED_LIMIT` slots never reach this cache.
    """
    index, _, _ = patch_index_table(c, h, w, kh, kw, stride, pad)
    span = c * (h + 2 * pad) * (w + 2 * pad)
    combined = (np.arange(n, dtype=np.intp)[:, None, None] * span + index[None]).reshape(-1)
    combined.setflags(write=False)
    return combined


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scatter columns back to an input-shaped tensor (adjoint of im2col).

    Implemented as a flat-index ``np.add.at`` scatter over the cached
    :func:`patch_index_table` rather than a ``kh*kw`` Python loop.
    Contributions land per target element in kernel-tap order — exactly
    the order the historical per-tap loop added them — so results are
    bit-identical for every float dtype.

    ``out``, if given, is a C-contiguous ``(n, c, h+2*pad, w+2*pad)``
    workspace reused for the padded scatter target (the compiled
    training path passes one per plan); the returned array is its
    unpadded interior view.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.ascontiguousarray(cols).reshape(n, -1)
    span = c * hp * wp
    if out is None:
        dx = np.zeros((n, span), dtype=cols.dtype)
    else:
        if out.shape != (n, c, hp, wp) or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous (n, c, h+2p, w+2p) array")
        if out.dtype != cols.dtype:
            raise ValueError(f"out dtype {out.dtype} != cols dtype {cols.dtype}")
        dx = out.reshape(n, span)
        dx[...] = 0
    if n * flat.shape[1] <= _COL2IM_COMBINED_LIMIT:
        np.add.at(
            dx.reshape(-1), _col2im_batch_index(n, c, h, w, kh, kw, stride, pad), flat.reshape(-1)
        )
    else:
        index = patch_index_table(c, h, w, kh, kw, stride, pad)[0].reshape(-1)
        for i in range(n):
            np.add.at(dx[i], index, flat[i])
    dx = dx.reshape(n, c, hp, wp)
    if pad:
        dx = dx[:, :, pad : hp - pad, pad : wp - pad]
    return dx


class Conv2D(Layer):
    """2-D convolution: ``y = W * x + b`` over sliding windows.

    Args:
        in_channels: Number of input feature maps.
        out_channels: Number of kernels / output feature maps.
        kernel_size: Side length of the (square) kernel.
        stride: Spatial stride.
        pad: Zero padding on each side.
        groups: Grouped convolution: input and output channels are split
            into ``groups`` independent blocks (AlexNet's original
            two-column convolutions use ``groups=2``).
        bias: Whether to add a per-output-channel scalar bias.
        weight_init: Initializer name or callable for the kernels.
        dtype: Parameter dtype (float64 useful for gradient checks).
        rng: ``numpy.random.Generator`` used for initialization.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        groups: int = 1,
        bias: bool = True,
        weight_init: Union[str, callable] = "he",
        dtype=np.float32,
        rng: Optional[np.random.Generator] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (documented deterministic init default; golden weight digests depend on it)
        if groups < 1 or in_channels % groups or out_channels % groups:
            raise ValueError(
                f"groups={groups} must divide in_channels={in_channels} "
                f"and out_channels={out_channels}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        fan_out = (out_channels // groups) * kernel_size * kernel_size
        init = resolve_initializer(weight_init)
        wshape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init(wshape, fan_in, fan_out, rng, dtype), f"{self.name}.weight")
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype), f"{self.name}.bias") if bias else None

    @property
    def params(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def effective_weight(self) -> np.ndarray:
        w = self.weight.data
        if self.weight_quantizer is not None:
            w = self.weight_quantizer(w)
        return w

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        k, s, p = self.kernel_size, self.stride, self.pad
        return (self.out_channels, conv_output_size(h, k, s, p), conv_output_size(w, k, s, p))

    def forward(self, x: np.ndarray, ws=None) -> np.ndarray:
        n = x.shape[0]
        k, s, p = self.kernel_size, self.stride, self.pad
        g, f = self.groups, self.out_channels // self.groups
        w = self.effective_weight() if ws is None else ws.weight()
        syn = (self.in_channels // g) * k * k
        w_mat = w.reshape(g, f, syn)
        if self._inference(ws):
            y, out_h, out_w = self._blocked_gemms(x, w_mat, ws)
        else:
            cols, out_h, out_w = im2col(x, k, k, s, p, ws)
            # im2col rows are channel-major, so group slicing is contiguous
            cols_g = cols.reshape(n, g, syn, out_h * out_w)
            y = buffer(ws, "y", (n, g, f, out_h * out_w), np.promote_types(x.dtype, w.dtype))
            np.matmul(w_mat[None], cols_g, out=y)
            self._cache = (x.shape, cols_g, w_mat)
        y = y.reshape(n, self.out_channels, out_h * out_w)
        if self.bias is not None:
            y += self.bias.data[None, :, None]
        return self._quantize_output(y.reshape(n, self.out_channels, out_h, out_w), ws)

    def _blocked_gemms(self, x: np.ndarray, w_mat: np.ndarray, ws):
        """A plan's inference GEMMs, lowering a block of samples at a time.

        Each block's columns go to the plan's scratch, so the whole
        batch's columns never exist at once.  Every sample's GEMM is the
        same call on the same columns as in the whole-batch lowering, so
        the output is bit-identical for every block size.
        """
        n = x.shape[0]
        k = self.kernel_size
        g, f, syn = w_mat.shape
        windows, out_h, out_w = _patches(x, k, k, self.stride, self.pad, ws)
        pos = out_h * out_w
        y = ws.buffer("y", (n, g, f, pos), np.promote_types(x.dtype, w_mat.dtype))
        step = inference_block(g * syn * pos * x.itemsize)
        for lo in range(0, n, step):
            block = windows[lo : lo + step]
            cols = scratch(ws, block.shape, x.dtype)
            np.copyto(cols, block)
            np.matmul(w_mat[None], cols.reshape(len(cols), g, syn, pos), out=y[lo : lo + step])
        return y, out_h, out_w

    def backward(self, grad: np.ndarray, ws=None, need_dx: bool = True) -> Optional[np.ndarray]:
        x_shape, cols_g, w_mat = self._saved()
        n = grad.shape[0]
        k, s, p = self.kernel_size, self.stride, self.pad
        g, f, syn = w_mat.shape
        gr = grad.reshape(n, g, f, -1)
        pos = gr.shape[-1]
        # dw contracts over batch and position together: one GEMM per
        # group over contiguous (g, f, n*pos) and (g, n*pos, syn) copies.
        gr_t = buffer(ws, "grad_t", (g, f, n, pos), grad.dtype)
        np.copyto(gr_t, gr.transpose(1, 2, 0, 3))
        cols_t = buffer(ws, "cols_t", (g, n, pos, syn), cols_g.dtype)
        np.copyto(cols_t, cols_g.transpose(1, 0, 3, 2))
        dw = buffer(ws, "dw", (g, f, syn), np.promote_types(grad.dtype, cols_g.dtype))
        np.matmul(gr_t.reshape(g, f, n * pos), cols_t.reshape(g, n * pos, syn), out=dw)
        # A plan's grads are copies: a caller keeping param.grad across
        # steps must not see it change under the next batch.
        keep = ws is not None
        self.weight.grad = dw.reshape(self.weight.data.shape).astype(
            self.weight.data.dtype, copy=keep
        )
        if self.bias is not None:
            db = np.sum(gr, axis=(0, 3), out=buffer(ws, "db", (g, f), grad.dtype))
            self.bias.grad = db.reshape(-1).astype(self.bias.data.dtype, copy=keep)
        if not need_dx:
            return None
        dcols = buffer(ws, "dcols", (n, g, syn, pos), np.promote_types(w_mat.dtype, grad.dtype))
        np.matmul(w_mat.transpose(0, 2, 1)[None], gr, out=dcols)
        n, c, h, w = x_shape
        dx = None if ws is None else ws.buffer("dx", (n, c, h + 2 * p, w + 2 * p), dcols.dtype)
        return col2im(dcols.reshape(n, g * syn, pos), x_shape, k, k, s, p, out=dx)

    def macs(self, input_shape: tuple) -> int:
        """Multiply-accumulate count for one sample of ``input_shape``."""
        _, out_h, out_w = self.output_shape(input_shape)
        per_output = (self.in_channels // self.groups) * self.kernel_size * self.kernel_size
        return self.out_channels * out_h * out_w * per_output
