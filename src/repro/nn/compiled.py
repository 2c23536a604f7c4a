"""Compiled training fast path: planned workspaces over the eager layers.

Training is the paper's dominant cost (Algorithm 1 fine-tunes every
MF-DFP network for tens of epochs), yet the eager layer stack re-derives
everything on every step: fresh im2col/col2im allocations per conv per
batch, a new set of quantization temporaries at every DFP boundary, and a
full re-quantization of every master weight tensor on every forward —
including the many validation forwards between which no weight changes.

This module gives training the same treatment
:class:`repro.core.engine.BatchedEngine` gave inference, under one hard
constraint the integer engine never faced: float arithmetic is order
sensitive, so the fast path must *replay the eager op sequence exactly* —
same primitives, same operand layouts, same accumulation orders — and win
by eliminating everything around the arithmetic instead:

* **Planned workspaces.**  A :class:`TrainPlan` is compiled per
  ``(input shape, dtype)`` by tracing one eager batch.  Every im2col
  column block, GEMM output, gradient, scatter target and quantization
  scratch is preallocated once and reused via ``out=`` arguments on the
  steady path; a steady-state training step allocates nothing large.
* **One GEMM formula.**  Each conv kernel issues the very ``np.matmul``
  calls :class:`repro.nn.layers.conv.Conv2D` makes — same operands, same
  layouts, the weight gradient as one merged GEMM per group — only into
  preallocated ``out=`` workspaces, so its float sequence is the eager
  one by construction on every host and BLAS build.
* **Shared gather tables.**  The col2im scatter and the pooling window
  geometry reuse the process-wide geometry-keyed LRU caches of
  :func:`repro.nn.layers.conv.patch_index_table` and
  :func:`repro.nn.layers.pool.pool_valid_counts`; the compiled inference
  engine builds its im2col gather index from the former.
* **Fused quantized fine-tuning.**  DFP activation quantizers are fused
  into in-place kernels (no int64/float64 round-trip allocations), and
  deterministic weight quantizers are memoized on the *identity of the
  master tensor*: the optimizer rebinding ``param.data`` invalidates the
  entry, so training steps requantize exactly the tensors that changed
  while validation sweeps and the per-epoch MF-DFP snapshot requantize
  nothing.  Stochastic hooks are never cached (each call consumes RNG
  state), keeping bit-identity with the eager path.

Fallback rules: the first batch of every plan runs eagerly (it *is* the
trace), layer types without a planned kernel — LRN, Tanh, Sigmoid, any
user-defined layer — are delegated to the eager layer object inside the
plan, and any change to the network's structure or hook objects drops
the plans and recompiles.  ``Trainer(compiled=True)`` (the default) is
therefore always bit-identical to ``compiled=False``; the regression
suite and ``benchmarks/bench_train_throughput.py`` pin loss/val-error
curves and final weights to exact equality.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D, col2im, conv_output_size
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.activations import ReLU
from repro.nn.layers.pool import AvgPool2D, MaxPool2D, pool_output_size, pool_valid_counts
from repro.nn.network import Network


def _hook_is_pure(hook) -> bool:
    from repro.core.quantizer import hook_is_pure  # lazy: core imports nn

    return hook_is_pure(hook)


def _dfp_fmt(hook):
    """The DFP format of a fusable output/input hook, else None."""
    from repro.core.dfp import DFPQuantizer  # lazy: core imports nn

    if type(hook) is DFPQuantizer:
        return hook.fmt
    return None


def _pow2_fused(hook):
    """Allocation-free kernel for a deterministic power-of-two hook.

    Power-of-two quantization is purely elementwise (|w| → the clamped
    nearest exponent, sign reattached), so any implementation of the
    same per-element function is bit-identical regardless of evaluation
    strategy; this one replays the eager chain — float64 log domain,
    ``rint``, clamp, non-finite→``min_exp``, ``exp2``, sign — through
    three persistent buffers instead of the eager path's eight
    temporaries.  Returns None for hooks it cannot prove equivalent.
    """
    from repro.core.pow2 import Pow2WeightQuantizer  # lazy: core imports nn

    if type(hook) is not Pow2WeightQuantizer or hook.mode != "deterministic":
        return None
    min_exp, max_exp = float(hook.min_exp), float(hook.max_exp)

    def quantize(w: np.ndarray, state: list) -> np.ndarray:
        if not state:
            state.extend(
                (
                    np.empty(w.shape, dtype=np.float64),
                    np.empty(w.shape, dtype=bool),
                    np.empty(w.shape, dtype=w.dtype),
                )
            )
        f64, mask, out = state
        np.copyto(f64, w)
        np.abs(f64, out=f64)
        with np.errstate(divide="ignore"):
            np.log2(f64, out=f64)  # |w| = 0 -> -inf
        np.rint(f64, out=f64)
        np.isfinite(f64, out=mask)
        np.clip(f64, min_exp, max_exp, out=f64)
        np.logical_not(mask, out=mask)
        np.copyto(f64, min_exp, where=mask)  # eager: non-finite e -> min_exp
        np.exp2(f64, out=f64)
        np.less(w, 0, out=mask)  # eager sign: -1 iff w < 0 (so -0.0 -> +1)
        np.negative(f64, out=f64, where=mask)
        np.copyto(out, f64, casting="same_kind")
        return out

    return quantize


class QuantizedWeightCache:
    """Memo of quantized master weights, keyed on master-tensor identity.

    The optimizer publishes each update by rebinding ``param.data`` to a
    new array, so object identity of the master tensor is a precise
    change detector: a hit means the master is the very array the cached
    quantization was computed from (the entry keeps a reference, so the
    id can never be recycled while cached).  Only pure hooks are cached
    — see :func:`repro.core.quantizer.hook_is_pure`.

    Misses through a deterministic power-of-two hook recompute through
    :func:`_pow2_fused` into per-layer persistent buffers (bit-identical
    — the function is elementwise — but allocation-free); other pure
    hooks recompute by calling the hook.
    """

    def __init__(self):
        self._entries: dict[int, tuple] = {}
        self._pow2_state: dict[int, list] = {}
        self.hits = 0
        self.misses = 0

    def effective_weight(self, layer: Layer) -> np.ndarray:
        """The weights the forward pass sees, memoized when pure."""
        hook = layer.weight_quantizer
        weight = layer.weight.data
        if hook is None:
            return weight
        if not _hook_is_pure(hook):
            self.misses += 1
            return hook(weight)
        entry = self._entries.get(id(layer))
        if entry is not None and entry[0] is weight and entry[1] is hook:
            self.hits += 1
            return entry[2]
        fused = _pow2_fused(hook)
        if fused is not None:
            quantized = fused(weight, self._pow2_state.setdefault(id(layer), []))
        else:
            quantized = hook(weight)
        self.misses += 1
        self._entries[id(layer)] = (weight, hook, quantized)
        return quantized

    def clear(self) -> None:
        self._entries.clear()
        self._pow2_state.clear()


class _Scratch:
    """Transient per-plan scratch buffers, grown on demand, one per dtype.

    Only values that never survive past the current kernel live here
    (quantization temporaries, inverted masks, pooling sums); anything a
    backward pass reads is a persistent per-layer workspace instead.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def get(self, dtype, shape) -> np.ndarray:
        key = (np.dtype(dtype).str, shape)
        view = self._views.get(key)
        if view is not None:
            return view
        size = int(np.prod(shape))
        buf = self._bufs.get(key[0])
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            self._bufs[key[0]] = buf
            self._views = {k: v for k, v in self._views.items() if k[0] != key[0]}
        view = buf[:size].reshape(shape)
        self._views[key] = view
        return view


def _make_dfp_inplace(fmt, scratch: _Scratch):
    """In-place kernel replaying ``dfp_quantize`` exactly, zero allocations.

    Same chain as the eager hook — float64 scale, ``rint`` and
    saturation in float (:func:`~repro.core.dfp.rint_saturate`), rescale,
    cast back — through a reused scratch buffer.
    """
    from repro.core.dfp import rint_saturate  # lazy: core imports nn

    scale = 2.0 ** fmt.frac
    res = fmt.resolution

    def apply(y: np.ndarray) -> np.ndarray:
        f64 = scratch.get(np.float64, y.shape)
        np.multiply(y, scale, out=f64)
        rint_saturate(f64, fmt.max_code)
        # The codes are exact integers in float64, so this is the same
        # double product and the same final rounding as the eager
        # two-step (codes.astype(f64) * res).astype(x.dtype).
        np.multiply(f64, res, out=y, casting="same_kind")
        return y

    return apply


def _make_out_hook(layer: Layer, scratch: _Scratch):
    """The layer's output-quantization step: fused, delegated, or identity."""
    hook = layer.output_quantizer
    if hook is None:
        return lambda y: y
    fmt = _dfp_fmt(hook)
    if fmt is not None:
        return _make_dfp_inplace(fmt, scratch)
    return lambda y: hook(y)


# -- per-layer kernel builders ----------------------------------------------------
#
# Each builder receives the traced input/output array metadata and
# returns ``(forward, make_backward)``:
#   forward(x, training) -> y                 (workspace-backed, eager-exact)
#   make_backward(gshape, gdtype, need_dx) -> fn
#                                             (built lazily at first backward,
#                                              when the incoming grad is known)
# Builders raise to decline a layer, in which case the plan transparently
# delegates that layer to its eager object.
#
# ``need_dx=False`` is dead-code elimination: the trainer discards the
# gradient with respect to the network *input*, so the first layer's
# backward never has to produce it — for a leading convolution that
# deletes an entire GEMM plus the col2im scatter per step.  Parameter
# gradients are computed identically either way.


def _build_conv(layer: Conv2D, in_meta, out_meta, cache, scratch, in_fmt):
    (n, c, h, w), in_dtype = in_meta
    k, s, p, g = layer.kernel_size, layer.stride, layer.pad, layer.groups
    oh = conv_output_size(h, k, s, p)
    ow = conv_output_size(w, k, s, p)
    out_c = layer.out_channels
    f = out_c // g
    syn = (c // g) * k * k
    pos = oh * ow
    hp, wp = h + 2 * p, w + 2 * p
    w_dtype = layer.weight.data.dtype
    y_dtype = np.result_type(in_dtype, w_dtype)

    pad_ws = np.zeros((n, c, hp, wp), dtype=in_dtype) if p else None
    cols_ws = np.empty((n, c, k, k, oh, ow), dtype=in_dtype)
    cols_g = cols_ws.reshape(n, g, syn, pos)
    y_ws = np.empty((n, g, f, pos), dtype=y_dtype)
    out_hook = _make_out_hook(layer, scratch)
    bias = layer.bias
    wshape = layer.weight.data.shape
    cell: list = [None]  # w_mat of the latest forward, for backward

    def forward(x: np.ndarray, training: bool) -> np.ndarray:
        if pad_ws is not None:
            pad_ws[:, :, p : p + h, p : p + w] = x
            src = pad_ws
        else:
            src = x
        win = sliding_window_view(src, (k, k), axis=(2, 3))
        win = win[:, :, ::s, ::s, :, :][:, :, :oh, :ow, :, :]
        np.copyto(cols_ws, win.transpose(0, 1, 4, 5, 2, 3))
        w_mat = cache.effective_weight(layer).reshape(g, f, syn)
        np.matmul(w_mat[None], cols_g, out=y_ws)
        y = y_ws.reshape(n, out_c, pos)
        if bias is not None:
            y += bias.data[None, :, None]
        cell[0] = w_mat
        return out_hook(y.reshape(n, out_c, oh, ow))

    def make_backward(gshape, gdtype, need_dx):
        gdt = np.dtype(gdtype)
        dw_dtype = np.result_type(gdt, in_dtype)
        dw_ws = np.empty((g, f, syn), dtype=dw_dtype)
        bsum_ws = np.empty((g, f), dtype=gdt) if bias is not None else None
        gr_t_ws = np.empty((g, f, n, pos), dtype=gdt)
        cols_t_ws = np.empty((g, n, pos, syn), dtype=in_dtype)
        if need_dx:
            dcols_dtype = np.result_type(w_dtype, gdt)
            dcols_ws = np.empty((n, g, syn, pos), dtype=dcols_dtype)
            dx_ws = np.empty((n, c, hp, wp), dtype=dcols_dtype)

        def backward(grad: np.ndarray) -> np.ndarray:
            gr = grad.reshape(n, g, f, pos)
            np.copyto(gr_t_ws, gr.transpose(1, 2, 0, 3))
            np.copyto(cols_t_ws, cols_g.transpose(1, 0, 3, 2))
            np.matmul(
                gr_t_ws.reshape(g, f, n * pos), cols_t_ws.reshape(g, n * pos, syn), out=dw_ws
            )
            # Copies, not workspace views: eager backward hands out fresh
            # grad arrays each step, so a caller that keeps param.grad
            # across steps must not see it mutate under the next batch.
            # Parameter-sized copies are noise next to the activations.
            layer.weight.grad = dw_ws.reshape(wshape).astype(w_dtype, copy=True)
            if bias is not None:
                np.sum(gr, axis=(0, 3), out=bsum_ws)
                layer.bias.grad = bsum_ws.reshape(-1).astype(bias.data.dtype, copy=True)
            if not need_dx:
                return None
            np.matmul(cell[0].transpose(0, 2, 1)[None], gr, out=dcols_ws)
            return col2im(dcols_ws.reshape(n, g * syn, pos), (n, c, h, w), k, k, s, p, out=dx_ws)

        return backward

    return forward, make_backward


def _build_dense(layer: Dense, in_meta, out_meta, cache, scratch, in_fmt):
    (n, in_f), in_dtype = in_meta
    if in_f != layer.in_features:
        raise ValueError("traced shape disagrees with layer geometry")
    out_f = layer.out_features
    w_dtype = layer.weight.data.dtype
    y_ws = np.empty((n, out_f), dtype=np.result_type(in_dtype, w_dtype))
    out_hook = _make_out_hook(layer, scratch)
    bias = layer.bias
    cell: list = [None]

    def forward(x: np.ndarray, training: bool) -> np.ndarray:
        wq = cache.effective_weight(layer)
        y = y_ws
        np.matmul(x, wq.T, out=y)
        if bias is not None:
            y += bias.data[None, :]
        cell[0] = (x, wq)
        return out_hook(y)

    def make_backward(gshape, gdtype, need_dx):
        gdt = np.dtype(gdtype)
        dw_ws = np.empty((out_f, in_f), dtype=np.result_type(gdt, in_dtype))
        bsum_ws = np.empty(out_f, dtype=gdt) if bias is not None else None
        if need_dx:
            dx_ws = np.empty((n, in_f), dtype=np.result_type(gdt, w_dtype))

        def backward(grad: np.ndarray) -> np.ndarray:
            x, wq = cell[0]
            np.matmul(grad.T, x, out=dw_ws)
            # Copies for the same reason as the conv builder: param.grad
            # must not be a view of a reused workspace.
            layer.weight.grad = dw_ws.astype(w_dtype, copy=True)
            if bias is not None:
                np.sum(grad, axis=0, out=bsum_ws)
                layer.bias.grad = bsum_ws.astype(bias.data.dtype, copy=True)
            if not need_dx:
                return None
            np.matmul(grad, wq, out=dx_ws)
            return dx_ws

        return backward

    return forward, make_backward


def _build_relu(layer: ReLU, in_meta, out_meta, cache, scratch, in_fmt):
    shape, dtype = in_meta
    mask_ws = np.empty(shape, dtype=bool)  # persists: backward reads it
    y_ws = np.empty(shape, dtype=dtype)
    out_hook = _make_out_hook(layer, scratch)

    def forward(x: np.ndarray, training: bool) -> np.ndarray:
        np.greater(x, 0, out=mask_ws)
        # fmax(x, 0.0) equals where(x > 0, x, 0.0) for *every* input
        # class — x > 0 passes through, x <= 0 and -0.0 give +0.0, and
        # fmax ignores NaN exactly as the False mask does — in one
        # vectorized pass instead of masked fills.
        np.fmax(x, 0.0, out=y_ws)
        return out_hook(y_ws)

    def make_backward(gshape, gdtype, need_dx):
        if not need_dx:
            return lambda grad: None
        g_ws = np.empty(shape, dtype=gdtype)

        def backward(grad: np.ndarray) -> np.ndarray:
            np.multiply(grad, mask_ws, out=g_ws)
            return g_ws

        return backward

    return forward, make_backward


def _pool_geometry(layer, h, w):
    k, s, p = layer.kernel_size, layer.stride, layer.pad
    oh = pool_output_size(h, k, s, p, layer.ceil_mode)
    ow = pool_output_size(w, k, s, p, layer.ceil_mode)
    pad_b = max(0, (oh - 1) * s + k - (h + p))
    pad_r = max(0, (ow - 1) * s + k - (w + p))
    return k, s, p, oh, ow, h + p + pad_b, w + p + pad_r


def _build_maxpool(layer: MaxPool2D, in_meta, out_meta, cache, scratch, in_fmt):
    (n, c, h, w), dtype = in_meta
    k, s, p, oh, ow, hp, wp = _pool_geometry(layer, h, w)
    xp_ws = np.full((n, c, hp, wp), -np.inf, dtype=dtype)  # border stays -inf
    flat_ws = np.empty((n, c, oh, ow, k, k), dtype=dtype)
    flat = flat_ws.reshape(n, c, oh, ow, k * k)
    arg_ws = np.empty((n, c, oh, ow), dtype=np.intp)  # persists: backward reads it
    y_ws = np.empty((n, c, oh, ow), dtype=dtype)
    out_hook = _make_out_hook(layer, scratch)
    # Inference-mode fast path: with a DFP output hook, a tap-by-tap
    # ``np.maximum`` accumulation (no window materialization, no argmax)
    # is bit-identical *post-hook* — a +0.0/-0.0 tie is the only value
    # the max scan order can change, and both cast to code 0; NaN
    # propagates through maximum exactly as through argmax-and-gather.
    # Training forwards always materialize argmax for the backward scatter.
    eval_fast = _dfp_fmt(layer.output_quantizer) is not None

    take_base = np.arange(n * c * oh * ow, dtype=np.intp) * (k * k)

    def forward(x: np.ndarray, training: bool) -> np.ndarray:
        xp_ws[:, :, p : p + h, p : p + w] = x
        if eval_fast and not training:
            y_ws[...] = xp_ws[:, :, : s * oh : s, : s * ow : s]
            for i in range(k):
                for j in range(k):
                    if i or j:
                        np.maximum(
                            y_ws,
                            xp_ws[:, :, i : i + s * oh : s, j : j + s * ow : s],
                            out=y_ws,
                        )
            return out_hook(y_ws)
        # Tap-by-tap strided copies beat one 6-D transposed copyto here
        # (few taps, large contiguous runs); element order per window is
        # the (i, j) order of the eager reshape, so argmax tie-breaking
        # is unchanged.
        for i in range(k):
            for j in range(k):
                flat_ws[:, :, :, :, i, j] = xp_ws[:, :, i : i + s * oh : s, j : j + s * ow : s]
        np.argmax(flat, axis=-1, out=arg_ws)
        take_idx = scratch.get(np.intp, (n * c * oh * ow,))
        np.add(take_base, arg_ws.reshape(-1), out=take_idx)
        np.take(flat.reshape(-1), take_idx, out=y_ws.reshape(-1))
        return out_hook(y_ws)

    rows_base = np.arange(oh, dtype=np.intp)[None, None, :, None] * s
    cols_base = np.arange(ow, dtype=np.intp)[None, None, None, :] * s
    nc_base = (np.arange(n * c, dtype=np.intp) * hp).reshape(n, c, 1, 1)

    def make_backward(gshape, gdtype, need_dx):
        if not need_dx:
            return lambda grad: None
        dxp_ws = np.empty((n, c, hp, wp), dtype=gdtype)
        target_ws = np.empty((n, c, oh, ow), dtype=np.intp)

        def backward(grad: np.ndarray) -> np.ndarray:
            target = target_ws
            np.floor_divide(arg_ws, k, out=target)
            target += rows_base
            target += nc_base
            target *= wp
            rem = scratch.get(np.intp, (n, c, oh, ow))
            np.remainder(arg_ws, k, out=rem)
            target += rem
            target += cols_base
            dxp_ws[...] = 0
            np.add.at(
                dxp_ws.reshape(-1),
                target.reshape(-1),
                np.ascontiguousarray(grad).reshape(-1),
            )
            return dxp_ws[:, :, p : p + h, p : p + w]

        return backward

    return forward, make_backward


def _build_avgpool(layer: AvgPool2D, in_meta, out_meta, cache, scratch, in_fmt):
    (n, c, h, w), dtype = in_meta
    k, s, p, oh, ow, hp, wp = _pool_geometry(layer, h, w)
    counts = pool_valid_counts(h, w, k, s, p, layer.ceil_mode)[None, None]
    xp_ws = np.zeros((n, c, hp, wp), dtype=dtype)  # border stays 0
    y_ws = np.empty((n, c, oh, ow), dtype=dtype)
    out_hook = _make_out_hook(layer, scratch)
    # Exactness-aware kernel selection: when the input arrives from a DFP
    # boundary, every element is code * 2^-f with |code| <= 2^(b-1)-1, so
    # any partial window sum is an integer multiple of 2^-f bounded by
    # k^2 * max_code * 2^-f.  If k^2 * max_code fits the float mantissa,
    # every partial sum is exactly representable and summation order
    # cannot change the result — the cheap tap-by-tap accumulation is
    # bit-identical to the eager pairwise ``win.sum``.  (The same
    # argument the integer engine uses to pick each GEMM's dtype: float32
    # below 2^24, float64 below 2^53.)
    mantissa = 2 ** (53 if np.dtype(dtype) == np.float64 else 24)
    exact = (
        in_fmt is not None
        and np.dtype(dtype).kind == "f"
        and k * k * in_fmt.max_code <= mantissa
    )

    def forward(x: np.ndarray, training: bool) -> np.ndarray:
        xp_ws[:, :, p : p + h, p : p + w] = x
        sums = scratch.get(dtype, (n, c, oh, ow))
        if exact:
            sums[...] = 0.0
            for i in range(k):
                for j in range(k):
                    sums += xp_ws[:, :, i : i + s * oh : s, j : j + s * ow : s]
        else:
            win = sliding_window_view(xp_ws, (k, k), axis=(2, 3))[:, :, ::s, ::s][:, :, :oh, :ow]
            win.sum(axis=(-1, -2), out=sums)
        f64 = scratch.get(np.float64, (n, c, oh, ow))
        np.divide(sums, counts, out=f64)
        np.copyto(y_ws, f64, casting="same_kind")
        return out_hook(y_ws)

    def make_backward(gshape, gdtype, need_dx):
        if not need_dx:
            return lambda grad: None
        g64_ws = np.empty((n, c, oh, ow), dtype=np.float64)
        dxp_ws = np.empty((n, c, hp, wp), dtype=gdtype)

        def backward(grad: np.ndarray) -> np.ndarray:
            np.divide(grad, counts, out=g64_ws)
            dxp_ws[...] = 0
            for i in range(k):
                for j in range(k):
                    dxp_ws[:, :, i : i + s * oh : s, j : j + s * ow : s] += g64_ws
            return dxp_ws[:, :, p : p + h, p : p + w]

        return backward

    return forward, make_backward


def _build_flatten(layer: Flatten, in_meta, out_meta, cache, scratch, in_fmt):
    shape, dtype = in_meta
    n = shape[0]
    features = int(np.prod(shape[1:]))
    out_hook = _make_out_hook(layer, scratch)

    def forward(x: np.ndarray, training: bool) -> np.ndarray:
        return out_hook(x.reshape(n, features))

    def make_backward(gshape, gdtype, need_dx):
        if not need_dx:
            return lambda grad: None

        def backward(grad: np.ndarray) -> np.ndarray:
            return grad.reshape(shape)

        return backward

    return forward, make_backward


def _build_dropout(layer: Dropout, in_meta, out_meta, cache, scratch, in_fmt):
    shape, dtype = in_meta
    mask_ws = np.empty(shape, dtype=dtype)  # persists: backward reads it
    y_ws = np.empty(shape, dtype=dtype)
    out_hook = _make_out_hook(layer, scratch)
    active: list = [False]

    def forward(x: np.ndarray, training: bool) -> np.ndarray:
        keep = 1.0 - layer.p  # read live: mutating layer.p mid-training works
        if not training or layer.p == 0.0:
            active[0] = False
            return out_hook(x)
        active[0] = True
        r64 = scratch.get(np.float64, shape)
        layer.rng.random(out=r64)
        keep_mask = scratch.get(bool, shape)
        np.less(r64, keep, out=keep_mask)
        m64 = scratch.get(np.float64, shape)
        np.divide(keep_mask, keep, out=m64)
        np.copyto(mask_ws, m64, casting="same_kind")
        np.multiply(x, mask_ws, out=y_ws)
        return out_hook(y_ws)

    def make_backward(gshape, gdtype, need_dx):
        if not need_dx:
            return lambda grad: None
        g_ws = np.empty(shape, dtype=gdtype)

        def backward(grad: np.ndarray) -> np.ndarray:
            if not active[0]:
                return grad
            np.multiply(grad, mask_ws, out=g_ws)
            return g_ws

        return backward

    return forward, make_backward


#: Exact-type dispatch: subclasses may override semantics, so they are
#: delegated to their eager objects instead of silently planned.
_BUILDERS = {
    Conv2D: _build_conv,
    Dense: _build_dense,
    ReLU: _build_relu,
    MaxPool2D: _build_maxpool,
    AvgPool2D: _build_avgpool,
    Flatten: _build_flatten,
    Dropout: _build_dropout,
}


class _Step:
    """One planned layer: its kernels plus profiling accumulators."""

    __slots__ = (
        "layer",
        "name",
        "kind",
        "delegated",
        "fwd",
        "make_bwd",
        "bwd",
        "fwd_s",
        "bwd_s",
        "fwd_calls",
        "bwd_calls",
    )

    def __init__(self, layer: Layer):
        self.layer = layer
        self.name = layer.name
        self.kind = type(layer).__name__
        self.delegated = False
        self.fwd: Optional[Callable] = None
        self.make_bwd: Optional[Callable] = None
        self.bwd: Optional[Callable] = None
        self.fwd_s = 0.0
        self.bwd_s = 0.0
        self.fwd_calls = 0
        self.bwd_calls = 0


class TrainPlan:
    """A compiled forward/backward program for one ``(shape, dtype)``.

    Built by *tracing*: the first batch runs through the eager layers
    (recording every intermediate array's shape and dtype — and serving
    as that step's bit-exact execution), after which per-layer kernels
    with preallocated workspaces replay the identical op sequence.
    Backward kernels are created lazily on the first backward pass, when
    the incoming gradient's dtype is known.
    """

    def __init__(self, net: Network, cache: QuantizedWeightCache, profile: bool = False):
        self.net = net
        self.cache = cache
        self.profile = profile
        self.scratch = _Scratch()
        self.steps: Optional[list[_Step]] = None
        self.input_fn: Optional[Callable] = None
        self.delegated_layers: list[str] = []
        self._cells_ready = False  # True once a compiled forward populated cells

    # -- compilation -------------------------------------------------------
    def _build_input(self, x_meta):
        hook = self.net.input_quantizer
        if hook is None:
            return None
        fmt = _dfp_fmt(hook)
        if fmt is None:
            return lambda x: hook(x)
        shape, dtype = x_meta
        in_ws = np.empty(shape, dtype=dtype)
        fused = _make_dfp_inplace(fmt, self.scratch)

        def quantize_input(x: np.ndarray) -> np.ndarray:
            np.copyto(in_ws, x)
            return fused(in_ws)

        return quantize_input

    def _trace_forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Eager forward that doubles as the compile pass."""
        net = self.net
        out = x
        if net.input_quantizer is not None:
            out = net.input_quantizer(out)
        self.input_fn = self._build_input((out.shape, out.dtype))
        steps = []
        in_fmt = _dfp_fmt(net.input_quantizer)
        for layer in net.layers:
            step = _Step(layer)
            in_meta = (out.shape, out.dtype)
            out = layer.forward(out)
            builder = _BUILDERS.get(type(layer))
            if builder is not None:
                try:
                    step.fwd, step.make_bwd = builder(
                        layer, in_meta, (out.shape, out.dtype), self.cache, self.scratch, in_fmt
                    )
                except Exception:
                    builder = None
            if builder is None:
                step.delegated = True
                step.fwd = lambda x, training, _l=layer: _l.forward(x)
                step.make_bwd = lambda gshape, gdtype, need_dx, _l=layer: _l.backward
                self.delegated_layers.append(layer.name)
            in_fmt = _dfp_fmt(layer.output_quantizer)
            steps.append(step)
        self.steps = steps
        self._cells_ready = False
        return out

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self.net.set_training(training)
        if self.steps is None:
            return self._trace_forward(x, training)  # trace step, not profiled
        if self.input_fn is not None:
            x = self.input_fn(x)
        self._cells_ready = True
        if self.profile:
            for step in self.steps:
                t0 = time.perf_counter()
                x = step.fwd(x, training)
                step.fwd_s += time.perf_counter() - t0
                step.fwd_calls += 1
            return x
        for step in self.steps:
            x = step.fwd(x, training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.steps is None:
            raise RuntimeError("backward called before forward")
        eager = not self._cells_ready  # the trace batch: layer caches are eager
        first = self.steps[0]
        for step in reversed(self.steps):
            if step.bwd is None:
                # The first layer's input gradient is dead code: the
                # trainer never consumes dL/dinput.
                step.bwd = step.make_bwd(grad.shape, grad.dtype, step is not first)
            fn = step.layer.backward if eager else step.bwd
            if self.profile:
                t0 = time.perf_counter()
                grad = fn(grad)
                step.bwd_s += time.perf_counter() - t0
                step.bwd_calls += 1
            else:
                grad = fn(grad)
        return grad


class CompiledTrainer:
    """Compiled training executor for one :class:`Network`.

    Owns one :class:`TrainPlan` per distinct input ``(shape, dtype)``
    (the full training batch, the trailing partial batch, and each
    evaluation batch size get their own plans and workspaces) plus the
    shared :class:`QuantizedWeightCache`.  A cheap structural signature
    — layer and hook object identities and hook parameters — is checked
    on every forward; any change drops the plans and recompiles, so
    mutating quantization hooks mid-training stays correct.

    All execution is bit-identical to the eager ``Network`` path by
    construction; see the module docstring for the argument.
    """

    def __init__(self, net: Network, profile: bool = False):
        self.net = net
        self.profile = profile
        self.quant_cache = QuantizedWeightCache()
        self._plans: dict[tuple, TrainPlan] = {}
        self._last_plan: Optional[TrainPlan] = None
        self._signature = self._net_signature()

    def _net_signature(self) -> tuple:
        net = self.net
        iq = net.input_quantizer
        sig = [id(iq), getattr(iq, "fmt", None)]
        for layer in net.layers:
            wq, oq = layer.weight_quantizer, layer.output_quantizer
            sig.append(
                (
                    id(layer),
                    id(wq),
                    id(oq),
                    getattr(wq, "mode", None),
                    getattr(wq, "min_exp", None),
                    getattr(wq, "max_exp", None),
                    getattr(oq, "fmt", None),
                )
            )
        return tuple(sig)

    def _invalidate_if_changed(self) -> None:
        sig = self._net_signature()
        if sig != self._signature:
            self._plans.clear()
            self.quant_cache.clear()
            self._signature = sig

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the network on a batch (bit-identical to ``net.forward``)."""
        x = np.asarray(x)
        self._invalidate_if_changed()
        key = (x.shape, x.dtype.str)
        plan = self._plans.get(key)
        if plan is None:
            plan = TrainPlan(self.net, self.quant_cache, profile=self.profile)
            self._plans[key] = plan
        self._last_plan = plan
        return plan.forward(x, training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate through the most recent forward's plan."""
        if self._last_plan is None:
            raise RuntimeError("backward called before forward")
        return self._last_plan.backward(grad)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (mirrors ``Network.logits``)."""
        return self.forward(x, training=False)

    # -- introspection -----------------------------------------------------
    def quantized_weights(self) -> dict[str, np.ndarray]:
        """Weights as the forward pass sees them, served from the cache.

        Bit-identical to ``MFDFPNetwork.quantized_weights`` but
        requantizes only tensors whose master changed since the cache
        last saw them — after an epoch's validation sweep, a snapshot is
        pure cache hits.  Returned arrays are shared with the cache;
        copy before mutating.
        """
        out = {}
        for layer in self.net.layers:
            if getattr(layer, "weight", None) is not None:
                out[layer.name] = self.quant_cache.effective_weight(layer)
            else:
                w = layer.effective_weight()
                if w is not None:
                    out[layer.name] = w
        return out

    def plan_count(self) -> int:
        return len(self._plans)

    def profile_rows(self) -> list[dict]:
        """Per-layer forward/backward seconds, aggregated over all plans."""
        by_name: dict[str, dict] = {}
        for plan in self._plans.values():
            for step in plan.steps or []:
                row = by_name.setdefault(
                    step.name,
                    {
                        "layer": step.name,
                        "kind": step.kind,
                        "delegated": step.delegated,
                        "forward_s": 0.0,
                        "backward_s": 0.0,
                        "calls": 0,
                    },
                )
                row["forward_s"] += step.fwd_s
                row["backward_s"] += step.bwd_s
                row["calls"] += step.fwd_calls
        order = {layer.name: i for i, layer in enumerate(self.net.layers)}
        return sorted(by_name.values(), key=lambda r: order.get(r["layer"], 1 << 30))


def format_profile(rows: list[dict]) -> str:
    """Render :meth:`CompiledTrainer.profile_rows` as a table."""
    lines = [f"{'layer':<14}{'kind':<14}{'fwd s':>10}{'bwd s':>10}{'total s':>10}  note"]
    lines.append("-" * len(lines[0]))
    total_f = total_b = 0.0
    for row in rows:
        total_f += row["forward_s"]
        total_b += row["backward_s"]
        note = "eager (delegated)" if row.get("delegated") else ""
        lines.append(
            f"{row['layer']:<14}{row['kind']:<14}{row['forward_s']:>10.4f}"
            f"{row['backward_s']:>10.4f}{row['forward_s'] + row['backward_s']:>10.4f}  {note}"
        )
    lines.append(
        f"{'total':<28}{total_f:>10.4f}{total_b:>10.4f}{total_f + total_b:>10.4f}"
    )
    return "\n".join(lines)
