"""Batched integer inference engine for deployed MF-DFP networks.

A :class:`repro.core.mfdfp.DeployedMFDFP` can be executed two ways, both
bit-identical (every activation an integer code, every multiply a shift,
round-half-to-even exactly as in the RTL datapath):

* the **reference path** (:func:`execute_deployed`) re-derives everything
  on every call — it decodes the 4-bit weight codes, lowers convolutions
  through :func:`repro.nn.layers.conv.im2col`, and rebuilds pooling
  windows each time.  It is the executable specification the hardware
  tests verify against.
* the **compiled path** (:class:`BatchedEngine`) front-loads all of that
  work once per network: weight codes become shift multipliers through
  a 16-entry LUT (:data:`SHIFT_LUT`), scaled by the op's power-of-two
  route so a GEMM sums straight onto the output grid, im2col becomes a
  precomputed gather-index table whose operand is gathered and
  multiplied in cache-sized blocks of output rows (:data:`BLOCK_BYTES`),
  pooling windows become strided slices, and each layer becomes a
  closure that maps an ``(N, ...)`` batch of codes to the next batch of
  codes.  Inputs quantize in their own float dtype.  Between layers the
  codes are float integers in batch-last memory; a conv or dense op's
  route is an exact ``rint`` and clip of its sums, and a conv followed
  by a max pool leaves that to the pool, after the max (see the kernel
  notes below).  Each op runs in float32 when its proved bound is below
  2^24 and its scaled values stay in float32's normal range, and in
  float64 otherwise (:func:`op_dtypes`), average pools dividing in that
  dtype too, and the codes become int64 once, at the end.
  Serving-style workloads run through :mod:`repro.serve`, which adds
  request micro-batching on top.

Both paths dispatch through one layer-op registry (:data:`OP_REGISTRY`),
so adding an op kind means adding exactly one :class:`LayerOpHandler`.
The registry is also what :meth:`repro.hw.accelerator.Accelerator.run`
executes, through :func:`execute_deployed`.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.dfp import DFPFormat, dfp_to_codes, rint_saturate
from repro.core.mfdfp import DeployedLayer, DeployedMFDFP
from repro.hw.datapath import (
    DatapathOverflowError,
    accumulator_route,
    datapath_widths,
    div_round_half_even,
    requantize_codes,
    rshift_round_half_even,
    saturate,
)
from repro.nn.layers.conv import im2col, patch_index_table
from repro.nn.layers.pool import pool_output_size, pool_valid_counts

#: LUT over the 16 possible 4-bit weight codes (bit 3 = sign, bits 2..0 =
#: ``-e``): entry ``c`` is the signed shift multiplier ``s << (7 + e)``,
#: so the multiplier-free product ``(s * x) << (7 + e)`` becomes the
#: single integer multiply ``SHIFT_LUT[c] * x`` on the ``2^-(m+7)`` grid.
SHIFT_LUT = np.array(
    [(-1 if (c >> 3) & 1 else 1) << (7 - (c & 0x07)) for c in range(16)],
    dtype=np.int64,
)


def shift_weight_ints(codes: np.ndarray) -> np.ndarray:
    """Decode 4-bit weight codes to integer shift multipliers.

    ``shift_weight_ints(codes)[i] == s_i << (7 + e_i)`` — a single LUT
    gather replacing the decode-then-shift of the eager path.
    """
    codes = np.asarray(codes)
    if np.any((codes < 0) | (codes > 0x0F)):
        raise ValueError("codes exceed 4 bits")
    return SHIFT_LUT[codes]


# -- decoded weight planes -------------------------------------------------------
#
# The compiled kernels consume weights in one canonical decoded form per
# op kind (the *weight plane*).  Factoring the decode out lets a host
# publish planes into ``multiprocessing.shared_memory`` once and have
# every worker process compile engines against zero-copy views
# (:mod:`repro.parallel`), instead of each process re-decoding — and
# re-materializing — its own 8-bytes-per-weight copy.  The decode
# counter makes that invariant testable: a worker serving from shared
# planes performs zero decodes.
_plane_decode_lock = threading.Lock()
_plane_decodes = 0


def plane_decode_count() -> int:
    """Process-wide count of :func:`decode_weight_plane` calls.

    Shared-memory accounting: a worker process whose engines attach
    every weight plane from a :class:`repro.parallel.SharedWeightArena`
    never decodes, so this counter staying flat *is* the
    decoded-planes-mapped-once-per-host invariant.
    """
    return _plane_decodes


def decode_weight_plane(op: DeployedLayer, dtype: np.dtype) -> Optional[np.ndarray]:
    """The canonical LUT-decoded weight plane of one compute op, in ``dtype``.

    Each shift multiplier carries the op's route scale
    ``2^(out_frac - in_frac - 7)`` (:func:`_scale_exponent`), so the GEMM
    sums straight onto the output grid; ``dtype`` is the op's GEMM dtype
    (:func:`op_dtypes`), which holds every scaled multiplier exactly.
    ``conv`` ops decode to ``(groups, out_channels/groups, syn)`` with
    ``syn = (in_channels/groups) * k * k`` — the grouped-GEMM operand of
    the compiled kernel.  ``dense`` ops decode to the transposed
    contiguous ``(in_features, out_features)`` operand.  Ops without
    weights return ``None``.  The returned array is frozen
    (non-writeable): planes are shared between kernels, caches, and —
    via the shared-memory arena — whole processes.
    """
    if op.weight_codes is None or op.kind not in ("conv", "dense"):
        return None
    global _plane_decodes
    with _plane_decode_lock:
        _plane_decodes += 1
    scaled = shift_weight_ints(op.weight_codes) * 2.0 ** _scale_exponent(op)
    if op.kind == "conv":
        g = op.groups or 1
        syn = (op.in_channels // g) * op.kernel_size * op.kernel_size
        plane = scaled.reshape(g, op.out_channels // g, syn).astype(dtype)
    else:
        plane = np.ascontiguousarray(scaled.reshape(op.out_features, op.in_features).T, dtype=dtype)
    plane.setflags(write=False)
    return plane


def _check_plane(op: DeployedLayer, plane: np.ndarray, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """Validate an externally supplied (e.g. shared-memory) weight plane."""
    if plane.shape != shape or plane.dtype != dtype:
        raise ValueError(
            f"{op.name}: weight plane has shape {plane.shape} ({plane.dtype}), "
            f"expected {shape} ({np.dtype(dtype)})"
        )
    return plane


# -- gather-index precomputation -------------------------------------------------
#
# The im2col gather table depends only on layer *geometry*, not on
# weights, so it is memoized process-wide: workloads that compile many
# engines of identical topology but different weight content — the
# fault-injection campaigns recompile per corrupted network — pay the
# index construction once.  The cached array is frozen (non-writeable)
# because every engine shares it.
def _im2col_indices(c: int, h: int, w: int, k: int, stride: int, pad: int):
    """Gather table lowering im2col to one fancy-index per batch.

    Returns ``(index, oh, ow)`` where ``index`` has shape
    ``(c*k*k, oh*ow)`` and indexes a flattened ``(c*h*w + 1,)`` input
    whose last slot holds the padding value (the *sentinel*).  The table
    is the sentinel variant of
    :func:`repro.nn.layers.conv.patch_index_table` — one geometry-keyed
    LRU shared with the training path's ``col2im`` scatter; the returned
    index is read-only and shared.
    """
    return patch_index_table(c, h, w, k, k, stride, pad, sentinel=True)


#: Target size of one block of a conv's im2col operand.  The compiled
#: kernel gathers and multiplies a block of output rows at a time, so
#: the GEMM reads its columns from cache instead of streaming the whole
#: operand (4.9 MB for ``cifar10_full.conv1`` at batch 64) through
#: memory twice.  A block is at least one output row.
BLOCK_BYTES = 256 * 1024


@functools.lru_cache(maxsize=64)
def _im2col_blocks(c: int, h: int, w: int, k: int, stride: int, pad: int, rows: int) -> tuple:
    """The :func:`_im2col_indices` table cut into blocks of ``rows`` output rows.

    Returns one ``(lo, hi, index)`` per block, ``index`` being the
    contiguous ``(c*k*k, hi - lo)`` table of output positions
    ``[lo, hi)``; the last block may be short.  Keyed by geometry and
    rows per block, never by batch size; the blocks are read-only and
    shared by every engine of that geometry.
    """
    index, oh, ow = _im2col_indices(c, h, w, k, stride, pad)
    blocks = []
    for row in range(0, oh, rows):
        lo, hi = row * ow, min(row + rows, oh) * ow
        block = np.ascontiguousarray(index[:, lo:hi])
        block.setflags(write=False)
        blocks.append((lo, hi, block))
    return tuple(blocks)


# -- the accumulator proof and the dtype rule ----------------------------------
#
# One bound per op serves both the overflow proof and the choice of
# arithmetic dtype.  A float dtype with a p-bit significand holds every
# integer below 2^p exactly, so when no partial sum of an op can reach
# 2^24 (float32) or 2^53 (float64), every sum the kernel forms — in any
# summation order, fused multiply-add included — is the exact integer.
# Scaled by a power of two 2^e, those values stay exact while 2^e is a
# normal number of the dtype and the scaled bound cannot overflow.
#: Every integer below this magnitude is exact in float32 (2^53 in float64).
NARROW_LIMIT = 1 << 24


def _scale_exponent(op: DeployedLayer) -> int:
    """The power of two a kernel scales ``op``'s integers by: its input grid to its output grid.

    An average pool's shift lives in its bound and its divisor instead.
    """
    if op.kind in ("conv", "dense"):
        return op.out_frac - op.in_frac - 7
    if op.kind == "maxpool":
        return op.out_frac - op.in_frac
    return 0


def _exact_in(dtype, bound: int, exp: int) -> bool:
    """Whether ``dtype`` holds every ``t * 2^exp`` with integer ``|t| <= bound`` exactly.

    ``t`` must fit the significand, ``2^exp`` (the smallest nonzero value)
    must be normal, and ``bound * 2^exp`` must stay below ``2^maxexp``.
    """
    info = np.finfo(dtype)
    integers = NARROW_LIMIT if info.dtype == np.float32 else 1 << 53
    return bound < integers and exp >= info.minexp and bound.bit_length() + exp <= info.maxexp


def _accumulator_bound(op: DeployedLayer, code_max: int) -> int:
    """The integer magnitude ``op``'s exactness proof needs below 2^p.

    Codes never exceed ``code_max`` nor shift products ``code_max << 7``,
    so a conv or dense sum stays within ``fan_in * (code_max << 7) +
    max|bias_int|`` (reads biases, not weights); an average pool's bound
    is twice its numerator ``k*k*code_max << max(out_frac - in_frac, 0)``
    (see the kernel notes); every other op only moves codes.
    """
    if op.kind in ("conv", "dense"):
        fan_in = op.weight_codes.size // (op.out_channels if op.kind == "conv" else op.out_features)
        bias = 0 if op.bias_int is None else np.abs(op.bias_int.astype(np.float64)).max(initial=0)
        return fan_in * (code_max << 7) + int(bias)
    if op.kind == "avgpool":
        return 2 * op.kernel_size**2 * code_max << max(op.out_frac - op.in_frac, 0)
    return code_max


def _proved_code_max(deployed: DeployedMFDFP) -> int:
    """The network's ``code_max``, once every accumulator is proved wide enough.

    Raises :class:`~repro.hw.datapath.DatapathOverflowError` naming the
    first conv or dense op whose :func:`_accumulator_bound` does not fit
    the datapath's accumulator.
    """
    widths = datapath_widths(deployed.bits)
    for op in deployed.ops:
        if op.kind not in ("conv", "dense"):
            continue
        worst = _accumulator_bound(op, widths.code_max)
        if worst >= 1 << (widths.accumulator - 1):
            raise DatapathOverflowError(
                f"{op.name}: worst-case accumulator {worst} exceeds the "
                f"{widths.accumulator}-bit accumulator of a {widths.bits}-bit datapath"
            )
    return widths.code_max


def op_dtypes(deployed: DeployedMFDFP) -> list[np.dtype]:
    """The float dtype each compiled op computes in and hands on.

    A conv or dense op gathers or casts its input into the narrowest
    dtype that holds its :func:`_accumulator_bound` scaled by
    ``2^``:func:`_scale_exponent` exactly (:func:`_exact_in`): float64
    once the bound reaches 2^24, the scale falls below float32's smallest
    normal 2^-126 or the scaled bound could reach 2^128.  The window ops
    keep their input's dtype, widening it by the same rule (an average
    pool's bound is twice its numerator).  An op that float64 cannot hold
    raises :class:`~repro.hw.datapath.DatapathOverflowError` naming it.
    The chain starts from float32 codes; a conv, dense or pool kernel
    handed wider codes reads them into its own dtype.
    """
    code_max = datapath_widths(deployed.bits).code_max
    dtype, dtypes = np.dtype(np.float32), []
    for op in deployed.ops:
        bound, exp = _accumulator_bound(op, code_max), _scale_exponent(op)
        if not _exact_in(np.float64, bound, exp):
            raise DatapathOverflowError(
                f"{op.name}: worst-case bound {bound} times 2^{exp} is not exact in float64"
            )
        narrowest = np.dtype(np.float32 if _exact_in(np.float32, bound, exp) else np.float64)
        dtype = narrowest if op.kind in ("conv", "dense") else np.promote_types(dtype, narrowest)
        dtypes.append(dtype)
    return dtypes


# -- reference (eager) ops -------------------------------------------------------
def _conv_reference(op: DeployedLayer, codes: np.ndarray, max_code: int) -> np.ndarray:
    n = codes.shape[0]
    k = op.kernel_size
    g = op.groups or 1
    cols, oh, ow = im2col(codes, k, k, op.stride, op.pad)
    syn = (op.in_channels // g) * k * k
    w_int = shift_weight_ints(op.weight_codes).reshape(g, op.out_channels // g, syn)
    cols_g = cols.astype(np.int64).reshape(n, g, syn, oh * ow)
    acc = np.einsum("gfk,ngkp->ngfp", w_int, cols_g, optimize=True)
    acc = acc.reshape(n, op.out_channels, oh * ow)
    if op.bias_int is not None:
        acc += op.bias_int[None, :, None]
    out = accumulator_route(acc, op.in_frac + 7, op.out_frac, op.activation, max_code=max_code)
    return out.reshape(n, op.out_channels, oh, ow)


def _dense_reference(op: DeployedLayer, codes: np.ndarray, max_code: int) -> np.ndarray:
    w_int = shift_weight_ints(op.weight_codes).reshape(op.out_features, op.in_features)
    acc = codes.astype(np.int64) @ w_int.T
    if op.bias_int is not None:
        acc += op.bias_int[None, :]
    return accumulator_route(acc, op.in_frac + 7, op.out_frac, op.activation, max_code=max_code)


def _pool_windows(codes: np.ndarray, op: DeployedLayer, fill: int):
    n, c, h, w = codes.shape
    k, s, p = op.kernel_size, op.stride, op.pad
    oh = pool_output_size(h, k, s, p, op.ceil_mode)
    ow = pool_output_size(w, k, s, p, op.ceil_mode)
    need_h = (oh - 1) * s + k
    need_w = (ow - 1) * s + k
    pad_b = max(0, need_h - (h + p))
    pad_r = max(0, need_w - (w + p))
    padded = np.pad(codes, ((0, 0), (0, 0), (p, pad_b), (p, pad_r)), constant_values=fill)
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    return win[:, :, ::s, ::s][:, :, :oh, :ow], oh, ow


def _maxpool_reference(op: DeployedLayer, codes: np.ndarray, max_code: int) -> np.ndarray:
    win, _, _ = _pool_windows(codes, op, fill=np.iinfo(np.int64).min)
    out = win.max(axis=(-1, -2))
    return requantize_codes(out, op.in_frac, op.out_frac, max_code)


def _avgpool_reference(op: DeployedLayer, codes: np.ndarray, max_code: int) -> np.ndarray:
    win, oh, ow = _pool_windows(codes, op, fill=0)
    sums = win.sum(axis=(-1, -2), dtype=np.int64)
    ones = np.ones((1, 1) + codes.shape[2:], dtype=np.int64)
    counts = _pool_windows(ones, op, fill=0)[0].sum(axis=(-1, -2))[0, 0]  # (oh, ow)
    # sum * 2^shift / count, both sides shifted exactly (Python integers
    # once a shift leaves int64), so the quotient is exact at any shift.
    shift = op.out_frac - op.in_frac
    num = rshift_round_half_even(sums, -max(shift, 0))
    den = rshift_round_half_even(counts, -max(-shift, 0))
    return saturate(div_round_half_even(num, den[None, None]), max_code)


def _flatten_reference(op: DeployedLayer, codes: np.ndarray, max_code: int) -> np.ndarray:
    return codes.reshape(codes.shape[0], int(np.prod(codes.shape[1:])))


# -- compiled kernels ------------------------------------------------------------
#
# Between ops, activations are float integer codes in *batch-last*
# memory: each kernel takes and returns the ``(N, C, H, W)`` / ``(N, F)``
# shape of the reference path, but a spatial activation's memory is the
# conv GEMM's natural ``(C, H, W, N)`` output, handed on as a zero-copy
# ``transpose(3, 0, 1, 2)`` view.  The batch is then the contiguous inner
# axis of every gather and pool pass.
#
# A conv gathers and multiplies its im2col operand one block of output
# rows at a time (:data:`BLOCK_BYTES`, :func:`_im2col_blocks`), each
# block's GEMM writing its own columns of the op's output; bias and
# epilogue then run once over the whole output.  Blocking changes which
# columns a GEMM call sees, never a sum, so it cannot change a value.
#
# Each kernel computes in the dtype :func:`op_dtypes` picks for its op,
# and the arithmetic is exact in it.  A conv or dense plane and bias
# carry the route scale ``2^e``, ``e = out_frac - in_frac - 7``
# (:func:`decode_weight_plane`), so every product and every partial sum
# the GEMM forms, in any order and fused multiply-add included, is
# ``t * 2^e`` for an integer ``|t|`` within :func:`_accumulator_bound`.
# The dtype holds all of those exactly (:func:`_exact_in`: ``t`` fits
# the significand, ``2^e`` is normal, the scaled bound cannot
# overflow), so the GEMM returns the exact accumulator already on the
# output grid.  Its epilogue (:func:`_epilogue`) is ``np.rint`` (half to
# even, as the datapath rounds) when ``e < 0`` and a clip to the code
# range, bit-identical to :func:`~repro.hw.datapath.accumulator_route`.
#
# A conv followed by a max pool hands on its unrounded sums, and the
# pool runs the conv's epilogue on its window maxima
# (:func:`_defers_route`).  The epilogue ``f`` (``rint``, then a clip)
# is monotone non-decreasing, so ``max f(v) = f(max v)`` over every
# window that reads at least one conv output: the codes are the same,
# and the rounding runs on the pooled quarter of the data.  A window
# of padding alone has no conv output to take the maximum of, so a pool
# with ``pad >= kernel`` keeps the rounded handoff.
#
# An average pool rounds the quotient ``q`` of the integers ``num = sum
# << max(shift, 0)`` and ``den = count << max(-shift, 0)``.  While
# ``|num| < 2^(p-1)``, a half-integer ``q`` is exact in the dtype and
# any other lies at least ``1/(2 den)`` from every half-integer, beyond
# the divide's error ``|q| 2^-p``, so ``rint`` of the float quotient
# rounds half to even exactly as the integer spec does.
# :meth:`BatchedEngine.run_codes` casts to int64 once, after the last op.
# Kernels ignore a second argument.
def _epilogue(rounds: bool, activation: str, max_code: int) -> Callable[[np.ndarray], np.ndarray]:
    """The in-place end of a route: ``np.rint`` if it ``rounds``, then the clip to the code range.

    Scaling and rounding are monotone and keep 0 at 0, so a ReLU folds
    into the clip's lower bound.  The bounds are floats: numpy clips a
    float array by Python ints half as fast.
    """
    if activation not in ("none", "relu"):
        raise ValueError(f"unsupported fused activation {activation!r}")
    lo, hi = (0.0 if activation == "relu" else -float(max_code)), float(max_code)

    def finish(acc: np.ndarray) -> np.ndarray:
        if rounds:
            np.rint(acc, out=acc)
        return np.clip(acc, lo, hi, out=acc)

    return finish


def _route(
    acc: np.ndarray, acc_frac: int, out_frac: int, activation: str, max_code: int
) -> np.ndarray:
    """:func:`~repro.hw.datapath.accumulator_route` in place on float integers.

    ``acc`` holds integers its dtype represents exactly, and its scale
    ``2^(out_frac - acc_frac)`` is exact in the dtype (:func:`op_dtypes`
    checks both); it is overwritten with the output codes, in the same
    dtype, and returned.
    """
    finish = _epilogue(out_frac < acc_frac, activation, max_code)
    if out_frac != acc_frac:
        acc *= 2.0 ** (out_frac - acc_frac)
    return finish(acc)


def _defers_route(ops: list, i: int) -> bool:
    """Whether op ``i``, a conv before a max pool, leaves its epilogue to that pool.

    Not when the pool has a window of padding alone (``pad >= kernel``).
    """
    if ops[i].kind != "conv" or i + 1 == len(ops):
        return False
    pool = ops[i + 1]
    return pool.kind == "maxpool" and pool.pad < pool.kernel_size


def _conv_compile(
    op: DeployedLayer,
    in_shape: tuple,
    max_code: int,
    dtype: np.dtype,
    plane: Optional[np.ndarray] = None,
    defer: bool = False,
):
    c, h, w = in_shape
    k, g = op.kernel_size, op.groups or 1
    syn = (c // g) * k * k
    chw = c * h * w
    shape = (g, op.out_channels // g, syn)
    w_f = decode_weight_plane(op, dtype) if plane is None else _check_plane(op, plane, shape, dtype)
    _, oh, ow = _im2col_indices(c, h, w, k, op.stride, op.pad)
    positions = oh * ow
    bias = None if op.bias_int is None else (op.bias_int[:, None] * 2.0 ** _scale_exponent(op)).astype(dtype)
    finish = None if defer else _epilogue(_scale_exponent(op) < 0, op.activation, max_code)

    # Gathering rows of the (chw+1, N) plane yields a block's columns as
    # (c*k*k, block positions, N), which reshapes — without copies — into
    # the (g, syn, block positions*N) operand of one GEMM per group
    # instead of N small ones.  The (out_channels, positions*N) result
    # is routed in place (unless ``defer``: the next max pool routes
    # it) and handed on batch-last.
    row_bytes = c * k * k * ow * np.dtype(dtype).itemsize  # per sample

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        n = codes.shape[0]
        flat_t = np.empty((chw + 1, n), dtype=dtype)
        flat_t[:-1] = codes.reshape(n, chw).T
        flat_t[-1] = 0.0
        acc = np.empty((g, op.out_channels // g, positions * n), dtype=dtype)
        rows = min(oh, max(1, BLOCK_BYTES // max(1, row_bytes * n)))
        for lo, hi, block in _im2col_blocks(c, h, w, k, op.stride, op.pad, rows):
            cols = np.take(flat_t, block, axis=0).reshape(g, syn, (hi - lo) * n)
            np.matmul(w_f, cols, out=acc[..., lo * n : hi * n])
        acc = acc.reshape(op.out_channels, positions * n)
        if bias is not None:
            acc += bias
        if finish is not None:
            finish(acc)
        return acc.reshape(op.out_channels, oh, ow, n).transpose(3, 0, 1, 2)

    return kernel, (op.out_channels, oh, ow)


def _dense_compile(
    op: DeployedLayer, in_shape: tuple, max_code: int, dtype: np.dtype, plane: Optional[np.ndarray] = None
):
    shape = (op.in_features, op.out_features)
    w_t = decode_weight_plane(op, dtype) if plane is None else _check_plane(op, plane, shape, dtype)
    bias = None if op.bias_int is None else (op.bias_int[None, :] * 2.0 ** _scale_exponent(op)).astype(dtype)
    finish = _epilogue(_scale_exponent(op) < 0, op.activation, max_code)

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        acc = np.asarray(codes, dtype=dtype) @ w_t
        if bias is not None:
            acc += bias
        return finish(acc)

    return kernel, (op.out_features,)


def _tap_span(size: int, out: int, offset: int, s: int, p: int) -> Optional[tuple]:
    """Output and input slices of one window tap along one axis.

    Output position ``a`` reads input ``a*s + offset - p``; returns the
    ``(out_slice, in_slice)`` of the positions where that lands inside
    ``[0, size)``, or ``None`` if none does.  Taps outside are padding or
    ceil-mode overhang, and are skipped.
    """
    lo = max(0, -((offset - p) // s))
    hi = min(out - 1, (size - 1 + p - offset) // s)
    if lo > hi:
        return None
    start = lo * s + offset - p
    return slice(lo, hi + 1), slice(start, start + (hi - lo) * s + 1, s)


def _window_spans(op: DeployedLayer, h: int, w: int) -> tuple[tuple, tuple]:
    """A pooling op's window taps per spatial axis, and its output size.

    Returns ``((row_spans, col_spans), (oh, ow))``: one
    ``(out_slice, in_slice)`` pair (see :func:`_tap_span`) per tap that
    reads any input.
    """
    k, s, p = op.kernel_size, op.stride, op.pad
    out_hw = tuple(pool_output_size(size, k, s, p, op.ceil_mode) for size in (h, w))
    spans = tuple(
        [span for span in (_tap_span(size, out, i, s, p) for i in range(k)) if span]
        for size, out in zip((h, w), out_hw)
    )
    return spans, out_hw


def _window_reduce(ufunc, fill: float, codes: np.ndarray, spans: tuple, out_hw: tuple) -> np.ndarray:
    """Reduce every pooling window of an ``(N, C, H, W)`` batch with ``ufunc``.

    Returns the ``(C, oh, ow, N)`` plane in the batch's dtype.  ``fill``
    is the reduction's identity; padding and ceil-mode overhang read as it.
    Pooling is separable, so a k×k window is k strided slices reduced
    along H, then k along W: on the batch-last plane the first pass runs
    over contiguous ``W*N`` rows, the second over contiguous ``N`` runs.
    """
    x = codes.transpose(1, 2, 3, 0)
    for axis, axis_spans, out_len in zip((1, 2), spans, out_hw):
        lead = (slice(None),) * axis
        out = np.full(x.shape[:axis] + (out_len,) + x.shape[axis + 1 :], fill, dtype=x.dtype)
        for o, i in axis_spans:
            view = out[lead + (o,)]
            ufunc(view, x[lead + (i,)], out=view)
        x = out
    return x


def _maxpool_compile(
    op: DeployedLayer,
    in_shape: tuple,
    max_code: int,
    dtype: np.dtype,
    producer: Optional[DeployedLayer] = None,
):
    c, h, w = in_shape
    spans, (oh, ow) = _window_spans(op, h, w)
    finish = None
    if producer is not None:  # the conv before this pool left its epilogue here (_defers_route)
        finish = _epilogue(_scale_exponent(producer) < 0, producer.activation, max_code)
    # In-range codes need no route on an unchanged grid, unless a window
    # of padding alone leaves its -inf to saturate.
    routes = op.out_frac != op.in_frac or op.pad >= op.kernel_size

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        out = _window_reduce(np.maximum, -np.inf, codes.astype(dtype, copy=False), spans, (oh, ow))
        if finish is not None:
            finish(out)
        if routes:
            _route(out, op.in_frac, op.out_frac, "none", max_code)
        return out.transpose(3, 0, 1, 2)

    return kernel, (c, oh, ow)


def _avgpool_compile(op: DeployedLayer, in_shape: tuple, max_code: int, dtype: np.dtype):
    c, h, w = in_shape
    spans, (oh, ow) = _window_spans(op, h, w)
    counts = pool_valid_counts(h, w, op.kernel_size, op.stride, op.pad, op.ceil_mode)
    if not counts.all():
        raise ValueError(f"{op.name}: a pooling window reads no input, only padding or overhang")
    # ``sum / (count * 2^-shift)`` is ``num / den`` exactly: one divide.
    # Once ``2^-shift`` passes the bound (twice the largest |sum|), every
    # quotient lies inside (-1/2, 1/2) and rounds to 0 either way, so the
    # divisor stops growing there and stays finite in ``dtype``.
    exp = min(op.in_frac - op.out_frac, _accumulator_bound(op, max_code).bit_length())
    den = (counts * 2.0**exp).astype(dtype)[:, :, None]
    den.setflags(write=False)
    finish = _epilogue(True, "none", max_code)

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        out = _window_reduce(np.add, 0.0, codes.astype(dtype, copy=False), spans, (oh, ow))
        np.divide(out, den, out=out)
        return finish(out).transpose(3, 0, 1, 2)

    return kernel, (c, oh, ow)


def _flatten_compile(op: DeployedLayer, in_shape: tuple, max_code: int, dtype: np.dtype):
    features = int(np.prod(in_shape))

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        return codes.reshape(codes.shape[0], features)

    return kernel, (features,)


# -- the registry ----------------------------------------------------------------
@dataclass(frozen=True)
class LayerOpHandler:
    """One op kind: an eager reference and a kernel compiler.

    ``reference(op, codes, max_code)`` maps a batch of input codes to
    output codes (saturating at ``±max_code``) directly from the
    :class:`DeployedLayer`.  ``compile(op, in_shape, max_code, dtype)``
    returns ``(kernel, out_shape)`` where ``kernel(codes)`` is the
    precomputed batched closure; it returns the same codes as ``dtype``
    floats (the op's entry of :func:`op_dtypes`), in batch-last memory
    (see the kernel notes above).  Weighted kinds (conv/dense)
    additionally accept ``plane=`` — a pre-decoded weight plane (see
    :func:`decode_weight_plane`), typically a zero-copy shared-memory
    view, used instead of decoding the op's codes.  A conv compiled
    with ``defer=True`` returns its unrounded sums on the output grid
    instead of codes, and the max pool after it, compiled with
    ``producer=`` that conv, rounds and clips them after the max
    (:func:`_defers_route`).
    """

    kind: str
    reference: Callable[[DeployedLayer, np.ndarray, int], np.ndarray]
    compile: Callable[..., tuple]


#: The single source of truth for executable op kinds; both the eager
#: reference path and :class:`BatchedEngine` dispatch through it.
OP_REGISTRY: dict[str, LayerOpHandler] = {
    "conv": LayerOpHandler("conv", _conv_reference, _conv_compile),
    "dense": LayerOpHandler("dense", _dense_reference, _dense_compile),
    "maxpool": LayerOpHandler("maxpool", _maxpool_reference, _maxpool_compile),
    "avgpool": LayerOpHandler("avgpool", _avgpool_reference, _avgpool_compile),
    "flatten": LayerOpHandler("flatten", _flatten_reference, _flatten_compile),
}


def _handler(kind: str) -> LayerOpHandler:
    try:
        return OP_REGISTRY[kind]
    except KeyError:
        raise ValueError(f"cannot execute op kind {kind!r}") from None


# -- reference entry point -------------------------------------------------------
def execute_deployed(deployed: DeployedMFDFP, x: np.ndarray) -> np.ndarray:
    """Run a deployed network on a batch, all-integer; returns out codes.

    This is the eager reference path: weights are decoded and windows
    rebuilt on every call.  :class:`BatchedEngine` produces bit-identical
    codes while amortizing that work across calls, and raises the same
    ``DatapathOverflowError`` before running (compiling also refuses an
    op no float dtype computes exactly, see :func:`op_dtypes`).
    """
    max_code = _proved_code_max(deployed)
    codes = dfp_to_codes(x, DFPFormat(deployed.bits, deployed.input_frac))
    for op in deployed.ops:
        codes = _handler(op.kind).reference(op, codes, max_code)
    return codes


# -- engine identity -------------------------------------------------------------
def engine_fingerprint(deployed: DeployedMFDFP) -> str:
    """Cheap content fingerprint of a deployed network.

    Hashes the execution-relevant content — op kinds, geometry, radix
    indices, fused activations, weight codes and integer biases — so two
    artifacts that would compile to identical engines share a
    fingerprint even when they are distinct Python objects (e.g. the
    same network deployed twice).  One pass over the integer tensors,
    orders of magnitude cheaper than a compile, which is what lets
    :class:`EngineCache` promise compile-once semantics per content.

    The digest is memoized on the artifact so hot paths (e.g. a served
    model's :meth:`EngineCache.get` per call) hash the tensors once, not
    per lookup.  The memo is paired with ``id(self)``, so copies
    (``inject_weight_faults`` builds a fresh artifact around
    shared-or-replaced tensors) never inherit a stale digest — and a
    corrupted copy whose content happens to be unchanged (zero flips)
    legitimately re-derives the *same* digest and shares the compiled
    engine.  A deployed network is a *frozen* artifact — mutate one in
    place and, like any cache key, its fingerprint must be treated as
    invalidated (copy first, as the fault injector does).
    """
    memo = deployed.__dict__.get("_fingerprint_memo")
    if memo is not None and memo[0] == id(deployed):
        return memo[1]
    h = hashlib.blake2b(digest_size=16)
    h.update(
        repr((tuple(deployed.input_shape), deployed.input_frac, deployed.bits)).encode()
    )
    for op in deployed.ops:
        h.update(
            repr(
                (
                    op.kind,
                    op.in_frac,
                    op.out_frac,
                    op.activation,
                    op.in_channels,
                    op.out_channels,
                    op.kernel_size,
                    op.stride,
                    op.pad,
                    op.groups,
                    op.ceil_mode,
                    op.in_features,
                    op.out_features,
                )
            ).encode()
        )
        if op.weight_codes is not None:
            h.update(np.ascontiguousarray(op.weight_codes, dtype=np.uint8).tobytes())
        if op.bias_int is not None:
            h.update(np.ascontiguousarray(op.bias_int, dtype=np.int64).tobytes())
    digest = h.hexdigest()
    deployed.__dict__["_fingerprint_memo"] = (id(deployed), digest)
    return digest


class CacheStats:
    """Per-consumer hit/miss accounting for :class:`EngineCache` lookups.

    An :class:`EngineCache` keeps process-global ``hits``/``misses``
    totals, but :func:`engine_cache` serves every consumer in the
    process at once — two concurrent campaigns (or a registry beside
    them) would measure each other's traffic in before/after deltas of
    the global counters.  A ``CacheStats`` instance is the fix: pass
    one to :meth:`EngineCache.get` and exactly the lookups made with it
    are counted here, no matter what other traffic the cache sees.

    Thread-safe: one consumer may fan its lookups out across a pool.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def record(self, hit: bool) -> None:
        """Count one lookup attributed to this consumer."""
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def counters(self) -> tuple[int, int]:
        """One consistent ``(hits, misses)`` pair."""
        with self._lock:
            return self._hits, self._misses


#: Compiled engines one process keeps resident (least-recently-used evicted).
ENGINE_CACHE_CAPACITY = 32


class EngineCache:
    """Thread-safe bounded cache of compiled engines, keyed by content.

    ``get`` compiles a :class:`BatchedEngine` on first sight of a
    network's :func:`engine_fingerprint` and returns the *same* engine
    object on every later call with equal content — compile once, serve
    forever.  Eviction is least-recently-used and bounded at
    :data:`ENGINE_CACHE_CAPACITY` entries so sweeping many networks
    through one cache cannot grow memory without bound.  Every consumer
    in a process shares one instance, :func:`engine_cache`.

    Concurrency: lookups take a short mutex; compilation happens under a
    separate compile lock with a double-check, so concurrent requests
    for the same network trigger exactly one compile (the losers block
    and receive the winner's engine).  Compiles of *different* networks
    serialize too — compilation is milliseconds for the models served
    here, and the simple locking is easy to prove correct.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._compile_lock = threading.Lock()
        self._engines: OrderedDict[str, BatchedEngine] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def _lookup_locked(self, key: str) -> Optional[BatchedEngine]:
        """Return and LRU-touch the cached engine for ``key``; caller holds ``_lock``."""
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            self.hits += 1
        return engine

    def _store_locked(self, key: str, engine: "BatchedEngine") -> None:
        """Insert as most recent, evicting past capacity; caller holds ``_lock``."""
        self._engines[key] = engine
        self._engines.move_to_end(key)
        while len(self._engines) > ENGINE_CACHE_CAPACITY:
            self._engines.popitem(last=False)

    def counters(self) -> tuple[int, int]:
        """One consistent ``(hits, misses)`` snapshot of the global totals.

        Reading ``cache.hits`` and ``cache.misses`` as two attribute
        accesses can tear (a lookup may land between them); this reads
        both under the cache mutex.  For *per-consumer* accounting on a
        shared cache, pass a :class:`CacheStats` to :meth:`get` instead
        — global deltas attribute concurrent consumers' traffic to
        whoever happens to be measuring.
        """
        with self._lock:
            return self.hits, self.misses

    def get(self, deployed: DeployedMFDFP, stats: Optional[CacheStats] = None) -> BatchedEngine:
        """The cached engine for ``deployed``, compiling on first use.

        ``stats`` attributes this lookup (hit, or miss-then-compile) to
        one consumer's :class:`CacheStats` in addition to the cache's
        global counters.  A lookup that blocks on another thread's
        in-flight compile of the same network counts as a hit: this
        consumer paid no compile.
        """
        key = engine_fingerprint(deployed)
        with self._lock:
            engine = self._lookup_locked(key)
        if engine is None:
            with self._compile_lock:
                with self._lock:
                    engine = self._lookup_locked(key)
                if engine is None:
                    engine = BatchedEngine(deployed)
                    with self._lock:
                        self.misses += 1
                        self._store_locked(key, engine)
                    if stats is not None:
                        stats.record(hit=False)
                    return engine
        if stats is not None:
            stats.record(hit=True)
        return engine

    def lookup(self, fingerprint: str) -> Optional[BatchedEngine]:
        """The resident engine with this fingerprint, or ``None``; never compiles."""
        with self._lock:
            return self._lookup_locked(fingerprint)

    def install(self, engine: "BatchedEngine") -> None:
        """Seed the cache with an already compiled engine.

        Worker processes that compile against shared-memory weight
        planes install the result here, so every later content-equal
        lookup (``get``) hits without decoding a private plane copy.
        """
        with self._lock:
            self._store_locked(engine.fingerprint, engine)

    def engines(self) -> list["BatchedEngine"]:
        """The resident engines, least recently used first."""
        with self._lock:
            return list(self._engines.values())

    def clear(self) -> None:
        with self._lock:
            self._engines.clear()


_ENGINE_CACHE = EngineCache()


def engine_cache() -> EngineCache:
    """The process-wide engine cache: every consumer's compiled engines.

    Serving, campaigns, the accelerator model and pool workers all look
    engines up here, so a network compiles once per process.  A forked
    child inherits the parent's resident engines.
    """
    return _ENGINE_CACHE


def labelled_batch(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x, y)`` as arrays; raises ``ValueError`` if empty or mismatched."""
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty batch")
    if len(x) != len(y):
        raise ValueError(f"x has {len(x)} samples but y has {len(y)} labels")
    return x, y


def deployed_accuracy(
    deployed: DeployedMFDFP,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
    stats: Optional[CacheStats] = None,
) -> float:
    """Top-1 accuracy of a deployed network on a labelled batch.

    Runs the :func:`engine_cache` engine in ``batch_size`` slices:
    bit-identical to :func:`execute_deployed` for every slice size.
    ``stats`` attributes the cache lookup to one consumer.
    """
    x, y = labelled_batch(x, y)
    engine = engine_cache().get(deployed, stats)
    correct = 0
    for start in range(0, len(x), batch_size):
        codes = engine.run_codes(x[start : start + batch_size])
        correct += int((codes.argmax(axis=1) == y[start : start + batch_size]).sum())
    return correct / len(x)


# -- compiled engine -------------------------------------------------------------
@dataclass(frozen=True)
class CompiledOp:
    """One compiled layer: its kernel closure plus shape bookkeeping.

    ``dtype`` is the float dtype the kernel computes in and returns
    (:func:`op_dtypes`).  A conv followed by a max pool returns its
    unrounded sums on the output grid, not codes: the pool's kernel
    rounds and clips them after the max (:func:`_defers_route`).
    ``kernel(codes)`` ignores a second positional argument, which
    ``perfbench/layers.py`` passes: the retired run-time width flag.
    """

    name: str
    kind: str
    kernel: Callable[..., np.ndarray]
    out_shape: tuple
    dtype: np.dtype


class BatchedEngine:
    """Compiled batched executor for one deployed MF-DFP network.

    Compilation walks the op list once, decoding weights through
    :data:`SHIFT_LUT` and fixing each layer's gather table or window
    slices; :meth:`run_codes` then streams ``(N, ...)`` batches through
    the kernel closures.  Outputs are bit-identical to
    :func:`execute_deployed` for every batch size (every value is an
    integer its op's dtype represents exactly, so batching cannot change
    values).

    Compiling raises :class:`~repro.hw.datapath.DatapathOverflowError`
    naming the op if an accumulator could overflow, or if no float64
    holds an op's scaled bound exactly (:func:`op_dtypes`).  It also
    places each route once: a conv before a max pool leaves its
    rounding to the pool (:func:`_defers_route`).

    Args:
        deployed: The frozen network to compile.
        weight_planes: Optional ``{op_index: decoded plane}`` mapping
            (see :func:`decode_weight_plane`).  Ops present in the map
            compile against the given plane — typically a read-only
            view into a :class:`repro.parallel.SharedWeightArena`
            segment — instead of decoding their own copy; absent ops
            decode as usual.  ``shared_planes`` records whether a map
            was given.
    """

    def __init__(self, deployed: DeployedMFDFP, weight_planes: Optional[dict] = None):
        if not deployed.ops:
            raise ValueError("cannot compile an empty deployed network")
        max_code = _proved_code_max(deployed)
        self.deployed = deployed
        self.shared_planes = weight_planes is not None
        self.input_shape = tuple(deployed.input_shape)
        self.input_fmt = DFPFormat(deployed.bits, deployed.input_frac)
        self.program: list[CompiledOp] = []
        shape, ops = self.input_shape, deployed.ops
        for i, (op, dtype) in enumerate(zip(ops, op_dtypes(deployed))):
            options = {}
            if weight_planes and weight_planes.get(i) is not None:
                options["plane"] = weight_planes[i]
            if _defers_route(ops, i):
                options["defer"] = True
            if i and _defers_route(ops, i - 1):
                options["producer"] = ops[i - 1]
            kernel, shape = _handler(op.kind).compile(op, shape, max_code, dtype, **options)
            self.program.append(CompiledOp(op.name, op.kind, kernel, shape, dtype))
        self.output_shape = shape
        self._narrow_input = _exact_in(np.float32, 1, deployed.input_frac)  # 2^input_frac is a float32 normal
        self._out_scale = 2.0 ** (-deployed.ops[-1].out_frac)
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the compiled network (lazy, cached).

        Equal fingerprints mean the engines were compiled from
        bit-identical artifacts and therefore compute the same function;
        :class:`EngineCache` uses it as the cache key.
        """
        if self._fingerprint is None:
            self._fingerprint = engine_fingerprint(self.deployed)
        return self._fingerprint

    # -- execution ---------------------------------------------------------
    def run_codes(self, x: np.ndarray) -> np.ndarray:
        """Quantize a float batch and return int64 output codes.

        Quantizes as :func:`~repro.core.dfp.dfp_to_codes` does, in the
        input's own float dtype: one multiply by ``2^input_frac``, then
        ``rint`` and saturation in place.  A float32 product is exact
        unless it overflows to ``inf`` (which saturates alike) or falls
        below 2^-126 (which rounds to 0 alike).  Any other input rounds
        in float64 and enters the first kernel uncast: casting first
        would move values near a half code onto it.  Each conv, dense
        and pool kernel reads codes (at most 2^15) into its own dtype.
        """
        x = np.asarray(x)
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected batch of shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        dtype = np.float32 if x.dtype == np.float32 and self._narrow_input else np.float64
        with np.errstate(over="ignore"):  # an overflow to inf saturates
            scaled = np.multiply(x, 2.0**self.input_fmt.frac, dtype=dtype)
        codes = rint_saturate(scaled, self.input_fmt.max_code)
        for op in self.program:
            codes = op.kernel(codes)
        return codes.astype(np.int64, order="C")

    def run(self, x: np.ndarray) -> np.ndarray:
        """Batched inference; returns float logits (codes × output grid)."""
        return self.run_codes(x).astype(np.float64) * self._out_scale

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over the last compute op's outputs)."""
        return np.argmax(self.run_codes(x), axis=1)

    # -- introspection -----------------------------------------------------
    def layer_summary(self) -> list[dict]:
        """Per-layer ``{name, kind, out_shape}`` rows of the compiled plan."""
        return [
            {"name": op.name, "kind": op.kind, "out_shape": op.out_shape}
            for op in self.program
        ]

    def __repr__(self) -> str:
        return (
            f"BatchedEngine({self.deployed.name}, {len(self.program)} ops, "
            f"in={self.input_shape}, out={self.output_shape})"
        )
