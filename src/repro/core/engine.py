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
  work once per network: weight codes become integer shift multipliers
  through a 16-entry LUT (:data:`SHIFT_LUT`), im2col and pooling windows
  become precomputed gather-index tables, and each layer becomes a
  closure that maps an ``(N, ...)`` batch of codes to the next batch of
  codes.  Serving-style workloads run through :mod:`repro.serve`, which
  adds request micro-batching on top.

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

from repro.core.dfp import DFPFormat, dfp_to_codes
from repro.core.mfdfp import DeployedLayer, DeployedMFDFP
from repro.hw.datapath import (
    DatapathOverflowError,
    accumulator_route,
    datapath_widths,
    div_round_half_even,
    requantize_codes,
    saturate,
)
from repro.nn.layers.conv import im2col, patch_index_table
from repro.nn.layers.pool import pool_output_size

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


def decode_weight_plane(op: DeployedLayer) -> Optional[np.ndarray]:
    """The canonical LUT-decoded float64 weight plane of one compute op.

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
    if op.kind == "conv":
        g = op.groups or 1
        syn = (op.in_channels // g) * op.kernel_size * op.kernel_size
        plane = (
            shift_weight_ints(op.weight_codes)
            .reshape(g, op.out_channels // g, syn)
            .astype(np.float64)
        )
    else:
        plane = np.ascontiguousarray(
            shift_weight_ints(op.weight_codes)
            .reshape(op.out_features, op.in_features)
            .T,
            dtype=np.float64,
        )
    plane.setflags(write=False)
    return plane


def _check_plane(op: DeployedLayer, plane: np.ndarray, shape: tuple) -> np.ndarray:
    """Validate an externally supplied (e.g. shared-memory) weight plane."""
    if plane.shape != shape or plane.dtype != np.float64:
        raise ValueError(
            f"{op.name}: weight plane has shape {plane.shape} ({plane.dtype}), "
            f"expected {shape} (float64)"
        )
    return plane


# -- gather-index precomputation -------------------------------------------------
#
# The gather tables depend only on layer *geometry*, not on weights, so
# they are memoized process-wide: workloads that compile many engines of
# identical topology but different weight content — the fault-injection
# campaigns recompile per corrupted network — pay the index construction
# once.  The cached arrays are frozen (non-writeable) because every
# engine shares them.
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


@functools.lru_cache(maxsize=256)
def _pool_indices(h: int, w: int, k: int, stride: int, pad: int, ceil_mode: bool):
    """Gather table for pooling windows (per channel, spatial only).

    Returns ``(index, oh, ow)`` where ``index`` has shape
    ``(oh*ow, k*k)`` and indexes a flattened ``(h*w + 1,)`` feature map
    whose last slot holds the window fill value.  Ceil mode may demand
    rows/columns beyond the symmetric padding; they also map to the fill
    slot, mirroring the asymmetric pad of the eager path.  Memoized by
    geometry; the returned index is read-only and shared.
    """
    sentinel = h * w
    oh = pool_output_size(h, k, stride, pad, ceil_mode)
    ow = pool_output_size(w, k, stride, pad, ceil_mode)
    need_h = (oh - 1) * stride + k
    need_w = (ow - 1) * stride + k
    pad_b = max(0, need_h - (h + pad))
    pad_r = max(0, need_w - (w + pad))
    grid = np.full((h + pad + pad_b, w + pad + pad_r), sentinel, dtype=np.int64)
    grid[pad : pad + h, pad : pad + w] = np.arange(sentinel).reshape(h, w)
    win = np.lib.stride_tricks.sliding_window_view(grid, (k, k))
    win = win[::stride, ::stride][:oh, :ow]
    index = win.reshape(oh * ow, k * k).astype(np.intp)
    index.setflags(write=False)
    return index, oh, ow


def _with_sentinel(codes2d: np.ndarray, fill: int, dtype=np.int64) -> np.ndarray:
    """Append the sentinel slot (one ``fill`` per row) to flattened codes."""
    rows = codes2d.shape[0]
    out = np.empty((rows, codes2d.shape[1] + 1), dtype=dtype)
    out[:, :-1] = codes2d
    out[:, -1] = fill
    return out


# -- the accumulator proof -------------------------------------------------------
def _proved_code_max(deployed: DeployedMFDFP) -> int:
    """The network's ``code_max``, once every accumulator is proved wide enough.

    Codes never exceed ``code_max`` nor shift products ``code_max << 7``,
    so no conv or dense accumulator exceeds ``fan_in * 2^7 * code_max +
    max|bias_int|``; raises :class:`~repro.hw.datapath.DatapathOverflowError`
    naming the first op where that does not fit.  Reads biases, not weights.
    """
    widths = datapath_widths(deployed.bits)
    for op in deployed.ops:
        if op.kind not in ("conv", "dense"):
            continue
        fan_in = op.weight_codes.size // (op.out_channels if op.kind == "conv" else op.out_features)
        bias = 0 if op.bias_int is None else np.abs(op.bias_int.astype(np.float64)).max(initial=0)
        worst = fan_in * (widths.code_max << 7) + int(bias)
        if worst >= 1 << (widths.accumulator - 1):
            raise DatapathOverflowError(
                f"{op.name}: worst-case accumulator {worst} exceeds the "
                f"{widths.accumulator}-bit accumulator of a {widths.bits}-bit datapath"
            )
    return widths.code_max


# -- reference (eager) ops -------------------------------------------------------
def _conv_reference(op: DeployedLayer, codes: np.ndarray, max_code: int) -> np.ndarray:
    n = codes.shape[0]
    k = op.kernel_size
    g = op.groups or 1
    cols, oh, ow = im2col(codes, k, k, op.stride, op.pad)
    syn = (op.in_channels // g) * k * k
    w_int = shift_weight_ints(op.weight_codes).reshape(g, op.out_channels // g, syn)
    cols_g = cols.astype(np.int64).reshape(n, g, syn, -1)
    acc = np.einsum("gfk,ngkp->ngfp", w_int, cols_g, optimize=True)
    acc = acc.reshape(n, op.out_channels, -1)
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
    shift = op.out_frac - op.in_frac
    if shift >= 0:
        out = div_round_half_even(sums << shift, counts[None, None])
    else:
        out = div_round_half_even(sums, counts[None, None] << (-shift))
    return saturate(out, max_code)


def _flatten_reference(op: DeployedLayer, codes: np.ndarray, max_code: int) -> np.ndarray:
    return codes.reshape(codes.shape[0], -1)


# -- compiled kernels ------------------------------------------------------------
#
# The compute kernels run their GEMM in float64 to reach BLAS: the compiler
# has proved every partial sum fits its accumulator (at most 40 bits, far
# below the 2^53 integers IEEE doubles represent exactly), so the result
# is bit-identical to int64 arithmetic regardless of summation order and
# ``astype(np.int64)`` is lossless.  Kernels ignore a second argument.
def _conv_compile(op: DeployedLayer, in_shape: tuple, max_code: int, plane: Optional[np.ndarray] = None):
    c, h, w = in_shape
    k, g = op.kernel_size, op.groups or 1
    syn = (c // g) * k * k
    chw = c * h * w
    shape = (g, op.out_channels // g, syn)
    w_f = decode_weight_plane(op) if plane is None else _check_plane(op, plane, shape)
    index, oh, ow = _im2col_indices(c, h, w, k, op.stride, op.pad)
    positions = oh * ow
    bias = None if op.bias_int is None else op.bias_int[None, :, None].astype(np.float64)
    acc_frac = op.in_frac + 7

    # Batch-transposed layout: gathering from (chw+1, N) yields columns as
    # (c*k*k, positions, N), which reshapes — without copies — into the
    # (g, syn, positions*N) operand of one large GEMM per group instead of
    # N small ones.
    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        n = codes.shape[0]
        flat_t = np.empty((chw + 1, n), dtype=np.float64)
        flat_t[:-1] = codes.reshape(n, chw).T
        flat_t[-1] = 0.0
        cols_t = flat_t[index].reshape(g, syn, positions * n)
        acc_t = np.matmul(w_f, cols_t)  # (g, out_channels/g, positions*n)
        acc_f = acc_t.reshape(op.out_channels, positions, n).transpose(2, 0, 1)
        if bias is not None:
            acc_f = acc_f + bias
        acc = acc_f.astype(np.int64)
        out = accumulator_route(acc, acc_frac, op.out_frac, op.activation, max_code=max_code)
        return out.reshape(n, op.out_channels, oh, ow)

    return kernel, (op.out_channels, oh, ow)


def _dense_compile(op: DeployedLayer, in_shape: tuple, max_code: int, plane: Optional[np.ndarray] = None):
    shape = (op.in_features, op.out_features)
    w_t = decode_weight_plane(op) if plane is None else _check_plane(op, plane, shape)
    bias = None if op.bias_int is None else op.bias_int[None, :].astype(np.float64)
    acc_frac = op.in_frac + 7

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        acc_f = codes.astype(np.float64, copy=False) @ w_t
        if bias is not None:
            acc_f = acc_f + bias
        acc = acc_f.astype(np.int64)
        return accumulator_route(acc, acc_frac, op.out_frac, op.activation, max_code=max_code)

    return kernel, (op.out_features,)


def _maxpool_compile(op: DeployedLayer, in_shape: tuple, max_code: int):
    c, h, w = in_shape
    index, oh, ow = _pool_indices(h, w, op.kernel_size, op.stride, op.pad, op.ceil_mode)
    fill = int(np.iinfo(np.int64).min)

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        n = codes.shape[0]
        flat = _with_sentinel(codes.reshape(n * c, h * w), fill=fill)
        out = flat[:, index].max(axis=-1)
        return requantize_codes(out, op.in_frac, op.out_frac, max_code).reshape(n, c, oh, ow)

    return kernel, (c, oh, ow)


def _avgpool_compile(op: DeployedLayer, in_shape: tuple, max_code: int):
    c, h, w = in_shape
    index, oh, ow = _pool_indices(h, w, op.kernel_size, op.stride, op.pad, op.ceil_mode)
    counts = (index != h * w).sum(axis=-1).astype(np.int64)  # in-bounds taps per window
    shift = op.out_frac - op.in_frac
    if shift >= 0:
        num_shift, den = shift, counts[None]
    else:
        num_shift, den = 0, counts[None] << (-shift)

    def kernel(codes: np.ndarray, _=None) -> np.ndarray:
        n = codes.shape[0]
        flat = _with_sentinel(codes.reshape(n * c, h * w), fill=0)
        sums = flat[:, index].sum(axis=-1)
        out = div_round_half_even(sums << num_shift, den)
        return saturate(out, max_code).reshape(n, c, oh, ow)

    return kernel, (c, oh, ow)


def _flatten_compile(op: DeployedLayer, in_shape: tuple, max_code: int):
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
    :class:`DeployedLayer`.  ``compile(op, in_shape, max_code)`` returns
    ``(kernel, out_shape)`` where ``kernel(codes)`` is the precomputed
    batched closure.  Weighted kinds (conv/dense) additionally accept
    ``compile(op, in_shape, max_code, plane)`` — a pre-decoded weight plane
    (see :func:`decode_weight_plane`), typically a zero-copy
    shared-memory view, used instead of decoding the op's codes.
    """

    kind: str
    reference: Callable[[DeployedLayer, np.ndarray, int], np.ndarray]
    compile: Callable[..., tuple]


#: The single source of truth for executable op kinds; both the eager
#: reference path and :class:`BatchedEngine` dispatch through it.
OP_REGISTRY: dict[str, LayerOpHandler] = {}


def register_op(handler: LayerOpHandler) -> None:
    """Register (or replace) the handler for one op kind."""
    OP_REGISTRY[handler.kind] = handler


register_op(LayerOpHandler("conv", _conv_reference, _conv_compile))
register_op(LayerOpHandler("dense", _dense_reference, _dense_compile))
register_op(LayerOpHandler("maxpool", _maxpool_reference, _maxpool_compile))
register_op(LayerOpHandler("avgpool", _avgpool_reference, _avgpool_compile))
register_op(LayerOpHandler("flatten", _flatten_reference, _flatten_compile))


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
    ``DatapathOverflowError`` before running.
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

    The digest is memoized on the artifact so hot paths (e.g.
    ``Accelerator.run_batched`` hitting the cache per call) hash the
    tensors once, not per lookup.  The memo is paired with ``id(self)``,
    so copies (``inject_weight_faults`` builds a fresh artifact around
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
    totals, but a *shared* cache serves many consumers at once — two
    concurrent campaigns sweeping through the shared campaign cache used
    to measure each other's traffic when they read before/after deltas
    off the global counters.  A ``CacheStats`` instance is the fix: pass
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


class EngineCache:
    """Thread-safe bounded cache of compiled engines, keyed by content.

    ``get`` compiles a :class:`BatchedEngine` on first sight of a
    network's :func:`engine_fingerprint` and returns the *same* engine
    object on every later call with equal content — compile once, serve
    forever.  Eviction is least-recently-used and bounded at
    ``capacity`` entries so sweeping many networks through one cache
    cannot grow memory without bound.

    Concurrency: lookups take a short mutex; compilation happens under a
    separate compile lock with a double-check, so concurrent requests
    for the same network trigger exactly one compile (the losers block
    and receive the winner's engine).  Compiles of *different* networks
    serialize too — compilation is milliseconds for the models served
    here, and the simple locking is easy to prove correct.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
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
        if engine is not None:
            if stats is not None:
                stats.record(hit=True)
            return engine
        with self._compile_lock:
            with self._lock:
                engine = self._lookup_locked(key)
            if engine is not None:
                if stats is not None:
                    stats.record(hit=True)
                return engine
            engine = BatchedEngine(deployed)
            with self._lock:
                self.misses += 1
                self._engines[key] = engine
                while len(self._engines) > self.capacity:
                    self._engines.popitem(last=False)
            if stats is not None:
                stats.record(hit=False)
            return engine

    def install(self, engine: "BatchedEngine") -> None:
        """Seed the cache with an already compiled engine.

        Worker processes that compile against shared-memory weight
        planes install the result here, so every later content-equal
        lookup (``get``) hits without decoding a private plane copy.
        """
        key = engine.fingerprint
        with self._lock:
            self._engines[key] = engine
            self._engines.move_to_end(key)
            while len(self._engines) > self.capacity:
                self._engines.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._engines.clear()


# -- compiled engine -------------------------------------------------------------
@dataclass(frozen=True)
class CompiledOp:
    """One compiled layer: its kernel closure plus shape bookkeeping.

    ``kernel(codes)`` ignores a second positional argument, which
    ``perfbench/layers.py`` passes: the retired run-time width flag.
    """

    name: str
    kind: str
    kernel: Callable[..., np.ndarray]
    out_shape: tuple


class BatchedEngine:
    """Compiled batched executor for one deployed MF-DFP network.

    Compilation walks the op list once, decoding weights through
    :data:`SHIFT_LUT` and building gather-index tables; :meth:`run_codes`
    then streams ``(N, ...)`` batches through the kernel closures.
    Outputs are bit-identical to :func:`execute_deployed` for every batch
    size (integer arithmetic is exact, so batching cannot change values).

    Compiling raises :class:`~repro.hw.datapath.DatapathOverflowError`
    naming the op if an accumulator could overflow.

    Args:
        deployed: The frozen network to compile.
        weight_planes: Optional ``{op_index: decoded plane}`` mapping
            (see :func:`decode_weight_plane`).  Ops present in the map
            compile against the given plane — typically a read-only
            view into a :class:`repro.parallel.SharedWeightArena`
            segment — instead of decoding their own copy; absent ops
            decode as usual.
    """

    def __init__(self, deployed: DeployedMFDFP, weight_planes: Optional[dict] = None):
        if not deployed.ops:
            raise ValueError("cannot compile an empty deployed network")
        max_code = _proved_code_max(deployed)
        self.deployed = deployed
        self.shared_planes = bool(weight_planes)
        self.input_shape = tuple(deployed.input_shape)
        self.input_fmt = DFPFormat(deployed.bits, deployed.input_frac)
        self.program: list[CompiledOp] = []
        shape = self.input_shape
        for i, op in enumerate(deployed.ops):
            plane = weight_planes.get(i) if weight_planes else None
            if plane is not None:
                kernel, shape = _handler(op.kind).compile(op, shape, max_code, plane)
            else:
                kernel, shape = _handler(op.kind).compile(op, shape, max_code)
            self.program.append(CompiledOp(op.name, op.kind, kernel, shape))
        self.output_shape = shape
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
        """Quantize a float batch and return integer output codes."""
        x = np.asarray(x)
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected batch of shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        codes = dfp_to_codes(x, self.input_fmt)
        for op in self.program:
            codes = op.kernel(codes)
        return codes

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
