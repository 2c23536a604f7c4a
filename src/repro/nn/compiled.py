"""Compiled training fast path: planned workspaces for the layers.

Training is the paper's dominant cost (Algorithm 1 fine-tunes every
MF-DFP network for tens of epochs), yet the eager layer stack re-derives
everything on every step: fresh im2col/col2im allocations per conv per
batch, a new set of quantization temporaries at every DFP boundary, and a
full re-quantization of every master weight tensor on every forward —
including the many validation forwards between which no weight changes.

This module gives training the same treatment
:class:`repro.core.engine.BatchedEngine` gave inference, under one hard
constraint the integer engine never faced: float arithmetic is order
sensitive.  So it owns no arithmetic of its own.  Each planned layer
type — ``Conv2D``, ``Dense``, ``ReLU``, ``MaxPool2D``, ``AvgPool2D``,
``Flatten``, ``Dropout`` — has one implementation of its forward and
backward, and the plan runs it with a
:class:`~repro.nn.layers.workspace.Workspace`.  The plan wins by what
it does around the arithmetic:

* **Planned workspaces.**  A :class:`TrainPlan` per ``(input shape,
  dtype)`` hands each layer persistent arrays, made on first use and
  reused via ``out=`` arguments after; a steady-state training step
  allocates nothing large.
* **Fused quantized fine-tuning.**  DFP activation quantizers are fused
  into in-place kernels (no int64/float64 round-trip allocations), and
  deterministic weight quantizers are memoized on the *identity of the
  master tensor*: the optimizer rebinding ``param.data`` invalidates the
  entry, so training steps requantize exactly the tensors that changed
  while validation sweeps and the per-epoch MF-DFP snapshot requantize
  nothing.  Stochastic hooks are never cached (each call consumes RNG
  state), keeping bit-identity with the eager path.
* **Hook facts.**  The plan tells each layer what the hooks around it
  guarantee: an input on a DFP grid (the average pool's exact tap sum)
  and an output rounded onto one (the max pool's inference tap scan).
* **Dead input gradient.**  The trainer discards the gradient with
  respect to the network input, so the first layer runs its backward
  with ``need_dx=False``; for a leading convolution that deletes a GEMM
  and the col2im scatter per step.
* **Inference forwards.**  A forward with ``training=False`` (validation,
  the phase-2 teacher) allocates only what inference needs: a
  convolution lowers a block of samples at a time into the shared
  scratch (:data:`~repro.nn.layers.conv.INFERENCE_BLOCK_BYTES`), ReLU
  computes no mask and max pooling keeps no taps or argmax.  The plan
  then clears its planned layers' caches, so a backward after it raises
  the typed "backward called before forward" error.

Every other layer — LRN, Tanh, Sigmoid, any user-defined layer or
subclass, since a subclass may override the arithmetic — runs its plain
``forward(x)`` and ``backward(grad)`` inside the plan.  Any change to
the network's structure or hook objects drops the plans and recompiles.
``Trainer(compiled=True)`` (the default) is therefore bit-identical to
``compiled=False``; ``tests/nn/test_training_reference.py`` holds both
to a frozen copy of the layers' arithmetic.
"""

from __future__ import annotations

import functools
import time
from typing import Optional

import numpy as np

from repro.nn.layers.activations import ReLU
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.pool import AvgPool2D, MaxPool2D
from repro.nn.layers.workspace import Scratch, Workspace
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


def _make_dfp_inplace(fmt, scratch: Scratch):
    """Allocation-free kernel replaying ``dfp_quantize`` exactly.

    Same chain as the eager hook — float64 scale, ``rint`` and
    saturation in float (:func:`~repro.core.dfp.rint_saturate`), rescale,
    cast back — through the plan's scratch, written into ``out`` (which
    may be ``y`` itself).
    """
    from repro.core.dfp import rint_saturate  # lazy: core imports nn

    scale = 2.0 ** fmt.frac
    res = fmt.resolution

    def apply(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        f64 = scratch.get(y.shape, np.float64)
        np.multiply(y, scale, out=f64)
        rint_saturate(f64, fmt.max_code)
        # Adding +0.0 turns a -0.0 code into the +0.0 the eager hook's
        # int64 codes give.  The codes are then exact integers in float64,
        # so this is the same double product and the same final rounding
        # as the eager two-step (codes.astype(f64) * res).astype(x.dtype).
        f64 += 0.0
        np.multiply(f64, res, out=out, casting="same_kind")
        return out

    return apply


def _workspace(scratch: Scratch, hook, weight=None, in_grid=None) -> Workspace:
    """A layer's workspace, with its output hook fused when it can be."""
    fmt = _dfp_fmt(hook)
    if fmt is None:
        return Workspace(scratch, weight=weight, hook=hook, in_grid=in_grid)
    return Workspace(scratch, weight=weight, fused=_make_dfp_inplace(fmt, scratch), in_grid=in_grid)


#: Exact-type dispatch: a subclass may override the arithmetic, so it
#: runs its plain ``forward(x)``/``backward(grad)`` instead.
_PLANNED = frozenset({Conv2D, Dense, ReLU, MaxPool2D, AvgPool2D, Flatten, Dropout})


class _Step:
    """One layer of a plan: its bound calls plus profiling accumulators."""

    __slots__ = ("name", "kind", "planned", "fwd", "bwd", "fwd_s", "bwd_s", "fwd_calls", "bwd_calls")

    def __init__(self, layer: Layer, ws: Optional[Workspace], need_dx: bool):
        self.name = layer.name
        self.kind = type(layer).__name__
        self.planned = ws is not None
        if ws is None:
            self.fwd, self.bwd = layer.forward, layer.backward
        else:
            self.fwd = functools.partial(layer.forward, ws=ws)
            self.bwd = functools.partial(layer.backward, ws=ws, need_dx=need_dx)
        self.fwd_s = 0.0
        self.bwd_s = 0.0
        self.fwd_calls = 0
        self.bwd_calls = 0


class TrainPlan:
    """The network's layers bound to workspaces for one ``(shape, dtype)``.

    Each planned layer gets its own :class:`Workspace`, whose arrays are
    made on first use; all of them share one transient
    :class:`~repro.nn.layers.workspace.Scratch`.  The first layer's
    backward skips its input gradient, which the trainer never reads.
    A forward with ``training=False`` keeps nothing for a backward and
    clears the ``_cache`` of every layer in :attr:`planned`.
    """

    def __init__(self, net: Network, cache: QuantizedWeightCache, profile: bool = False):
        self.net = net
        self.profile = profile
        scratch = Scratch()
        self.input_ws = _workspace(scratch, net.input_quantizer)
        in_grid = _dfp_fmt(net.input_quantizer)
        self.steps: list[_Step] = []
        self.planned: list[Layer] = []
        for i, layer in enumerate(net.layers):
            ws = None
            if type(layer) in _PLANNED:
                weight = None
                if getattr(layer, "weight", None) is not None:
                    weight = functools.partial(cache.effective_weight, layer)
                ws = _workspace(scratch, layer.output_quantizer, weight, in_grid)
                self.planned.append(layer)
            self.steps.append(_Step(layer, ws, need_dx=i > 0))
            in_grid = _dfp_fmt(layer.output_quantizer)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self.net.set_training(training)
        x = self.input_ws.quantize(x, owned=False)
        if not self.profile:
            for step in self.steps:
                x = step.fwd(x)
        else:
            for step in self.steps:
                t0 = time.perf_counter()
                x = step.fwd(x)
                step.fwd_s += time.perf_counter() - t0
                step.fwd_calls += 1
        if not training:
            # An inference forward kept nothing a backward could use: a
            # backward now raises instead of reading scratch.
            for layer in self.planned:
                layer._cache = None
        return x

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        if not self.profile:
            for step in reversed(self.steps):
                grad = step.bwd(grad)
            return grad
        for step in reversed(self.steps):
            t0 = time.perf_counter()
            grad = step.bwd(grad)
            step.bwd_s += time.perf_counter() - t0
            step.bwd_calls += 1
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

    All execution is bit-identical to the eager ``Network`` path: both
    run the same layer code (see the module docstring).
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
        """Inference-mode forward pass (mirrors ``Network.logits``).

        Bit-identical to ``Network.logits``, but it keeps no backward
        state: the network's planned layers hold no ``_cache`` after it.
        The returned array is the plan's buffer; the next forward at
        this shape overwrites it.
        """
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
            for step in plan.steps:
                row = by_name.setdefault(
                    step.name,
                    {
                        "layer": step.name,
                        "kind": step.kind,
                        "planned": step.planned,
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
        note = "" if row["planned"] else "plain forward (no workspace)"
        lines.append(
            f"{row['layer']:<14}{row['kind']:<14}{row['forward_s']:>10.4f}"
            f"{row['backward_s']:>10.4f}{row['forward_s'] + row['backward_s']:>10.4f}  {note}"
        )
    lines.append(
        f"{'total':<28}{total_f:>10.4f}{total_b:>10.4f}{total_f + total_b:>10.4f}"
    )
    return "\n".join(lines)
