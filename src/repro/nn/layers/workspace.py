"""Training-plan workspaces: the arrays a planned layer reuses.

The seven planned layer types take ``forward(x, ws=None)`` and
``backward(grad, ws=None, need_dx=True)``.  Without a workspace every
array is freshly allocated, as an eager call always has been.  With one
(built by :class:`repro.nn.compiled.TrainPlan`), the same code writes the
same values into persistent arrays through ``out=`` arguments, so the
two paths are one float sequence by construction.

The layers ask for arrays through :func:`buffer` and :func:`scratch`,
which serve both cases: a workspace's array when there is one, a new
array when there is not.  Nothing outlives a call without a workspace
beyond what the layer keeps for its own backward pass.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np


class Scratch:
    """Transient arrays shared by one plan's layers, one buffer per dtype.

    Every request of one dtype is a view of the same buffer, grown on
    demand.  So a scratch value must be dead before the next request of
    its dtype; anything a backward pass reads is a layer's persistent
    :meth:`Workspace.buffer` instead.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def get(self, shape: tuple, dtype) -> np.ndarray:
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


class Workspace:
    """One layer's persistent arrays and hook facts inside one plan.

    Args:
        scratch: The plan's shared :class:`Scratch`.
        weight: Returns the layer's effective weights (the plan memoizes
            them per master tensor); None for weightless layers.
        hook: The layer's output hook when it is not fused.
        fused: ``fused(y, out)`` writes the DFP-quantized ``y`` into
            ``out`` without allocating; set when the output hook is
            exactly a :class:`~repro.core.dfp.DFPQuantizer`.
        in_grid: The DFP format the layer's input sits on (the previous
            output hook, or the network's input quantizer, is exactly a
            ``DFPQuantizer``), else None.
    """

    def __init__(
        self,
        scratch: Scratch,
        weight: Optional[Callable[[], np.ndarray]] = None,
        hook: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        fused: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        in_grid=None,
    ):
        self._arrays: dict[str, np.ndarray] = {}
        self._scratch = scratch
        self.weight = weight
        self._hook = hook
        self._fused = fused
        self.in_grid = in_grid

    @property
    def rounds_output(self) -> bool:
        """True when the output is rounded onto a DFP grid."""
        return self._fused is not None

    def buffer(self, name: str, shape: tuple, dtype, fill=None) -> np.ndarray:
        """The persistent array ``name``, made (and filled) on first use."""
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = _new(shape, dtype, fill)
            self._arrays[name] = arr
        return arr

    def quantize(self, y: np.ndarray, owned: bool = True) -> np.ndarray:
        """Apply the output hook; a fused hook rounds ``y`` in place.

        ``owned=False`` marks ``y`` as someone else's array (a view of
        the layer's input): a fused hook then writes into a buffer of
        its own instead.
        """
        if self._fused is None:
            return y if self._hook is None else self._hook(y)
        return self._fused(y, y if owned else self.buffer("quantized", y.shape, y.dtype))


def _new(shape: tuple, dtype, fill) -> np.ndarray:
    if fill is None:
        return np.empty(shape, dtype=dtype)
    return np.full(shape, fill() if callable(fill) else fill, dtype=dtype)


def buffer(ws: Optional[Workspace], name: str, shape: tuple, dtype, fill=None) -> np.ndarray:
    """``ws``'s persistent array ``name``, or a new one without a workspace.

    ``fill`` (a value, or a function returning the contents) initializes
    the array when it is made; a persistent array keeps whatever its
    owner wrote since, so a padded border stays padding.
    """
    if ws is None:
        return _new(shape, dtype, fill)
    return ws.buffer(name, shape, dtype, fill)


def scratch(ws: Optional[Workspace], shape: tuple, dtype) -> np.ndarray:
    """A transient array: the plan's shared scratch, or a new one."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws._scratch.get(shape, dtype)
