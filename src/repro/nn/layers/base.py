"""Layer and Parameter base classes.

Every layer implements ``forward`` / ``backward`` and exposes its trainable
tensors as :class:`Parameter` objects.  Two hooks make the MF-DFP flow of
the paper possible without subclassing:

``weight_quantizer``
    Callable applied to the *master* (floating-point) weights at forward
    time.  Gradients are computed with respect to the quantized weights and
    applied to the master copy — exactly the shadow-weight scheme of
    Courbariaux et al. adopted in Algorithm 1 of the paper.

``output_quantizer``
    Callable applied to the layer output at forward time (8-bit dynamic
    fixed point in the paper).  The backward pass uses the straight-through
    estimator: gradients flow through the quantizer unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

QuantFn = Callable[[np.ndarray], np.ndarray]


class Parameter:
    """A trainable tensor: master data plus its current gradient.

    Attributes:
        data: Master floating-point value, updated by the optimizer.
        grad: Gradient of the loss with respect to the (possibly quantized)
            value used in the forward pass; same shape as ``data``.
        name: Human-readable identifier, set by the owning network.
    """

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Layer:
    """Base class for all layers.

    Subclasses override :meth:`forward` and :meth:`backward`; layers with
    trainable state also populate :attr:`params`.  What a forward pass
    keeps for the backward pass lives in ``_cache``, and :meth:`_saved`
    reads it back.

    The planned layer types also take a training plan's
    :class:`~repro.nn.layers.workspace.Workspace`:
    ``forward(x, ws=None)`` and ``backward(grad, ws=None, need_dx=True)``.
    ``need_dx=False`` skips the input gradient (the plan's first layer)
    and returns None.  A plan's inference forward (a workspace, training
    off) keeps nothing for backward, and the plan clears ``_cache``
    after it; copies of a layer never carry a ``_cache`` either.
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__.lower()
        self.training = False
        self.weight_quantizer: Optional[QuantFn] = None
        self.output_quantizer: Optional[QuantFn] = None
        self._cache = None

    # -- interface ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> list[Parameter]:
        """Trainable parameters of this layer (empty for stateless layers)."""
        return []

    # -- helpers -----------------------------------------------------------
    def _quantize_output(self, y: np.ndarray, ws=None, owned: bool = True) -> np.ndarray:
        """Apply the output quantizer, if any (straight-through backward).

        With a workspace, its fused hook rounds in place; ``owned=False``
        says ``y`` is a view of the input, which must not change.
        """
        if ws is not None:
            return ws.quantize(y, owned)
        if self.output_quantizer is not None:
            return self.output_quantizer(y)
        return y

    def _inference(self, ws) -> bool:
        """True for a plan's inference forward, which has no backward."""
        return ws is not None and not self.training

    def _saved(self):
        """What the last forward kept for backward; raises before any forward."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        return self._cache

    def effective_weight(self) -> Optional[np.ndarray]:
        """Weights as seen by the forward pass (after quantization hook)."""
        return None

    def output_shape(self, input_shape: tuple) -> tuple:
        """Shape of the output given a single-sample ``input_shape`` (no batch)."""
        raise NotImplementedError

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __getstate__(self) -> dict:
        # What the last forward kept belongs to that forward on this
        # object: a copy or pickle has run none, so it carries none.
        state = self.__dict__.copy()
        state["_cache"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
