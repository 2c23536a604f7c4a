"""Fully-connected (inner product) layer."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.nn.initializers import resolve_initializer
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.workspace import buffer


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W.T + b``.

    Args:
        in_features: Input dimensionality.
        out_features: Output dimensionality.
        bias: Whether to add a bias vector.
        weight_init: Initializer name or callable.
        dtype: Parameter dtype.
        rng: Random generator used for initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        weight_init: Union[str, callable] = "xavier",
        dtype=np.float32,
        rng: Optional[np.random.Generator] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        rng = rng or np.random.default_rng(0)  # repro-lint: disable=rng-discipline (documented deterministic init default; golden weight digests depend on it)
        self.in_features = in_features
        self.out_features = out_features
        init = resolve_initializer(weight_init)
        self.weight = Parameter(
            init((out_features, in_features), in_features, out_features, rng, dtype),
            f"{self.name}.weight",
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), f"{self.name}.bias") if bias else None

    @property
    def params(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def effective_weight(self) -> np.ndarray:
        w = self.weight.data
        if self.weight_quantizer is not None:
            w = self.weight_quantizer(w)
        return w

    def output_shape(self, input_shape: tuple) -> tuple:
        flat = int(np.prod(input_shape))
        if flat != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {flat}"
            )
        return (self.out_features,)

    def forward(self, x: np.ndarray, ws=None) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"{self.name}: expected 2-D input, got shape {x.shape}")
        w = self.effective_weight() if ws is None else ws.weight()
        y = buffer(ws, "y", (x.shape[0], self.out_features), np.promote_types(x.dtype, w.dtype))
        np.matmul(x, w.T, out=y)
        if self.bias is not None:
            y += self.bias.data[None, :]
        self._cache = (x, w)
        return self._quantize_output(y, ws)

    def backward(self, grad: np.ndarray, ws=None, need_dx: bool = True) -> Optional[np.ndarray]:
        x, w = self._saved()
        dw = buffer(ws, "dw", w.shape, np.promote_types(grad.dtype, x.dtype))
        np.matmul(grad.T, x, out=dw)
        keep = ws is not None  # a plan's grads are copies, as in Conv2D
        self.weight.grad = dw.astype(self.weight.data.dtype, copy=keep)
        if self.bias is not None:
            db = np.sum(grad, axis=0, out=buffer(ws, "db", grad.shape[1:], grad.dtype))
            self.bias.grad = db.astype(self.bias.data.dtype, copy=keep)
        if not need_dx:
            return None
        dx = buffer(ws, "dx", x.shape, np.promote_types(grad.dtype, w.dtype))
        return np.matmul(grad, w, out=dx)

    def macs(self, input_shape: tuple) -> int:
        """Multiply-accumulate count for one sample."""
        del input_shape
        return self.in_features * self.out_features
