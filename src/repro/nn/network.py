"""Sequential network container."""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.nn.layers.base import Layer, Parameter


class Network:
    """A feed-forward stack of layers.

    Args:
        layers: The layers, applied in order.
        input_shape: Optional single-sample input shape ``(C, H, W)`` or
            ``(D,)``; enables :meth:`summary` and shape inference.
        name: Network identifier (used in reports).

    The optional :attr:`input_quantizer` is applied to the raw input before
    the first layer — the paper quantizes input data to 8-bit fixed point.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Optional[tuple] = None,
        name: str = "net",
    ):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.name = name
        self.input_quantizer: Optional[Callable[[np.ndarray], np.ndarray]] = None
        seen: dict[str, int] = {}
        for layer in self.layers:
            base = layer.name
            if base in seen:
                seen[base] += 1
                layer.name = f"{base}_{seen[base]}"
            else:
                seen[base] = 0
            for p in layer.params:
                p.name = f"{layer.name}.{p.name.rsplit('.', 1)[-1]}"

    # -- execution ---------------------------------------------------------
    def set_training(self, training: bool) -> None:
        """Set every layer's training flag (shared with the compiled path)."""
        for layer in self.layers:
            layer.training = training

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the network; returns the final layer output (logits)."""
        self.set_training(training)
        if self.input_quantizer is not None:
            x = self.input_quantizer(x)
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad`` (dL/dlogits); returns dL/dinput."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, training=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices for a batch."""
        return self.logits(x).argmax(axis=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameters --------------------------------------------------------
    @property
    def params(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.params]

    def param_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.params)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def get_weights(self) -> dict[str, np.ndarray]:
        """Copy of all parameters keyed by name."""
        return {p.name: p.data.copy() for p in self.params}

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        """Load parameters from :meth:`get_weights` output (strict match)."""
        own = {p.name: p for p in self.params}
        if set(own) != set(weights):
            missing = set(own) ^ set(weights)
            raise KeyError(f"weight name mismatch: {sorted(missing)}")
        for name, value in weights.items():
            p = own[name]
            if p.data.shape != value.shape:
                raise ValueError(f"{name}: shape {value.shape} != {p.data.shape}")
            p.data = value.astype(p.data.dtype).copy()

    def save(self, path) -> None:
        """Serialize parameters to an ``.npz`` file."""
        np.savez(path, **self.get_weights())

    def load(self, path) -> None:
        """Load parameters saved with :meth:`save`."""
        with np.load(path) as data:
            self.set_weights({k: data[k] for k in data.files})

    def clone(self) -> "Network":
        """Deep copy of the network (structure, weights, and hooks).

        What the last forward kept for backward (each layer's
        ``_cache``) is not copied: the clone has run no forward, and a
        backward on it raises until it does.
        """
        return copy.deepcopy(self)

    # -- introspection -----------------------------------------------------
    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r} in {self.name!r}")

    def compute_layers(self) -> list[Layer]:
        """Layers with trainable weights (conv/dense) in execution order."""
        return [layer for layer in self.layers if layer.params]

    def layer_shapes(self) -> list[tuple[str, tuple]]:
        """(layer name, single-sample output shape) pairs, in order.

        Requires ``input_shape`` to have been provided.
        """
        if self.input_shape is None:
            raise ValueError("network was built without input_shape")
        shapes = []
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append((layer.name, shape))
        return shapes

    def summary(self) -> str:
        """Human-readable table of layers, shapes and parameter counts."""
        lines = [f"Network {self.name!r}"]
        header = f"{'layer':<18}{'output shape':<20}{'params':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        shapes: Iterable = self.layer_shapes() if self.input_shape else ((l.name, "?") for l in self.layers)
        by_name = {layer.name: layer for layer in self.layers}
        for lname, shape in shapes:
            n = sum(p.size for p in by_name[lname].params)
            lines.append(f"{lname:<18}{str(shape):<20}{n:>10}")
        lines.append("-" * len(header))
        lines.append(f"{'total':<38}{self.param_count():>10}")
        return "\n".join(lines)
