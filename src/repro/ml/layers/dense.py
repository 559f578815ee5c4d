"""Fully-connected layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ml.initializers import get_initializer
from repro.ml.layers.base import ParamLayer
from repro.util.validation import check_positive


class Dense(ParamLayer):
    """``y = x @ W + b`` over a flat feature axis.

    Parameters
    ----------
    units:
        Output dimensionality.
    kernel_initializer / bias_initializer:
        Initialiser names (see :mod:`repro.ml.initializers`).
    use_bias:
        Whether to learn an additive bias.
    """

    def __init__(
        self,
        units: int,
        kernel_initializer: str = "glorot_uniform",
        bias_initializer: str = "zeros",
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name)
        check_positive("units", units)
        self.units = int(units)
        self.kernel_initializer = kernel_initializer
        self.bias_initializer = bias_initializer
        self.use_bias = use_bias
        self._x: Optional[np.ndarray] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat inputs (got shape {input_shape}); "
                "add a Flatten layer first"
            )
        in_features = int(input_shape[0])
        kinit = get_initializer(self.kernel_initializer)
        binit = get_initializer(self.bias_initializer)
        self._params = {"W": kinit((in_features, self.units), rng)}
        if self.use_bias:
            self._params["b"] = binit((self.units,), rng)
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.units,)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        if training:
            self._x = x
        y = x @ self._params["W"]
        if self.use_bias:
            y += self._params["b"]
        return y

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._require_built()
        if self._x is None:
            raise RuntimeError("backward() before forward(training=True)")
        x = self._x
        self._grads = {"W": x.T @ grad_out}
        if self.use_bias:
            self._grads["b"] = grad_out.sum(axis=0)
        self._x = None  # release the cache promptly (memory hygiene)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        return grad_out @ self._params["W"].T
