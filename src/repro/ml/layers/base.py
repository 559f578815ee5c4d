"""Layer base classes.

The framework uses explicit forward/backward methods (no autograd): each
layer caches what it needs during ``forward`` and consumes it in
``backward``.  That keeps the arithmetic transparent and the memory
behaviour predictable — caches are plain ndarrays reused per batch.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

import numpy as np


class Layer(abc.ABC):
    """Abstract layer.

    Subclasses implement :meth:`forward` and :meth:`backward` and, if they
    have learnable state, override :attr:`params` / :attr:`grads`.

    Shapes use the Keras convention: the leading axis is the batch.
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__.lower()
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters for ``input_shape`` (sans batch axis).

        Default: shape-preserving layer with no parameters.
        """
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.built = True

    @abc.abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for batch ``x``."""

    @abc.abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/d(output), populate parameter grads and return dL/d(input)."""

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Populate parameter grads only; dL/d(input) is not wanted.

        :class:`~repro.ml.model.Sequential` calls this on its first layer
        with parameters, whose input gradient nothing consumes.  Layers
        whose input gradient costs real work override it to skip that
        work; the default runs :meth:`backward` and drops the result.
        """
        self.backward(grad_out)

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Learnable parameter arrays by name (empty for stateless layers)."""
        return {}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Gradient arrays matching :attr:`params` keys."""
        return {}

    @property
    def n_params(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(
                f"layer {self.name!r} used before build(); add it to a model "
                "or call build(input_shape, rng) first"
            )

    def __repr__(self) -> str:
        shape = self.output_shape if self.built else "?"
        return f"{type(self).__name__}(name={self.name!r}, out={shape})"


class ParamLayer(Layer):
    """Base for layers with learnable parameters.

    Provides dict-backed parameter/gradient storage; subclasses register
    arrays in :attr:`_params` during :meth:`build` and write matching
    entries in :attr:`_grads` during :meth:`backward`.
    """

    def __init__(self, name: Optional[str] = None):
        super().__init__(name)
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        return self._grads

    def set_params(self, new_params: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place (used by serialisation/tests)."""
        for key, value in new_params.items():
            if key not in self._params:
                raise KeyError(f"layer {self.name!r} has no parameter {key!r}")
            if self._params[key].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {self.name}.{key}: "
                    f"{self._params[key].shape} vs {value.shape}"
                )
            self._params[key][...] = value


def flat_param_list(layers: List[Layer]) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """Flatten (qualified name, param, grad) triples across ``layers``.

    Optimisers iterate this to apply updates; the qualified name
    (``layername/paramname``) keys per-parameter optimiser state.
    """
    out: List[Tuple[str, np.ndarray, np.ndarray]] = []
    for i, layer in enumerate(layers):
        for key, p in layer.params.items():
            g = layer.grads.get(key)
            if g is None:
                raise RuntimeError(
                    f"layer {layer.name!r} has param {key!r} but no gradient; "
                    "was backward() called?"
                )
            out.append((f"{i}:{layer.name}/{key}", p, g))
    return out
