"""Max pooling."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ml.layers.base import Layer


def _pair(v) -> Tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    a, b = v
    return (int(a), int(b))


class MaxPool2D(Layer):
    """Max pooling over non-overlapping (or strided) windows, channels-last.

    When ``pool == stride`` the windows tile the input (a trailing odd
    row/column is cropped), so the input is viewed — not copied — as
    ``(n, oh, ph, ow, pw, c)``.  The max is a chain of elementwise
    ``np.maximum`` over the ``ph * pw`` window positions, the argmax a
    pass over the same positions, and backward writes each window's
    gradient once: no window copy, no gather and no scatter.  Values,
    NaN propagation and tie-breaking (first occurrence) equal
    ``max``/``argmax`` over each window.  Overlapping windows
    (``stride < pool``) or gapped ones use a strided-view reduction and a
    scatter-add.
    """

    def __init__(self, pool_size=2, strides=None, name: Optional[str] = None):
        super().__init__(name)
        self.pool_size = _pair(pool_size)
        self.strides = _pair(strides) if strides is not None else self.pool_size
        self._argmax: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(
                f"MaxPool2D expects (h, w, c) inputs, got {input_shape}"
            )
        h, w, c = (int(d) for d in input_shape)
        ph, pw = self.pool_size
        sh, sw = self.strides
        oh = (h - ph) // sh + 1
        ow = (w - pw) // sw + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"pool {self.pool_size} does not fit input {input_shape}"
            )
        self.input_shape = (h, w, c)
        self.output_shape = (oh, ow, c)
        self.built = True

    def _tiles(self, x: np.ndarray) -> list:
        """The ``ph * pw`` window positions of a tiling pool, as views.

        Entry ``dy * pw + dx`` has shape ``(n, oh, ow, c)`` and holds the
        element at offset ``(dy, dx)`` of every window.
        """
        n, _, _, c = x.shape
        ph, pw = self.pool_size
        oh, ow, _ = self.output_shape  # type: ignore[misc]
        v = x[:, : oh * ph, : ow * pw, :].reshape(n, oh, ph, ow, pw, c)
        return [v[:, :, dy, :, dx, :] for dy in range(ph) for dx in range(pw)]

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """Strided view ``(n, oh, ow, ph, pw, c)`` over pooling windows."""
        n, h, w, c = x.shape
        ph, pw = self.pool_size
        sh, sw = self.strides
        oh, ow, _ = self.output_shape  # type: ignore[misc]
        sn, sh_, sw_, sc = x.strides
        return np.lib.stride_tricks.as_strided(
            x,
            shape=(n, oh, ow, ph, pw, c),
            strides=(sn, sh_ * sh, sw_ * sw, sh_, sw_, sc),
            writeable=False,
        )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        if self.strides != self.pool_size:
            windows = self._windows(x)
            n, oh, ow, ph, pw, c = windows.shape
            flat = windows.reshape(n, oh, ow, ph * pw, c)
            out = flat.max(axis=3)
            if training:
                self._argmax = flat.argmax(axis=3)
                self._x_shape = x.shape
            return out
        tiles = self._tiles(x)
        out = tiles[0].copy()
        for t in tiles[1:]:
            np.maximum(out, t, out=out)
        if training:
            # First occurrence wins: write positions last-to-first.
            argmax = np.zeros(out.shape, dtype=np.min_scalar_type(len(tiles)))
            for k in range(len(tiles) - 1, -1, -1):
                np.copyto(argmax, k, where=tiles[k] == out)
            nan = np.isnan(out)
            if nan.any():
                # A NaN window's max is NaN, which equals nothing: its
                # argmax is its first NaN, as for np.argmax.
                for k in range(len(tiles) - 1, -1, -1):
                    np.copyto(argmax, k, where=nan & np.isnan(tiles[k]))
            self._argmax = argmax
            self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward() before forward(training=True)")
        grad_in = np.zeros(self._x_shape, dtype=grad_out.dtype)
        if self.strides == self.pool_size:
            # 0.0 + g, exactly what a scatter-add into zeros writes (-0.0
            # becomes +0.0).
            grad = grad_out + 0.0
            for k, tile in enumerate(self._tiles(grad_in)):
                tile[...] = np.where(self._argmax == k, grad, 0.0)
        else:
            n, h, w, c = self._x_shape
            ph, pw = self.pool_size
            sh, sw = self.strides
            oh, ow, _ = self.output_shape  # type: ignore[misc]
            # Decompose flat argmax back into (dy, dx) offsets.
            dy = self._argmax // pw
            dx = self._argmax % pw
            n_idx, oh_idx, ow_idx, c_idx = np.indices((n, oh, ow, c))
            rows = oh_idx * sh + dy
            cols_ = ow_idx * sw + dx
            np.add.at(grad_in, (n_idx, rows, cols_, c_idx), grad_out)
        self._argmax = None
        self._x_shape = None
        return grad_in
