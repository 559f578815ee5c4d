"""Reference (oracle) kernels for the numpy CNN layers.

These are the straightforward im2col/col2im convolution, the
copy-then-reduce max pooling and the full-depth backward pass that
``repro.ml`` shipped before its kernels were rewritten for speed.  They
are kept verbatim so tests can require the optimised kernels to produce
*bit-identical* outputs and gradients, and so the ML throughput bench
can time the optimised step against them in one process.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ml import Sequential
from repro.ml.layers import Conv2D, MaxPool2D
from repro.ml.layers.base import flat_param_list
from repro.ml.metrics import accuracy


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int], pad: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding patches of ``x`` as a 2-D matrix."""
    n, h, w, c = x.shape
    sh, sw = stride
    ph, pw = pad
    if ph or pw:
        x = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    hp, wp = x.shape[1], x.shape[2]
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})"
        )
    sn, sh_, sw_, sc = x.strides
    # View of shape (n, oh, ow, kh, kw, c) without copying.
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh_ * sh, sw_ * sw, sh_, sw_, sc),
        writeable=False,
    )
    cols = np.ascontiguousarray(windows).reshape(n * oh * ow, kh * kw * c)
    return cols, (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add column gradients back to input layout (inverse of im2col)."""
    n, h, w, c = x_shape
    sh, sw = stride
    ph, pw = pad
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    grads = cols.reshape(n, oh, ow, kh, kw, c)
    x_grad = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x_grad[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :] += grads[
                :, :, :, i, j, :
            ]
    if ph or pw:
        x_grad = x_grad[:, ph : ph + h, pw : pw + w, :]
    return x_grad


class ReferenceConv2D(Conv2D):
    """:class:`Conv2D` running the reference im2col/col2im kernels."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        kh, kw = self.kernel_size
        cols, (oh, ow) = im2col(x, kh, kw, self.strides, self._pad)
        w_mat = self._params["W"].reshape(-1, self.filters)
        out = cols @ w_mat
        if self.use_bias:
            out += self._params["b"]
        if training:
            self._cols = cols
            self._x_shape = x.shape
        return out.reshape(x.shape[0], oh, ow, self.filters)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward() before forward(training=True)")
        kh, kw = self.kernel_size
        g = grad_out.reshape(-1, self.filters)
        w_grad = (self._cols.T @ g).reshape(self._params["W"].shape)
        self._grads = {"W": w_grad}
        if self.use_bias:
            self._grads["b"] = g.sum(axis=0)
        cols_grad = g @ self._params["W"].reshape(-1, self.filters).T
        grad_in = col2im(
            cols_grad, self._x_shape, kh, kw, self.strides, self._pad
        )
        self._cols = None
        self._x_shape = None
        return grad_in


class ReferenceMaxPool2D(MaxPool2D):
    """:class:`MaxPool2D` running the reference copy + max/argmax kernels."""

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
        windows = self._windows(x)
        n, oh, ow, ph, pw, c = windows.shape
        flat = windows.reshape(n, oh, ow, ph * pw, c)
        out = flat.max(axis=3)
        if training:
            self._argmax = flat.argmax(axis=3)
            self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward() before forward(training=True)")
        n, h, w, c = self._x_shape
        ph, pw = self.pool_size
        sh, sw = self.strides
        oh, ow, _ = self.output_shape  # type: ignore[misc]
        grad_in = np.zeros(self._x_shape, dtype=grad_out.dtype)
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


def reference_train_on_batch(
    model: Sequential, x: np.ndarray, y: np.ndarray
) -> Dict[str, float]:
    """The reference training step: backward through every layer."""
    out = model.forward(x, training=True)
    loss_value = model.loss.value(y, out)
    grad = model.loss.gradient(y, out)
    for layer in reversed(model.layers):
        grad = layer.backward(grad)
    model.optimizer.apply_gradients(flat_param_list(model.layers))
    return {"loss": loss_value, "accuracy": accuracy(y, out)}


def as_reference(model: Sequential) -> Sequential:
    """Switch ``model``'s Conv2D/MaxPool2D layers to the reference kernels.

    The layers keep their parameters and configuration (the class is
    swapped in place), so a model built from the same config and seed
    trains on the reference kernels from identical weights.
    """
    for layer in model.layers:
        if type(layer) is Conv2D:
            layer.__class__ = ReferenceConv2D
        elif type(layer) is MaxPool2D:
            layer.__class__ = ReferenceMaxPool2D
    return model
