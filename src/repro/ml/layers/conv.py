"""2-D convolution via im2col.

The convolution is lowered to one large GEMM per batch (the standard
im2col trick), which keeps the hot path inside BLAS instead of Python
loops — the central idiom of the HPC-Python guides.  Data layout is
channels-last ``(batch, height, width, channels)`` like Keras.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from repro.ml.initializers import get_initializer
from repro.ml.layers.base import ParamLayer
from repro.util.validation import check_one_of, check_positive


def _pair(v) -> Tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    a, b = v
    return (int(a), int(b))


@functools.lru_cache(maxsize=64)
def _patch_index(
    hp: int, wp: int, c: int, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    """Flat offsets, into one padded ``(hp, wp, c)`` image, of its patches.

    Laid out ``(oh, ow, kh, kw, c)`` — the row-major order of one image's
    block of im2col rows.  Read-only: the cache hands it to every caller.
    """
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    oy, ox, i, j, ch = np.ogrid[:oh, :ow, :kh, :kw, :c]
    index = (((oy * sh + i) * wp + ox * sw + j) * c + ch).reshape(-1)
    index.setflags(write=False)
    return index


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int], pad: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding patches of ``x`` as a 2-D matrix.

    Parameters
    ----------
    x:
        Input of shape ``(n, h, w, c)``.
    kh, kw:
        Kernel height/width.
    stride, pad:
        Stride and symmetric zero padding per spatial axis.

    Returns
    -------
    (cols, (oh, ow)):
        ``cols`` has shape ``(n * oh * ow, kh * kw * c)``; ``oh, ow`` are
        the output spatial dims.
    """
    n, h, w, c = x.shape
    sh, sw = stride
    ph, pw = pad
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})"
        )
    if ph or pw:
        padded = np.zeros((n, hp, wp, c), dtype=x.dtype)
        padded[:, ph : ph + h, pw : pw + w, :] = x
        x = padded
    # One gather per image row of the batch: a strided window copy would
    # run numpy's inner loop over only kw * c elements at a time.
    index = _patch_index(hp, wp, c, kh, kw, sh, sw)
    cols = x.reshape(n, hp * wp * c).take(index, axis=1)
    return cols.reshape(n * oh * ow, kh * kw * c), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add column gradients back to input layout (inverse of im2col).

    Each input element sums its contributions in kernel-offset order
    ``(i, j)``, starting from zero.
    """
    n, h, w, c = x_shape
    sh, sw = stride
    ph, pw = pad
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    # Kernel offsets outermost, so each offset's gradient block is one
    # contiguous (n, oh, ow, c) array rather than a c-element-strided view.
    grads = np.ascontiguousarray(
        cols.reshape(n, oh, ow, kh, kw, c).transpose(3, 4, 0, 1, 2, 5)
    )
    x_grad = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x_grad[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :] += grads[i, j]
    if ph or pw:
        x_grad = x_grad[:, ph : ph + h, pw : pw + w, :]
    return x_grad


class Conv2D(ParamLayer):
    """2-D convolution (channels-last).

    Parameters
    ----------
    filters:
        Number of output channels.
    kernel_size:
        int or (kh, kw).
    strides:
        int or (sh, sw).
    padding:
        ``"valid"`` (no padding) or ``"same"`` (output spatial size equals
        ``ceil(input / stride)``).
    """

    def __init__(
        self,
        filters: int,
        kernel_size=3,
        strides=1,
        padding: str = "valid",
        kernel_initializer: str = "he_normal",
        bias_initializer: str = "zeros",
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name)
        check_positive("filters", filters)
        check_one_of("padding", padding, ["valid", "same"])
        self.filters = int(filters)
        self.kernel_size = _pair(kernel_size)
        self.strides = _pair(strides)
        self.padding = padding
        self.kernel_initializer = kernel_initializer
        self.bias_initializer = bias_initializer
        self.use_bias = use_bias
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._pad: Tuple[int, int] = (0, 0)

    def _compute_pad(self, h: int, w: int) -> Tuple[int, int]:
        if self.padding == "valid":
            return (0, 0)
        kh, kw = self.kernel_size
        sh, sw = self.strides
        # "same": total pad so that out = ceil(in / stride); we use the
        # symmetric half (sufficient for the odd kernels used here).
        ph = max(0, ((-h) % sh) + kh - sh) // 2 if sh > 1 else (kh - 1) // 2
        pw = max(0, ((-w) % sw) + kw - sw) // 2 if sw > 1 else (kw - 1) // 2
        return (ph, pw)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(
                f"Conv2D expects (h, w, c) inputs, got shape {input_shape}"
            )
        h, w, c = (int(d) for d in input_shape)
        kh, kw = self.kernel_size
        sh, sw = self.strides
        self._pad = self._compute_pad(h, w)
        ph, pw = self._pad
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"Conv2D kernel {self.kernel_size} with strides {self.strides} "
                f"does not fit input {input_shape}"
            )
        kinit = get_initializer(self.kernel_initializer)
        binit = get_initializer(self.bias_initializer)
        self._params = {"W": kinit((kh, kw, c, self.filters), rng)}
        if self.use_bias:
            self._params["b"] = binit((self.filters,), rng)
        self.input_shape = (h, w, c)
        self.output_shape = (oh, ow, self.filters)
        self.built = True

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

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._require_built()
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward() before forward(training=True)")
        g = grad_out.reshape(-1, self.filters)
        w_grad = (self._cols.T @ g).reshape(self._params["W"].shape)
        self._grads = {"W": w_grad}
        if self.use_bias:
            self._grads["b"] = g.sum(axis=0)
        self._cols = None
        self._x_shape = None

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape = self._x_shape
        self.backward_params(grad_out)
        assert x_shape is not None
        kh, kw = self.kernel_size
        g = grad_out.reshape(-1, self.filters)
        cols_grad = g @ self._params["W"].reshape(-1, self.filters).T
        return col2im(cols_grad, x_shape, kh, kw, self.strides, self._pad)
