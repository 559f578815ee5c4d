"""Ablation — ML framework throughput (the HPC-Python guide idioms).

DESIGN.md calls out the vectorised (im2col → GEMM) convolution as a
design choice; this bench quantifies it against a naive per-window
Python-loop reference on identical weights, and records the end-to-end
training throughput of the two model-zoo architectures.  The training
tasks inside every HPO figure inherit this speed.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import banner

from repro.ml import Conv2D, create_model
from repro.ml.datasets import load_cifar_like, load_mnist_like

REPO_ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS_PATH = Path(__file__).resolve().parent / "perf_thresholds.json"
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))  # the reference kernels live in tests/


def naive_conv_forward(x, w, b):
    """Reference convolution: explicit loops over every output position."""
    n, h, wd, c = x.shape
    kh, kw, _, f = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    out = np.zeros((n, oh, ow, f))
    for img in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = x[img, i : i + kh, j : j + kw, :]
                out[img, i, j] = (
                    (patch[..., None] * w).sum(axis=(0, 1, 2)) + b
                )
    return out


def test_im2col_matches_and_beats_naive(benchmark):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 12, 12, 3))
    layer = Conv2D(8, kernel_size=3, padding="valid")
    layer.build(x.shape[1:], rng)
    w, b = layer.params["W"], layer.params["b"]

    fast = benchmark(lambda: layer.forward(x))
    import time

    t0 = time.perf_counter()
    slow = naive_conv_forward(x, w, b)
    naive_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    layer.forward(x)
    fast_s = time.perf_counter() - t0

    banner("Ablation — im2col convolution vs naive loops")
    print(
        f"naive loops: {naive_s * 1e3:7.1f} ms   "
        f"im2col+GEMM: {fast_s * 1e3:7.1f} ms   "
        f"speedup ×{naive_s / max(fast_s, 1e-9):.0f}"
    )
    np.testing.assert_allclose(fast, slow, atol=1e-10)
    assert fast_s < naive_s  # vectorisation must win


def test_training_throughput(benchmark):
    (x, y), _ = load_mnist_like(n_train=512, n_test=10)
    mlp = create_model({"optimizer": "Adam"}, input_shape=x.shape[1:])

    def one_epoch():
        mlp.fit(x, y, epochs=1, batch_size=64, shuffle=False)
        return x.shape[0]

    benchmark(one_epoch)
    (xc, yc), _ = load_cifar_like(n_train=256, n_test=10)
    cnn = create_model({"optimizer": "Adam"}, input_shape=xc.shape[1:])
    import time

    t0 = time.perf_counter()
    cnn.fit(xc, yc, epochs=1, batch_size=64, shuffle=False)
    cnn_sps = xc.shape[0] / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    mlp.fit(x, y, epochs=1, batch_size=64, shuffle=False)
    mlp_sps = x.shape[0] / (time.perf_counter() - t0)

    banner("Ablation — training throughput of the numpy framework")
    print(f"MLP (10×10×1):  {mlp_sps:9.0f} samples/s")
    print(f"CNN (12×12×3):  {cnn_sps:9.0f} samples/s")
    # Floors far below real numpy speed, but catching pathological
    # regressions (e.g. an accidental per-sample Python loop).
    assert mlp_sps > 2_000
    assert cnn_sps > 300


def epoch_time(train_step, x, y, batch_size):
    """Seconds for one unshuffled epoch of ``train_step``; returns (s, logs)."""
    logs = []
    t0 = time.perf_counter()
    for start in range(0, x.shape[0], batch_size):
        logs.append(train_step(x[start : start + batch_size], y[start : start + batch_size]))
    return time.perf_counter() - t0, logs


def test_cnn_step_speedup_vs_reference_kernels():
    """Listing-1 CNN training step: current kernels vs the reference ones.

    Both models start from the same weights and see the same batches;
    epochs alternate between them (and which goes first) in one process,
    so the ratio of median epoch times cancels host speed.  The losses
    must agree exactly: the kernels are bit-identical.
    """
    from tests.ml_reference import as_reference, reference_train_on_batch

    with open(THRESHOLDS_PATH) as fh:
        floor = json.load(fh)["ml_cnn_step_speedup_min"]
    (x, y), _ = load_mnist_like(n_train=512, n_test=10, seed=1)
    config = {"architecture": "cnn", "filters": 4, "optimizer": "Adam"}
    ratios = {}
    for batch_size in (32, 64, 128):
        model = create_model(config, input_shape=x.shape[1:], seed=1)
        oracle = as_reference(create_model(config, input_shape=x.shape[1:], seed=1))

        def ref_step(xb, yb, oracle=oracle):
            return reference_train_on_batch(oracle, xb, yb)

        arms = {"new": model.train_on_batch, "ref": ref_step}
        times = {"new": [], "ref": []}
        for rep in range(8):
            order = ("new", "ref") if rep % 2 == 0 else ("ref", "new")
            logs = {}
            for arm in order:
                seconds, logs[arm] = epoch_time(arms[arm], x, y, batch_size)
                times[arm].append(seconds)
            assert logs["new"] == logs["ref"], f"batch {batch_size}: losses diverged"
        ratios[batch_size] = statistics.median(times["ref"]) / statistics.median(times["new"])

    banner("Ablation — Listing-1 CNN step time, current vs reference kernels")
    for batch_size, ratio in ratios.items():
        print(f"batch {batch_size:>3}: reference / current step time = x{ratio:.2f}")
    for batch_size, ratio in ratios.items():
        assert ratio >= floor, (batch_size, ratio, floor)
