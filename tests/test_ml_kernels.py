"""The CNN kernels against their reference implementations, bit for bit.

``tests/ml_reference.py`` keeps the straightforward im2col/col2im
convolution, copy-then-reduce max pooling and full-depth backward pass.
The optimised kernels must reproduce their outputs, input gradients and
parameter gradients exactly — same values, same NaN positions, same
signed zeros — over randomised shapes and adversarial values (all-zero
post-ReLU windows, exact ties, NaN and ±inf).  The golden pins hold the
training histories of a seeded sample of Listing-1 configs fixed.
"""

import numpy as np
import pytest

from repro.hpo import train_experiment
from repro.ml import Sequential, create_model
from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.ml.layers.conv import col2im, im2col

from tests import ml_reference as ref

# NaN and inf inputs make numpy warn inside matmul and reductions.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


def assert_bit_equal(actual, expected):
    """Equal values, NaN positions and signs of zero."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def adversarial(rng, shape, kind):
    """Random values of one flavour the kernels must not special-case."""
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "relu":
        # Post-ReLU: about half zeros, so many all-zero pooling windows.
        return np.maximum(rng.normal(size=shape) - 0.3, 0.0)
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "zeros":
        # Signed zeros only: every window is a tie of +0.0 and -0.0.
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    x = rng.normal(size=shape)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    mask = rng.random(shape) < 0.2
    x[mask] = rng.choice(specials, size=int(mask.sum()))
    return x


KINDS = ["normal", "relu", "ties", "zeros", "special"]


def conv_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for seed in range(24):
        k = int(rng.choice([1, 2, 3]))
        cases.append(
            dict(
                seed=seed,
                n=int(rng.integers(1, 6)),
                h=int(rng.integers(k, 10)),
                w=int(rng.integers(k, 10)),
                c=int(rng.choice([1, 2, 3, 4])),
                filters=int(rng.choice([1, 3, 4])),
                k=k,
                stride=int(rng.choice([1, 2])),
                padding=str(rng.choice(["valid", "same"])),
                kind=KINDS[seed % len(KINDS)],
            )
        )
    # The Listing-1 CNN's two convolutions at a small batch.
    cases.append(dict(seed=100, n=3, h=10, w=10, c=1, filters=4, k=3, stride=1,
                      padding="same", kind="normal"))
    cases.append(dict(seed=101, n=3, h=5, w=5, c=4, filters=8, k=3, stride=1,
                      padding="same", kind="relu"))
    return cases


def conv_id(case):
    return "n{n}-{h}x{w}x{c}-f{filters}-k{k}-s{stride}-{padding}-{kind}".format(**case)


class TestConvKernels:
    @pytest.mark.parametrize("case", conv_cases(), ids=conv_id)
    def test_im2col_col2im_match_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        x = adversarial(rng, (case["n"], case["h"], case["w"], case["c"]), case["kind"])
        k, s = case["k"], (case["stride"], case["stride"])
        for pad in [(0, 0), (1, 1), (k // 2, (k - 1) // 2 + 1)]:
            if (case["h"] + 2 * pad[0] - k) < 0 or (case["w"] + 2 * pad[1] - k) < 0:
                continue
            cols, dims = im2col(x, k, k, s, pad)
            ref_cols, ref_dims = ref.im2col(x, k, k, s, pad)
            assert dims == ref_dims
            assert cols.flags.c_contiguous
            assert_bit_equal(cols, ref_cols)
            grads = adversarial(rng, cols.shape, case["kind"])
            assert_bit_equal(
                col2im(grads, x.shape, k, k, s, pad),
                ref.col2im(grads, x.shape, k, k, s, pad),
            )

    @pytest.mark.parametrize("case", conv_cases(), ids=conv_id)
    def test_layer_matches_reference(self, case):
        shape = (case["h"], case["w"], case["c"])
        layers = []
        for cls in (Conv2D, ref.ReferenceConv2D):
            layer = cls(case["filters"], kernel_size=case["k"],
                        strides=case["stride"], padding=case["padding"])
            try:
                layer.build(shape, np.random.default_rng(case["seed"]))
            except ValueError:
                pytest.skip("kernel does not fit the input")
            layer.params["b"][...] = np.random.default_rng(1).normal(size=case["filters"])
            layers.append(layer)
        new, old = layers
        rng = np.random.default_rng(case["seed"] + 1)
        x = adversarial(rng, (case["n"],) + shape, case["kind"])
        out = new.forward(x, training=True)
        assert_bit_equal(out, old.forward(x, training=True))
        g = adversarial(rng, out.shape, case["kind"])
        assert_bit_equal(new.backward(g), old.backward(g))
        for key in ("W", "b"):
            assert_bit_equal(new.grads[key], old.grads[key])
        # The parameter-only backward leaves the same gradients.
        new.forward(x, training=True)
        new.backward_params(g)
        for key in ("W", "b"):
            assert_bit_equal(new.grads[key], old.grads[key])


def pool_cases():
    rng = np.random.default_rng(7)
    cases = []
    for seed in range(30):
        p = int(rng.choice([1, 2, 3]))
        cases.append(
            dict(
                seed=seed,
                n=int(rng.integers(1, 5)),
                h=int(rng.integers(p, 10)),
                w=int(rng.integers(p, 10)),
                c=int(rng.choice([1, 2, 4, 8])),
                pool=p,
                stride=None,
                kind=KINDS[seed % len(KINDS)],
            )
        )
    # Overlapping and gapped windows keep the strided-view kernels.
    cases.append(dict(seed=50, n=2, h=7, w=6, c=3, pool=3, stride=2, kind="ties"))
    cases.append(dict(seed=51, n=2, h=9, w=9, c=2, pool=2, stride=3, kind="special"))
    cases.append(dict(seed=52, n=2, h=7, w=8, c=1, pool=(2, 3), stride=None, kind="relu"))
    return cases


def pool_id(case):
    return "n{n}-{h}x{w}x{c}-p{pool}-s{stride}-{kind}".format(**case)


class TestMaxPoolKernels:
    @pytest.mark.parametrize("case", pool_cases(), ids=pool_id)
    def test_matches_reference(self, case):
        shape = (case["h"], case["w"], case["c"])
        new = MaxPool2D(case["pool"], case["stride"])
        old = ref.ReferenceMaxPool2D(case["pool"], case["stride"])
        rng = np.random.default_rng(case["seed"])
        for layer in (new, old):
            layer.build(shape, rng)
        x = adversarial(rng, (case["n"],) + shape, case["kind"])
        out = new.forward(x, training=True)
        assert_bit_equal(out, old.forward(x, training=True))
        g = adversarial(rng, out.shape, case["kind"])
        assert_bit_equal(new.backward(g), old.backward(g))
        assert_bit_equal(new.forward(x), out)

    def test_nan_window_routes_gradient_to_first_nan(self):
        layer = MaxPool2D(2)
        layer.build((2, 2, 1), np.random.default_rng(0))
        x = np.array([1.0, np.nan, 5.0, np.nan]).reshape(1, 2, 2, 1)
        out = layer.forward(x, training=True)
        assert np.isnan(out).all()
        grad = layer.backward(np.full((1, 1, 1, 1), 3.0))
        np.testing.assert_array_equal(grad.reshape(-1), [0.0, 3.0, 0.0, 0.0])

    def test_tiling_pool_reads_a_view_of_its_input(self):
        layer = MaxPool2D(2)
        layer.build((5, 5, 3), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 5, 5, 3))
        for tile in layer._tiles(x):
            assert np.shares_memory(tile, x)


class TestFirstTrainableLayer:
    def _spy(self, monkeypatch, layer):
        calls = []

        def no_input_grad(grad_out):
            raise AssertionError(f"{layer.name}: input gradient requested")

        original = layer.backward_params

        def backward_params(grad_out):
            calls.append(grad_out.shape)
            original(grad_out)

        monkeypatch.setattr(layer, "backward", no_input_grad)
        monkeypatch.setattr(layer, "backward_params", backward_params)
        return calls

    def test_cnn_fit_never_requests_first_conv_input_gradient(self, monkeypatch):
        model = create_model({"architecture": "cnn", "filters": 4}, (10, 10, 1), seed=3)
        first = model.layers[0]
        assert isinstance(first, Conv2D)
        calls = self._spy(monkeypatch, first)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 10, 10, 1))
        y = np.eye(10)[rng.integers(0, 10, size=20)]
        model.fit(x, y, epochs=2, batch_size=8)
        assert len(calls) == 6
        assert set(first.grads) == {"W", "b"}

    def test_mlp_fit_stops_backprop_at_first_dense(self, monkeypatch):
        model = Sequential([Flatten(), Dense(8), ReLU(), Dense(3)], seed=0)
        model.compile(optimizer="Adam")
        model.build((2, 3))
        calls = self._spy(monkeypatch, model.layers[1])
        monkeypatch.setattr(model.layers[0], "backward", lambda g: pytest.fail("Flatten.backward"))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 2, 3))
        y = np.eye(3)[rng.integers(0, 3, size=12)]
        model.fit(x, y, epochs=1, batch_size=4)
        assert len(calls) == 3

    def test_training_matches_full_depth_reference(self):
        cfg = {"architecture": "cnn", "filters": 4, "optimizer": "RMSprop"}
        model = create_model(cfg, (10, 10, 1), seed=5)
        oracle = ref.as_reference(create_model(cfg, (10, 10, 1), seed=5))
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = np.maximum(rng.normal(size=(16, 10, 10, 1)), 0.0)
            y = np.eye(10)[rng.integers(0, 10, size=16)]
            assert model.train_on_batch(x, y) == ref.reference_train_on_batch(oracle, x, y)
        for layer, twin in zip(model.layers, oracle.layers):
            for key in layer.params:
                assert_bit_equal(layer.params[key], twin.params[key])


# train_experiment histories at the commit before the kernel rewrite
# (float reprs round-trip exactly).  Listing-1 CNN configs, one per
# optimiser, drawn with random.Random(7) from the 3x2x3 grid of
# {Adam, SGD, RMSprop} x {1, 2} epochs x {32, 64, 128} batch, plus an MLP
# with dropout (first trainable layer is Dense behind a Flatten) and a
# 3-channel CNN.
GOLDEN_BASE = {"n_train": 160, "n_test": 40, "data_seed": 7, "seed": 7}
GOLDEN_HISTORIES = [
    (
        {"optimizer": "Adam", "num_epochs": 1, "batch_size": 128,
         "architecture": "cnn", "filters": 4},
        {"loss": [3.376363092104847], "accuracy": [0.0875],
         "val_loss": [2.9618365922914593], "val_accuracy": [0.175]},
    ),
    (
        {"optimizer": "SGD", "num_epochs": 1, "batch_size": 64,
         "architecture": "cnn", "filters": 4},
        {"loss": [3.086861587649442], "accuracy": [0.08125],
         "val_loss": [2.5596601742707317], "val_accuracy": [0.175]},
    ),
    (
        {"optimizer": "RMSprop", "num_epochs": 2, "batch_size": 32,
         "architecture": "cnn", "filters": 4},
        {"loss": [2.821832232467424, 2.2712029090350527],
         "accuracy": [0.14375, 0.29375],
         "val_loss": [2.319258315025003, 2.098741215673138],
         "val_accuracy": [0.35, 0.45]},
    ),
    (
        {"optimizer": "Adam", "num_epochs": 2, "batch_size": 32,
         "architecture": "mlp", "hidden_units": 16, "dropout": 0.25},
        {"loss": [2.7223273531967656, 2.5034334221369763],
         "accuracy": [0.1625, 0.18125],
         "val_loss": [2.5986332391466367, 2.418260615287685],
         "val_accuracy": [0.25, 0.3]},
    ),
    (
        {"optimizer": "RMSprop", "num_epochs": 1, "batch_size": 64,
         "dataset": "cifar", "filters": 4, "n_train": 96, "n_test": 32},
        {"loss": [4.190225545542652], "accuracy": [0.13541666666666666],
         "val_loss": [3.23734867708735], "val_accuracy": [0.1875]},
    ),
]


class TestGoldenTrainingPins:
    @pytest.mark.parametrize(
        "config, expected", GOLDEN_HISTORIES,
        ids=[f"{c['optimizer']}-{c.get('architecture', c.get('dataset'))}-{c['batch_size']}"
             for c, _ in GOLDEN_HISTORIES],
    )
    def test_history_matches_pin(self, config, expected):
        result = train_experiment({**GOLDEN_BASE, **config})
        history = {k: v for k, v in result["history"].items() if k != "epochs"}
        assert history == expected
        assert result["val_accuracy"] == expected["val_accuracy"][-1]
