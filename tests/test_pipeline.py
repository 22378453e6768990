import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from translayer import (Config, FilterBank, GrayImage, PatchShape,
                        TrainedModel, WhiteningTransform, build_stack,
                        compress_groups, map_layer, pipeline)
from translayer.pipeline import code_maps, extraction_steps
from translayer.preprocess import lcn_rows
from translayer.types import DAE, PCA


def pca_bank(weights, side):
    w = np.asarray(weights, dtype=np.float64)
    # orthonormalize rows so the bank invariant holds
    q, _ = np.linalg.qr(w.T)
    return FilterBank(layer_kind=PCA, shape=PatchShape(side, side),
                      weights=q.T[: w.shape[0]])


def dae_bank(weights, biases, side):
    return FilterBank(layer_kind=DAE, shape=PatchShape(side, side),
                      weights=np.asarray(weights, dtype=np.float64),
                      biases=np.asarray(biases, dtype=np.float64))


# --- single-layer mapping -----------------------------------------------

def delta_bank(side):
    w = np.zeros((1, side * side))
    w[0, (side * side) // 2] = 1.0
    return FilterBank(layer_kind=PCA, shape=PatchShape(side, side), weights=w)


def test_delta_filter_reproduces_input():
    img = np.random.default_rng(1).random((9, 9))
    out = map_layer(img, delta_bank(3))
    assert out.shape == (1, 9, 9)
    assert np.abs(out[0] - img).max() < 1e-15


def test_constant_image_with_preprocessing():
    # zero padding keeps an all-zero image constant in every window; for a
    # nonzero constant, only interior windows stay constant
    lcn = 10.0
    wh = WhiteningTransform(matrix=np.eye(9))
    bank = pca_bank(np.random.default_rng(2).normal(size=(2, 9)), 3)
    biases = np.array([0.3, -0.2])
    dbank = dae_bank(np.zeros((2, 9)) + 0.1 * np.eye(2, 9), biases, 3)

    zero = GrayImage(np.zeros((6, 6)))
    assert np.abs(map_layer(zero, bank, wh, lcn)).max() == 0.0
    dae = map_layer(zero, dbank, wh, lcn)
    for i, b in enumerate(biases):
        assert np.abs(dae[i] - np.tanh(b)).max() < 1e-15

    half = GrayImage(np.full((6, 6), 0.5))
    pca_interior = map_layer(half, bank, wh, lcn)[:, 1:5, 1:5]
    assert np.abs(pca_interior).max() == 0.0
    dae_interior = map_layer(half, dbank, wh, lcn)[:, 1:5, 1:5]
    for i, b in enumerate(biases):
        assert np.abs(dae_interior[i] - np.tanh(b)).max() < 1e-15


def brute_force_map(img, bank, whiten, lcn):
    """Naive per-pixel oracle: pad, slice the window, preprocess, dot.

    ``lcn=None`` and ``whiten=None`` skip their step."""
    k1, k2 = bank.shape.k1, bank.shape.k2
    padded = np.pad(img, (((k1 - 1) // 2,), ((k2 - 1) // 2,)))
    h, w = img.shape
    out = np.zeros((bank.count, h, w))
    for r in range(h):
        for c in range(w):
            window = padded[r:r + k1, c:c + k2].ravel()
            if lcn is not None:
                window = lcn_rows(window[None, :], lcn)[0]
            if whiten is not None:
                window = whiten.matrix @ window
            for f in range(bank.count):
                val = float(bank.weights[f] @ window)
                if bank.layer_kind == DAE:
                    val = np.tanh(val + bank.biases[f])
                out[f, r, c] = val
    return out


@pytest.mark.parametrize("kind", [PCA, DAE])
@pytest.mark.parametrize("flag", [False, True])
def test_matches_naive_window_oracle(kind, flag):
    gen = np.random.default_rng(3)
    img = gen.random((12, 12))
    lcn = 10.0
    mat = gen.normal(size=(9, 9))
    wh = WhiteningTransform(matrix=0.5 * (mat + mat.T))
    if kind == PCA:
        bank = pca_bank(gen.normal(size=(3, 9)), 3)
    else:
        bank = dae_bank(gen.normal(scale=0.4, size=(3, 9)), gen.normal(size=3), 3)
    if not flag:
        wh, lcn = None, None
    got = map_layer(img, bank, wh, lcn)
    want = brute_force_map(img, bank, wh, lcn)
    assert np.abs(got - want).max() < 1e-12


def test_response_linearity_without_preprocessing():
    gen = np.random.default_rng(4)
    img = gen.random((10, 10))
    bank = pca_bank(gen.normal(size=(2, 25)), 5)
    one = map_layer(img, bank)
    scaled = map_layer(2.5 * img, bank)
    assert np.abs(scaled - 2.5 * one).max() < 1e-10


# --- full stacks -----------------------------------------------------------

def test_stack_shapes_and_counts(tiny_model, glyph_train):
    image = glyph_train[0][0]
    stack = build_stack(image, tiny_model)
    l1, l2 = tiny_model.bank1.count, tiny_model.bank2.count
    assert stack[0].shape == (l1, 28, 28)
    assert stack[1].shape == (l1, l2, 28, 28)
    assert compress_groups(stack, trans_layer=True).shape == (l2 + 1, 28, 28)
    assert compress_groups(stack, trans_layer=False).shape == (l2, 28, 28)


@pytest.mark.parametrize("preprocess", [True, False])
@pytest.mark.parametrize("lcn", [True, False])
def test_extraction_steps_are_none_when_off(preprocess, lcn):
    cfg = Config(lcn=lcn, lcn_c=4.0, preprocess_at_extraction=preprocess)
    w1, w2 = WhiteningTransform(np.eye(2)), WhiteningTransform(2 * np.eye(2))
    got_lcn, got_w1, got_w2 = extraction_steps(cfg, w1, w2)
    if not preprocess:
        assert (got_lcn, got_w1, got_w2) == (None, None, None)
        return
    assert got_w1 is w1 and got_w2 is w2
    assert got_lcn == (4.0 if lcn else None)


def test_build_stack_is_pure(tiny_model, glyph_train):
    image = glyph_train[0][1]
    before = image.pixels.copy()
    a = build_stack(image, tiny_model)
    b = build_stack(image, tiny_model)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(image.pixels, before)


# --- sign-only extraction ----------------------------------------------------

def random_model(learner, l1, l2, seed, **flags):
    """A model with random banks and whitening on 3x5 patches.

    Autoencoder banks give their first filter a zero bias, so that its sign
    on a constant window rests on rounding alone.
    """
    cfg = Config(patch_k1=3, patch_k2=5, l1=l1, l2=l2, learner=learner, **flags)
    gen = np.random.default_rng(seed)
    shape = cfg.patch_shape()

    def bank(count):
        if learner == PCA:
            q, _ = np.linalg.qr(gen.normal(size=(shape.dim, count)))
            return FilterBank(layer_kind=PCA, shape=shape, weights=q.T)
        biases = gen.normal(scale=0.3, size=count)
        biases[0] = 0.0
        return FilterBank(layer_kind=DAE, shape=shape, biases=biases,
                          weights=gen.normal(scale=0.4, size=(count, shape.dim)))

    def whiten():
        q, _ = np.linalg.qr(gen.normal(size=(shape.dim, shape.dim)))
        mat = (q * gen.uniform(0.5, 3.0, shape.dim)) @ q.T
        return WhiteningTransform(matrix=0.5 * (mat + mat.T))

    return TrainedModel(config=cfg, bank1=bank(l1), bank2=bank(l2),
                        whiten1=whiten(), whiten2=whiten())


@st.composite
def flat_region_images(draw):
    """Exact-zero background, flat rectangles of at least 3x5 (saturated or
    at values whose window mean rounds), some touching the border, and an
    optional textured rectangle."""
    h, w = draw(st.integers(5, 14)), draw(st.integers(5, 14))
    img = np.zeros((h, w))
    for _ in range(draw(st.integers(0, 3))):
        rh, rw = draw(st.integers(3, h)), draw(st.integers(5, w))
        r0, c0 = draw(st.integers(0, h - rh)), draw(st.integers(0, w - rw))
        img[r0:r0 + rh, c0:c0 + rw] = draw(st.sampled_from([1.0, 0.7, 1 / 3, 0.5]))
    if draw(st.booleans()):
        r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        img[r0:, c0:] = gen.random((h - r0, w - c0))
    return GrayImage(img)


@pytest.mark.parametrize("learner", [PCA, DAE])
@pytest.mark.parametrize("lcn", [True, False])
@pytest.mark.parametrize("preprocess", [True, False])
@pytest.mark.parametrize("trans", [True, False])
@given(image=flat_region_images(), seed=st.integers(0, 2**32 - 1))
def test_code_maps_match_float_stack(learner, lcn, preprocess, trans, image, seed):
    model = random_model(learner, 4, 4, seed, lcn=lcn, trans_layer=trans,
                         preprocess_at_extraction=preprocess)
    want = compress_groups(build_stack(image, model), trans)
    got = code_maps(image, model)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("learner", [PCA, DAE])
@given(image=flat_region_images(), seed=st.integers(0, 2**32 - 1))
def test_code_maps_match_with_unequal_filter_counts(learner, image, seed):
    model = random_model(learner, 3, 5, seed)
    want = compress_groups(build_stack(image, model), True)
    assert np.array_equal(code_maps(image, model), want)


def test_uncertified_map_falls_back_to_window_path(monkeypatch):
    # Zero-background windows map to tanh(first-layer bias) everywhere, so
    # second-layer windows there are constant and nonzero. Contrast
    # normalization sends such a window to zero up to rounding, and the
    # zero-bias filter leaves that rounding to decide the sign: the fused
    # bound cannot certify it, so the map is recomputed.
    model = random_model(DAE, 4, 4, seed=5)
    image = GrayImage(np.pad(np.full((4, 6), 0.8), 6))
    calls = []
    window_path = pipeline.map_layer

    def counting(*args, **kwargs):
        calls.append(args[0])
        return window_path(*args, **kwargs)

    monkeypatch.setattr(pipeline, "map_layer", counting)
    got = code_maps(image, model)
    assert len(calls) > 1      # layer 1, then at least one second-layer map
    want = compress_groups(build_stack(image, model), True)
    assert np.array_equal(got, want)
