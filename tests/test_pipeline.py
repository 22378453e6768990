import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from translayer import (Config, FilterBank, GrayImage, PatchShape,
                        TrainedModel, WhiteningTransform, experiment, pipeline)
from translayer.encoder import binarize, compress_groups
from translayer.pipeline import build_stack, code_maps, lcn_constant, map_layer
from translayer.preprocess import lcn_rows, whiten_apply
from translayer.types import DAE, PCA, validate_config

from conftest import tiny_config


def pca_bank(weights, side):
    w = np.asarray(weights, dtype=np.float64)
    # orthonormalize rows so the bank invariant holds
    q, _ = np.linalg.qr(w.T)
    return FilterBank(shape=PatchShape(side, side), weights=q.T[: w.shape[0]])


def dae_bank(weights, biases, side):
    return FilterBank(shape=PatchShape(side, side),
                      weights=np.asarray(weights, dtype=np.float64),
                      biases=np.asarray(biases, dtype=np.float64))


# --- single-layer mapping -----------------------------------------------

def delta_bank(side):
    w = np.zeros((1, side * side))
    w[0, (side * side) // 2] = 1.0
    return FilterBank(shape=PatchShape(side, side), weights=w)


def identity_whitening(side):
    return WhiteningTransform(matrix=np.eye(side * side))


def test_delta_filter_reproduces_input():
    img = np.random.default_rng(1).random((9, 9))
    out = map_layer(img, delta_bank(3), identity_whitening(3))
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

    ``lcn=None`` skips contrast normalization."""
    k1, k2 = bank.shape.k1, bank.shape.k2
    padded = np.pad(img, (((k1 - 1) // 2,), ((k2 - 1) // 2,)))
    h, w = img.shape
    out = np.zeros((bank.count, h, w))
    for r in range(h):
        for c in range(w):
            window = padded[r:r + k1, c:c + k2].ravel()
            if lcn is not None:
                window = lcn_rows(window[None, :], lcn)[0]
            window = whiten.matrix @ window
            for f in range(bank.count):
                val = float(bank.weights[f] @ window)
                if bank.layer_kind == DAE:
                    val = np.tanh(val + bank.biases[f])
                out[f, r, c] = val
    return out


@pytest.mark.parametrize("kind", [PCA, DAE])
@pytest.mark.parametrize("lcn_on", [False, True])
def test_matches_naive_window_oracle(kind, lcn_on):
    gen = np.random.default_rng(3)
    img = gen.random((12, 12))
    lcn = 10.0 if lcn_on else None
    mat = gen.normal(size=(9, 9))
    wh = WhiteningTransform(matrix=0.5 * (mat + mat.T))
    if kind == PCA:
        bank = pca_bank(gen.normal(size=(3, 9)), 3)
    else:
        bank = dae_bank(gen.normal(scale=0.4, size=(3, 9)), gen.normal(size=3), 3)
    got = map_layer(img, bank, wh, lcn)
    want = brute_force_map(img, bank, wh, lcn)
    assert np.abs(got - want).max() < 1e-12


def test_response_linearity_without_preprocessing():
    gen = np.random.default_rng(4)
    img = gen.random((10, 10))
    bank = pca_bank(gen.normal(size=(2, 25)), 5)
    one = map_layer(img, bank, identity_whitening(5))
    scaled = map_layer(2.5 * img, bank, identity_whitening(5))
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


@pytest.mark.parametrize("lcn", [True, False])
def test_lcn_constant_is_none_when_off(lcn):
    assert lcn_constant(Config(lcn=lcn, lcn_c=4.0)) == (4.0 if lcn else None)


def test_build_stack_is_pure(tiny_model, glyph_train):
    image = glyph_train[0][1]
    before = image.pixels.copy()
    a = build_stack(image, tiny_model)
    b = build_stack(image, tiny_model)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(image.pixels, before)


# --- sign-only extraction ----------------------------------------------------

def random_model(learner, l1, l2, seed, k1=3, k2=5, **flags):
    """A model with random banks and whitening on k1 x k2 patches.

    Autoencoder banks give their first filter a zero bias, so that its sign
    on a constant window rests on rounding alone.
    """
    cfg = Config(patch_k1=k1, patch_k2=k2, l1=l1, l2=l2, learner=learner,
                 **flags)
    gen = np.random.default_rng(seed)
    shape = cfg.patch_shape()

    def bank(count):
        if learner == PCA:
            q, _ = np.linalg.qr(gen.normal(size=(shape.dim, count)))
            return FilterBank(shape=shape, weights=q.T)
        biases = gen.normal(scale=0.3, size=count)
        biases[0] = 0.0
        return FilterBank(shape=shape, biases=biases,
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
@pytest.mark.parametrize("trans", [True, False])
@given(image=flat_region_images(), seed=st.integers(0, 2**32 - 1))
def test_code_maps_match_float_stack(learner, lcn, trans, image, seed):
    model = random_model(learner, 4, 4, seed, lcn=lcn, trans_layer=trans)
    want = compress_groups(build_stack(image, model), trans)
    got = code_maps(image, model)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("learner", [PCA, DAE])
@given(image=flat_region_images(), seed=st.integers(0, 2**32 - 1))
def test_code_maps_match_with_unequal_filter_counts(learner, image, seed):
    model = random_model(learner, 3, 5, seed)
    want = compress_groups(build_stack(image, model), True)
    assert np.array_equal(code_maps(image, model), want)


def record_window_path(monkeypatch):
    """Patch ``pipeline.map_layer`` to record the map of each call; returns
    the record."""
    calls = []
    window_path = pipeline.map_layer

    def counting(*args, **kwargs):
        calls.append(args[0])
        return window_path(*args, **kwargs)

    monkeypatch.setattr(pipeline, "map_layer", counting)
    return calls


def test_uncertified_map_falls_back_to_window_path(monkeypatch):
    # Zero-background windows map to tanh(first-layer bias) everywhere, so
    # second-layer windows there are constant and nonzero. Contrast
    # normalization sends such a window to zero up to rounding, and the
    # zero-bias filter leaves that rounding to decide the sign: the fused
    # bound cannot certify it, so the map is recomputed.
    model = random_model(DAE, 4, 4, seed=5)
    image = GrayImage(np.pad(np.full((4, 6), 0.8), 6))
    calls = record_window_path(monkeypatch)
    got = code_maps(image, model)
    assert len(calls) > 1      # layer 1, then at least one second-layer map
    want = compress_groups(build_stack(image, model), True)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("learner", [PCA, DAE])
def test_training_where_fused_filter_norms_overflow(glyph_train, learner):
    # whitening at the smallest epsilon gives fused rows whose norm
    # overflows; their infinite std coefficient must certify nothing and
    # warn nowhere, in training or in the codes
    images, labels = glyph_train[0][:30], glyph_train[1][:30]
    cfg = tiny_config(learner=learner, dae_epochs=2, lcn_c=1e159,
                      whiten_epsilon=5e-324)
    model = experiment.train_model(cfg, images, labels)
    for image in images[:10]:
        want = compress_groups(build_stack(image, model), cfg.trans_layer)
        assert np.array_equal(code_maps(image, model), want)


EXTREME_LCN_IMAGES = {"zero": np.zeros((8, 9)), "constant": np.full((8, 9), 0.6),
                      "random": np.random.default_rng(3).random((8, 9))}


@pytest.mark.parametrize("image", EXTREME_LCN_IMAGES)
@pytest.mark.parametrize("lcn_c", [5e-324, 1e-200, 1e200, 1.7e308])
def test_dae_lcn_code_maps_at_extreme_lcn_c_match_without_warnings(lcn_c, image):
    # any positive finite lcn_c is valid; near either end of the float range
    # the window std's error term overflows or divides by zero, which must
    # neither warn nor certify a sign the window path does not give
    model = replace(random_model(DAE, 2, 2, seed=1, k1=3, k2=3, lcn=True,
                                 lcn_c=lcn_c),
                    whiten1=identity_whitening(3), whiten2=identity_whitening(3))
    assert not validate_config(model.config)
    image = GrayImage(EXTREME_LCN_IMAGES[image])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = compress_groups(build_stack(image, model), True)
        assert np.array_equal(code_maps(image, model), want)


def test_dae_lcn_code_maps_peak_below_twice_the_window_matrix(glyph_test):
    # no window matrix is built; the old one is the yardstick
    model = random_model(DAE, 8, 8, seed=3, k1=7, k2=7, lcn=True)
    image = glyph_test[0][0]
    h, w = image.pixels.shape
    cols_bytes = model.bank2.shape.dim * model.config.l1 * h * w * 8
    want = compress_groups(build_stack(image, model), True)
    tracemalloc.start()
    try:
        got = code_maps(image, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 2 * cols_bytes


@pytest.mark.parametrize("lcn", [True, False])
@given(image=flat_region_images(), seed=st.integers(0, 2**32 - 1))
def test_one_pixel_patch_code_maps_match_float_stack(lcn, image, seed):
    # with 1x1 patches every window is one pixel of the padded maps
    model = random_model(DAE, 4, 4, seed, k1=1, k2=1, lcn=lcn)
    want = compress_groups(build_stack(image, model), True)
    assert np.array_equal(code_maps(image, model), want)


@pytest.mark.parametrize("learner,lcn", [(PCA, True), (DAE, True)])
def test_code_maps_peak_below_the_window_matrix(glyph_test, learner, lcn):
    # the (k1*k2, L1*h*w) window matrix the layer-2 signs were once taken
    # from; the shifted copies of the layer-1 maps take a sixth of it
    model = random_model(learner, 8, 8, seed=3, k1=7, k2=7, lcn=lcn)
    image = glyph_test[0][0]
    h, w = image.pixels.shape
    cols_bytes = model.bank2.shape.dim * model.config.l1 * h * w * 8
    want = compress_groups(build_stack(image, model), True)
    tracemalloc.start()
    try:
        got = code_maps(image, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < cols_bytes


def test_fused_filters_once_per_model(glyph_test):
    images = glyph_test[0][:6]
    for learner in (PCA, DAE):
        # a new model: its banks are not the ones cached
        model = random_model(learner, 4, 4, seed=8, k1=5, k2=5)
        before = pipeline._fused_filters.cache_info()
        experiment.extract_features(model, images, jobs=1)
        after = pipeline._fused_filters.cache_info()
        assert (after.misses - before.misses,
                after.hits - before.hits) == (1, len(images) - 1)


@pytest.mark.parametrize("k1,k2", [(5, 3), (1, 7), (7, 1), (7, 3)])
@pytest.mark.parametrize("learner", [PCA, DAE])
@pytest.mark.parametrize("lcn", [True, False])
@given(image=flat_region_images(), seed=st.integers(0, 2**32 - 1))
def test_code_maps_match_with_unequal_patch_sides(k1, k2, learner, lcn, image,
                                                   seed):
    # flat_region_images draws heights and widths apart, so most are not
    # square
    model = random_model(learner, 3, 4, seed, k1=k1, k2=k2, lcn=lcn)
    want = compress_groups(build_stack(image, model), True)
    assert np.array_equal(code_maps(image, model), want)


def test_dae_lcn_near_tie_bits_match_window_path():
    # layer-1 maps with a window mean (0.99) far above their std (1e-3),
    # and each bias -0.9 times one interior pixel's pre-bias response
    # r/(s + c): many responses then sit near the bias, where a small error
    # in the window std flips the sign
    gen = np.random.default_rng(15)
    layer1 = 0.99 + 1e-3 * gen.normal(size=(2, 12, 12))
    shape, lcn = PatchShape(7, 7), 1e-4
    weights = gen.normal(size=(3, shape.dim))
    rows = lcn_rows(pipeline.window_rows(layer1[0], shape), lcn)
    bank = dae_bank(weights, -0.9 * (rows @ weights.T)[6 * 12 + 6], 7)
    whiten = identity_whitening(7)
    got = pipeline._layer2_bits(layer1, bank, whiten, lcn)
    for i, maps in enumerate(layer1):
        assert np.array_equal(got[i], binarize(map_layer(maps, bank, whiten, lcn)))


def near_tie_layer1(kind):
    """Two 12 x 20 layer-1 maps of one kind.

    ``("ratio", q)``: halves at levels m and 2m (swapped in the second map)
    under noise of std 0.05, with m = 0.05 q, so that interior windows have
    mean / std q and no window's mean is its map's. ``"constant"``: 0.7 and
    1/3 everywhere. ``"zero"``: exact zeros around a textured corner block.
    ``("scaled", f)``: the q = 10 maps times f, where squares underflow
    (1e-300) or the pixels themselves are subnormal (1e-310).
    """
    noise = np.random.default_rng(26).normal(size=(2, 12, 20))
    if kind == "constant":
        return np.stack([np.full((12, 20), 0.7), np.full((12, 20), 1 / 3)])
    if kind == "zero":
        maps = np.zeros((2, 12, 20))
        maps[:, 6:, 12:] = 0.5 + 0.1 * noise[:, 6:, 12:]
        return maps
    name, value = kind
    ratio, factor = (value, 1.0) if name == "ratio" else (10.0, value)
    level = 0.05 * ratio * np.where(np.arange(20) < 10, 1.0, 2.0)
    return factor * (np.stack([level, level[::-1]])[:, None, :] + 0.05 * noise)


# (row, column) of the first map whose window puts filter f at the tie: a
# left and a right interior window, and the corner
TIE_PIXELS = [(4, 4), (7, 15), (0, 0)]


def tie_bias(t, margin):
    """The bias that puts the window path's value t + b at ``margin``:
    exactly 0 at "tie", one ulp of -t to either side at "ulp+"/"ulp-",
    else ``margin`` times |t| (times 1 where t is 0)."""
    if margin == "tie":
        return -t
    if margin in ("ulp+", "ulp-"):
        return np.nextafter(-t, np.inf if margin == "ulp+" else -np.inf)
    return -t + margin * (abs(t) or 1.0)


def tie_windows(layer1, gen, lcn):
    """A random whitening, and the whitened (with ``lcn``, also contrast
    normalized) 7 x 7 windows of ``layer1[0]``, one row per pixel. They
    come from map_layer's own calls, so their filter products are its
    pre-bias values bit for bit."""
    shape = PatchShape(7, 7)
    q, _ = np.linalg.qr(gen.normal(size=(shape.dim, shape.dim)))
    mat = (q * gen.uniform(0.5, 3.0, shape.dim)) @ q.T
    whiten = WhiteningTransform(matrix=0.5 * (mat + mat.T))
    rows = pipeline.window_rows(layer1[0], shape)
    if lcn is not None:
        rows = lcn_rows(rows, lcn)
    return whiten, whiten_apply(whiten, rows)


def window_path_calls(monkeypatch, layer1, bank, whiten, lcn):
    """Assert that ``_layer2_bits`` gives the window path's bits map by
    map; return the maps it sent to the window path."""
    calls = record_window_path(monkeypatch)
    got = pipeline._layer2_bits(layer1, bank, whiten, lcn)
    for i, maps in enumerate(layer1):
        assert np.array_equal(got[i], binarize(map_layer(maps, bank, whiten,
                                                         lcn)))
    return calls


@pytest.mark.parametrize("margin", ["tie", "ulp+", "ulp-", 1e-10, -1e-10,
                                    3e-3, -3e-3])
@pytest.mark.parametrize("lcn", [1e-4, 0.1, 10.0, None])
@pytest.mark.parametrize("kind", [("ratio", 1.0), ("ratio", 1e2),
                                  ("ratio", 1e4), ("ratio", 1e6), "constant",
                                  "zero", ("scaled", 1e-300),
                                  ("scaled", 1e-310)])
def test_dae_lcn_bits_at_solved_ties_match_window_path(monkeypatch, kind, lcn,
                                                       margin):
    # each filter's bias puts the window path's value at one pixel of the
    # first map at the margin: on the tie and an ulp off it the fused sign
    # cannot be certified, 1e-10 lies inside the bound, and 3e-3 outside it
    # where the window mean/std is at most 1e2. lcn None puts the same ties
    # on the path with contrast normalization off
    layer1 = near_tie_layer1(kind)
    gen = np.random.default_rng(27)
    weights = gen.normal(size=(3, 49))
    whiten, windows = tie_windows(layer1, gen, lcn)
    pre = windows @ weights.T
    biases = [tie_bias(pre[y * 20 + x, f], margin)
              for f, (y, x) in enumerate(TIE_PIXELS)]
    bank = dae_bank(weights, biases, 7)
    calls = window_path_calls(monkeypatch, layer1, bank, whiten, lcn)
    if margin == "tie":
        # no valid bound certifies a sign that is exactly 0 on the window
        # path, and one pixel of the first map is not an all-zero window
        assert calls and np.array_equal(calls[0], layer1[0])
    if margin in (3e-3, -3e-3) and kind in (("ratio", 1.0), ("ratio", 1e2),
                                            "zero"):
        # the certified path, not the fallback, gave these bits
        assert calls == []


def tilted_pca_bank(windows, tilt, shape):
    """An orthonormal bank whose filter f has component ``tilt`` along
    ``windows[f]`` and is orthogonal to it at 0; an all-zero window leaves
    its filter untilted. Each filter is made from the part of its window
    orthogonal to the filters before it, and a random direction
    orthogonal to both."""
    gen = np.random.default_rng(28)
    rows = np.zeros((0, shape.dim))
    for window in windows:
        top = np.abs(window).max()
        unit = window / top if top > 0 else np.zeros(shape.dim)
        unit /= np.linalg.norm(unit) or 1.0
        part = unit - rows.T @ (rows @ unit)
        basis = np.vstack([rows, part / (np.linalg.norm(part) or 1.0)])
        other = gen.normal(size=shape.dim)
        for _ in range(2):   # twice, so the rounding of the first is removed
            other -= basis.T @ (basis @ other)
        other /= np.linalg.norm(other)
        along = tilt / np.linalg.norm(part) if top > 0 else 0.0
        row = along * basis[-1] + np.sqrt(1.0 - along**2) * other
        rows = np.vstack([rows, row])
    return FilterBank(shape=shape, weights=rows)


@pytest.mark.parametrize("tilt", [0.0, 1e-10, -1e-10, 3e-3, -3e-3])
@pytest.mark.parametrize("lcn", [1e-4, 10.0, None])
@pytest.mark.parametrize("kind", [("ratio", 1.0), ("ratio", 1e2),
                                  ("ratio", 1e4), ("ratio", 1e6), "constant",
                                  "zero", ("scaled", 1e-300),
                                  ("scaled", 1e-310)])
def test_pca_bits_at_solved_ties_match_window_path(monkeypatch, kind, lcn,
                                                   tilt):
    # a PCA filter has no bias to move, so the tie is solved in its
    # weights: filter f is orthogonal to the whitened (and contrast
    # normalized) window at TIE_PIXELS[f] of the first map, then tilted
    # toward it by a fraction of its norm; at 0 the window path's value
    # is rounding alone, and bit 0 or 1 by chance
    layer1 = near_tie_layer1(kind)
    whiten, windows = tie_windows(layer1, np.random.default_rng(27), lcn)
    bank = tilted_pca_bank([windows[y * 20 + x] for y, x in TIE_PIXELS], tilt,
                           PatchShape(7, 7))
    calls = window_path_calls(monkeypatch, layer1, bank, whiten, lcn)
    if tilt == 0.0:
        # no valid bound certifies a sign that is rounding alone, and one
        # pixel of the first map is not an all-zero window
        assert calls and np.array_equal(calls[0], layer1[0])
    if tilt in (3e-3, -3e-3) and kind in (("ratio", 1.0), ("ratio", 1e2),
                                          "zero"):
        # the certified path, not the fallback, gave these bits
        assert calls == []


def test_dae_lcn_fallback_count_does_not_grow(monkeypatch, glyph_test):
    # a looser bound shows as more second-layer maps recomputed. The limits
    # are the counts of the std taken as the mean, then the centered
    # squares: none on noisy glyphs, and on zero backgrounds most maps
    # hold a constant window that the zero-bias filter cannot certify
    model = random_model(DAE, 8, 8, seed=3, k1=7, k2=7, lcn=True)
    noisy = glyph_test[0]
    flat = [GrayImage(np.where(im.pixels > 0.5, im.pixels, 0.0))
            for im in noisy]
    calls = record_window_path(monkeypatch)
    counts = []
    for images in (noisy, flat):
        calls.clear()
        for image in images:
            code_maps(image, model)
        counts.append(len(calls) - len(images))   # less one layer-1 call each
    assert counts[0] <= 0 and counts[1] <= 245


@pytest.mark.parametrize("learner", [PCA, DAE])
@pytest.mark.parametrize("lcn", [True, False])
def test_every_map_falls_back_when_no_sign_certifies(monkeypatch, learner,
                                                     lcn):
    # a safety factor this large certifies only all-zero windows, and
    # every map of a textured image holds others
    monkeypatch.setattr(pipeline, "_SIGN_SAFETY", 1e200)
    model = random_model(learner, 4, 3, seed=11, k1=3, k2=5, lcn=lcn)
    image = GrayImage(np.random.default_rng(12).random((9, 13)))
    calls = record_window_path(monkeypatch)
    got = code_maps(image, model)
    assert len(calls) == 1 + model.config.l1
    monkeypatch.undo()
    want = compress_groups(build_stack(image, model), True)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("learner", [PCA, DAE])
@pytest.mark.parametrize("lcn", [True, False])
def test_one_value_past_the_overflow_guard_uncertifies_the_whole_image(
        monkeypatch, learner, lcn):
    # from sqrt(MAX / (4d)) on, about 9.6e152 for 7x7 patches, the window
    # path's squared deviations can overflow: one such layer-1 value, in
    # any map, sends every map of the image through map_layer
    model = random_model(learner, 3, 4, seed=13, k1=7, k2=7, lcn=lcn)
    bank, whiten, c = model.bank2, model.whiten2, lcn_constant(model.config)
    layer1 = np.random.default_rng(14).uniform(-1.0, 1.0, (3, 9, 11))
    layer1[1, 4, 5] = np.sqrt(pipeline._MAX / (4 * bank.shape.dim))
    calls = record_window_path(monkeypatch)
    bits = pipeline._layer2_bits(layer1, bank, whiten, c)
    assert len(calls) == 3
    monkeypatch.undo()
    for i, layer1_map in enumerate(layer1):
        want = binarize(map_layer(layer1_map, bank, whiten, c))
        assert np.array_equal(bits[i], want)
