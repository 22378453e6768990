import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from translayer import (Config, GrayImage, PatchShape, Rng, learn_dae_filters,
                        learn_pca_filters)
from translayer import filters, train_model
from translayer.filters import (TrainingDivergedError, dae_forward,
                                dae_value_and_grad, draw_patch_locations,
                                gather_patches, sample_patches, train_dae)

from conftest import make_glyphs, tiny_config


def gen(seed=0):
    return Rng(seed).stream("test")


# --- patch sampling -------------------------------------------------------

def test_single_offset_source_repeats_whole_image():
    img = GrayImage(np.arange(49.0).reshape(7, 7) / 48.0)
    pm = sample_patches([img], PatchShape(7, 7), 3, gen())
    assert pm.shape == (3, 49)
    for row in pm:
        assert np.array_equal(row, img.pixels.ravel())


def test_offsets_stay_in_bounds():
    gen_local = Rng(1).stream("test")
    from translayer.filters import draw_patch_locations
    locs = draw_patch_locations(1, (28, 28), PatchShape(7, 7), 5000, gen_local)
    assert locs[:, 1].min() >= 0 and locs[:, 1].max() <= 21
    assert locs[:, 2].min() >= 0 and locs[:, 2].max() <= 21
    # with 5000 draws over 484 offsets, both extremes should be hit
    assert locs[:, 1].max() == 21 and locs[:, 2].max() == 21


def test_many_sources_nearly_all_hit():
    # 100000 draws over 12000 sources miss a given source with prob
    # (1 - 1/12000)^100000 ~ 2.4e-4; far fewer than 1% missed
    from translayer.filters import draw_patch_locations
    locs = draw_patch_locations(12000, (8, 8), PatchShape(7, 7), 100000, gen(2))
    hit = np.unique(locs[:, 0]).size
    assert hit >= 0.99 * 12000


def test_sampling_deterministic_per_seed():
    imgs = [GrayImage(np.random.default_rng(i).random((12, 12))) for i in range(5)]
    a = sample_patches(imgs, PatchShape(5, 5), 200, Rng(9).stream("s"))
    b = sample_patches(imgs, PatchShape(5, 5), 200, Rng(9).stream("s"))
    assert np.array_equal(a, b)


def gather_patches_loop(sources, locations, shape):
    """``gather_patches`` one patch at a time, by slicing."""
    data = np.empty((locations.shape[0], shape.dim))
    for pos, (src, r, c) in enumerate(locations):
        data[pos] = sources[src, r:r + shape.k1, c:c + shape.k2].ravel()
    return data


@pytest.mark.parametrize("k1,k2", [(3, 3), (5, 3), (1, 7)])
def test_gather_patches_matches_per_patch_loop(k1, k2):
    shape = PatchShape(k1, k2)
    sources = np.random.default_rng(k1 * k2).normal(size=(6, 9, 8))
    rows, cols = 9 - k1 + 1, 8 - k2 + 1
    drawn = draw_patch_locations(6, (9, 8), shape, 300, gen(k1 + k2))
    # unsorted sources, every border offset, and one location many times
    corners = [[s, r, c] for s in (5, 0, 3) for r in (0, rows - 1)
               for c in (0, cols - 1)]
    locations = np.concatenate([drawn, corners, [[2, 1, 1]] * 5, drawn[:7]])
    got = gather_patches(sources, locations, shape)
    assert np.array_equal(got, gather_patches_loop(sources, locations, shape))


@given(n=st.integers(1, 5), h=st.integers(1, 11), w=st.integers(1, 11),
       i1=st.integers(0, 5), i2=st.integers(0, 5), m=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
@example(n=3, h=6, w=9, i1=0, i2=5, m=20, seed=0)    # 1 x 9, full width
@example(n=2, h=7, w=4, i1=5, i2=0, m=20, seed=1)    # 7 x 1, full height
@example(n=4, h=5, w=7, i1=5, i2=5, m=20, seed=2)    # the whole source
def test_gather_patches_matches_loop_for_any_shape(n, h, w, i1, i2, m, seed):
    # the odd sides up to the source's: i clamps to the largest
    shape = PatchShape(2 * min(i1, (h - 1) // 2) + 1,
                       2 * min(i2, (w - 1) // 2) + 1)
    sources = np.random.default_rng(seed).normal(size=(n, h, w))
    rows, cols = h - shape.k1 + 1, w - shape.k2 + 1
    drawn = draw_patch_locations(n, (h, w), shape, m, gen(seed))
    # sources out of order, every corner offset, and one location many times
    corners = [[s, r, c] for s in reversed(range(n)) for r in (0, rows - 1)
               for c in (0, cols - 1)]
    locations = np.concatenate([drawn, corners, drawn[-1:].repeat(5, axis=0),
                                drawn[:7]])
    got = gather_patches(sources, locations, shape)
    assert got.dtype == np.float64
    assert np.array_equal(got, gather_patches_loop(sources, locations, shape))


def test_source_smaller_than_patch_rejected():
    with pytest.raises(ValueError):
        sample_patches([np.zeros((3, 3))], PatchShape(5, 5), 1, gen())


def test_drawing_no_patch_rejected():
    with pytest.raises(ValueError, match="need at least one patch"):
        draw_patch_locations(1, (8, 8), PatchShape(3, 3), 0, gen())


def test_sources_of_differing_sizes_rejected():
    with pytest.raises(ValueError, match=r"differ in size: \[\(8, 8\), \(9, 8\)\]"):
        sample_patches([np.zeros((8, 8)), np.zeros((9, 8))], PatchShape(5, 5), 1,
                       gen())


# --- pca filters ----------------------------------------------------------

def test_rank_one_recovers_direction():
    gen_local = np.random.default_rng(3)
    v = gen_local.normal(size=9)
    v /= np.linalg.norm(v)
    coeffs = gen_local.normal(size=200)
    bank = learn_pca_filters(np.outer(coeffs, v), PatchShape(3, 3), 1)
    assert abs(abs(bank.weights[0] @ v) - 1.0) < 1e-8


def test_full_rank_complete_basis():
    data = np.random.default_rng(4).normal(size=(400, 9))
    bank = learn_pca_filters(data, PatchShape(3, 3), 9)
    assert np.abs(bank.weights @ bank.weights.T - np.eye(9)).max() < 1e-8


def test_reconstruction_beats_random_projections():
    gen_local = np.random.default_rng(5)
    z = gen_local.normal(size=(5000, 25))
    bank = learn_pca_filters(z, PatchShape(5, 5), 4)
    w = bank.weights
    pca_err = np.linalg.norm(z - (z @ w.T) @ w) ** 2
    for _ in range(200):
        q, _ = np.linalg.qr(gen_local.normal(size=(25, 4)))
        rand_err = np.linalg.norm(z - (z @ q) @ q.T) ** 2
        assert rand_err >= pca_err * (1 - 1e-9)


def test_spectrum_descending():
    data = np.random.default_rng(6).normal(size=(300, 9))
    bank = learn_pca_filters(data, PatchShape(3, 3), 4)
    assert (np.diff(bank.spectrum) <= 1e-9).all()


def test_row_permutation_invariance():
    gen_local = np.random.default_rng(7)
    data = gen_local.normal(size=(500, 9))
    perm = gen_local.permutation(500)
    a = learn_pca_filters(data, PatchShape(3, 3), 3)
    b = learn_pca_filters(data[perm], PatchShape(3, 3), 3)
    assert np.abs(a.weights - b.weights).max() < 1e-8


def test_count_bounds():
    data = np.random.default_rng(8).random((20, 9))
    with pytest.raises(ValueError):
        learn_pca_filters(data, PatchShape(3, 3), 10)


# --- autoencoder ----------------------------------------------------------

def toy_cfg(monkeypatch, minibatch=64, **kw):
    """A config with the given ``dae_*`` fields; ``minibatch`` is patched
    into the module constant for the rest of the test."""
    monkeypatch.setattr(filters, "DAE_MINIBATCH", minibatch)
    base = dict(dae_corruption=0.0, dae_epochs=5, dae_lr=0.01)
    base.update(kw)
    return Config(**base)


def test_zero_learning_rate_keeps_initial_weights(monkeypatch):
    data = np.random.default_rng(9).normal(scale=0.3, size=(50, 9))
    bank = learn_dae_filters(data, PatchShape(3, 3), 4,
                             toy_cfg(monkeypatch, dae_lr=0.0), Rng(13))
    bound = 1.0 / 3.0
    expected = Rng(13).stream("dae.init").uniform(-bound, bound, size=(4, 9))
    assert np.array_equal(bank.weights, expected)
    assert np.array_equal(bank.biases, np.zeros(4))


def test_more_than_sixteen_autoencoder_filters_rejected(monkeypatch):
    data = np.random.default_rng(9).normal(size=(50, 9))
    with pytest.raises(ValueError, match=r"filter count must lie in 1\.\.16"):
        learn_dae_filters(data, PatchShape(3, 3), 17, toy_cfg(monkeypatch),
                          Rng(13))


def test_training_reduces_reconstruction_error(monkeypatch):
    # complete code (L = dim), no corruption, full-batch descent on tiny data
    gen_local = np.random.default_rng(10)
    z = gen_local.uniform(-0.5, 0.5, size=(10, 4))
    cfg = toy_cfg(monkeypatch, minibatch=10, dae_epochs=300, dae_lr=0.05)
    w, b, b_dec, stats = train_dae(z, 4, cfg, Rng(13))
    loss = np.asarray(stats["loss"])
    assert (np.diff(loss[3:]) <= 1e-12).all()  # monotone after the transient
    _, recon = dae_forward(w, b, b_dec, z)
    assert np.mean((recon - z) ** 2) < 0.05


def train_dae_reference(z_clean, count, cfg, rng):
    """A per-batch gather in the row layout: the masks are drawn in
    sequence from one stream, the corrupted matrix is built whole, and
    each minibatch gathers its rows of one-patch-per-row copies."""
    m, d = z_clean.shape
    init_gen = rng.stream("dae.init")
    corrupt_gen = rng.stream("dae.corrupt")
    order_gen = rng.stream("dae.order")
    bound = 1.0 / np.sqrt(d)
    w = init_gen.uniform(-bound, bound, size=(count, d))
    b = np.zeros(count)
    b_dec = np.zeros(d)
    clean_rows = np.ascontiguousarray(z_clean)
    epoch_loss = []
    for epoch in range(1, cfg.dae_epochs + 1):
        lr = cfg.dae_lr / np.sqrt(epoch)
        if cfg.dae_corruption > 0.0:
            keep = corrupt_gen.random((d, m)) >= cfg.dae_corruption
            corrupt_rows = np.ascontiguousarray(z_clean * keep.T)
        else:
            corrupt_rows = clean_rows
        order = order_gen.permutation(m)
        running = 0.0
        for start in range(0, m, filters.DAE_MINIBATCH):
            batch = order[start:start + filters.DAE_MINIBATCH]
            loss, gw, gb, gbp = dae_value_and_grad(
                w, b, b_dec, clean_rows[batch], corrupt_rows[batch],
                cfg.dae_tradeoff_c, batch.size / m)
            running += loss
            step = lr / batch.size
            w -= step * gw
            b -= step * gb
            b_dec -= step * gbp
        epoch_loss.append(running)
    return w, b, b_dec, epoch_loss


@pytest.mark.parametrize("d,m,count,corruption,minibatch", [
    (9, 512, 4, 0.1, None),     # m a multiple of the batch size
    (25, 777, 6, 0.1, None),    # a short last batch
    (9, 300, 5, 0.0, None),     # no corruption: one gather per epoch
    (16, 130, 3, 0.25, 32),     # a patched batch size, short last batch
    (9, 90, 4, 0.0, 30),
])
def test_train_dae_matches_per_batch_gather(monkeypatch, d, m, count,
                                            corruption, minibatch):
    if minibatch is not None:
        monkeypatch.setattr(filters, "DAE_MINIBATCH", minibatch)
    z = np.random.default_rng(d * m).normal(scale=0.3, size=(m, d))
    cfg = Config(dae_corruption=corruption, dae_epochs=4, dae_lr=0.05)
    w, b, b_dec, stats = train_dae(z, count, cfg, Rng(7))
    rw, rb, rb_dec, rloss = train_dae_reference(z, count, cfg, Rng(7))
    assert np.array_equal(w, rw)
    assert np.array_equal(b, rb)
    assert np.array_equal(b_dec, rb_dec)
    assert stats["loss"] == rloss


@pytest.mark.parametrize("d,m,corruption", [(5, 13, 0.3), (9, 40, 0.1),
                                             (7, 3, 0.0)])
def test_jumped_masks_equal_sequential_draws(d, m, corruption):
    # d * m = 65, 360 and 21: whole bytes or not, the packed bits unpack
    # to the mask one stream draws epoch after epoch
    rng = Rng(4)
    sequential = rng.stream("dae.corrupt")
    for epoch in range(1, 5):
        want = sequential.random((d, m)) >= corruption
        packed = filters._epoch_mask((rng, d, m, corruption), epoch)
        assert packed.size == -(-d * m // 8)
        got = np.unpackbits(packed, count=d * m).reshape(m, d).astype(bool)
        assert np.array_equal(got, want.T)


def test_no_corruption_draws_no_mask(monkeypatch):
    def fail(state, epoch):
        raise AssertionError("drew a mask")

    monkeypatch.setattr(filters, "_epoch_mask", fail)
    z = np.random.default_rng(3).normal(scale=0.3, size=(60, 9))
    cfg = Config(dae_corruption=0.0, dae_epochs=3, dae_lr=0.05)
    train_dae(z, 4, cfg, Rng(7), jobs=2)


@pytest.mark.parametrize("jobs", [1, 2])
def test_train_dae_bytes_do_not_depend_on_layout(monkeypatch, jobs):
    # a batch of 50 rows of 9 doubles, 3600 bytes, is not a whole number
    # of 64-byte lines, so the minibatches of an epoch start at varying
    # alignments
    monkeypatch.setattr(filters, "DAE_MINIBATCH", 50)
    z = np.random.default_rng(5).normal(scale=0.3, size=(250, 9))
    shifted = np.empty(z.size + 1)[1:].reshape(z.shape)   # 8 bytes off
    shifted[...] = z
    cfg = Config(dae_corruption=0.2, dae_epochs=3, dae_lr=0.05)
    runs = [train_dae(copy, 4, cfg, Rng(9), jobs=jobs)
            for copy in (z, np.asfortranarray(z), shifted)]
    for w, b, b_dec, stats in runs[1:]:
        assert w.tobytes() == runs[0][0].tobytes()
        assert b.tobytes() == runs[0][1].tobytes()
        assert b_dec.tobytes() == runs[0][2].tobytes()
        assert stats == runs[0][3]


@pytest.mark.parametrize("d,side,count,seed", [(9, 3, 4, 20), (25, 5, 3, 21)])
def test_gradients_match_finite_differences(d, side, count, seed):
    gen_local = np.random.default_rng(seed)
    w = gen_local.normal(scale=0.5, size=(count, d))
    b = gen_local.normal(scale=0.1, size=count)
    bp = gen_local.normal(scale=0.1, size=d)
    z = gen_local.normal(scale=0.5, size=(d, 5))
    zt = z * (gen_local.random((d, 5)) >= 0.1)
    z, zt = z.T, zt.T   # one patch per row
    c = 1.3
    _, gw, gb, gbp = dae_value_and_grad(w, b, bp, z, zt, c)

    h = 1e-5
    def fd(arr):
        out = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            up = dae_value_and_grad(w, b, bp, z, zt, c)[0]
            arr[i] = orig - h
            dn = dae_value_and_grad(w, b, bp, z, zt, c)[0]
            arr[i] = orig
            out[i] = (up - dn) / (2 * h)
        return out

    for analytic, numeric in ((gw, fd(w)), (gb, fd(b)), (gbp, fd(bp))):
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-4


def test_divergence_detected(monkeypatch):
    z = np.random.default_rng(11).normal(size=(40, 4))
    cfg = toy_cfg(monkeypatch, minibatch=8, dae_lr=500.0, dae_epochs=30)
    with pytest.raises(TrainingDivergedError):
        train_dae(z, 4, cfg, Rng(13))


@pytest.mark.parametrize("epochs", [1, 2])
def test_blow_up_is_divergence_even_in_the_last_step(epochs):
    # one epoch ends on finite weights near 3e197, whose square is inf; two
    # overflow inside the second epoch's products
    z = np.random.default_rng(0).normal(size=(300, 9))
    cfg = Config(dae_lr=1e100, dae_epochs=epochs)
    with pytest.raises(TrainingDivergedError, match="at epoch 1"):
        train_dae(z, 4, cfg, Rng(1))


def test_flat_loss_is_not_divergence():
    # layer 2's loss is flat here and ends 0.06% above its first epoch,
    # because each epoch redraws the corruption mask
    cfg = tiny_config(learner="dae", dae_epochs=2, block_w=5, block_h=4,
                      stride_x=2, stride_y=3, patches_per_layer=400)
    model = train_model(cfg, *make_glyphs(60, seed=3))
    assert model.bank2.biases is not None


def test_dae_bank_deterministic_per_seed(monkeypatch):
    data = np.random.default_rng(12).normal(scale=0.2, size=(80, 9))
    cfg = toy_cfg(monkeypatch, minibatch=16, dae_corruption=0.1, dae_epochs=4,
                  dae_lr=0.01)
    a = learn_dae_filters(data, PatchShape(3, 3), 3, cfg, Rng(5))
    b = learn_dae_filters(data, PatchShape(3, 3), 3, cfg, Rng(5))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)
