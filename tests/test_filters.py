import numpy as np
import pytest

from translayer import (Config, GrayImage, PatchShape, Rng, learn_dae_filters,
                        learn_pca_filters, sample_patches)
from translayer import filters
from translayer.filters import (TrainingDivergedError, dae_gradients,
                                dae_objective, train_dae)


def gen(seed=0):
    return Rng(seed).stream("test")


# --- patch sampling -------------------------------------------------------

def test_single_offset_source_repeats_whole_image():
    img = GrayImage(np.arange(49.0).reshape(7, 7) / 48.0)
    pm = sample_patches([img], PatchShape(7, 7), 3, gen())
    assert pm.shape[1] == 3
    for c in range(3):
        assert np.array_equal(pm[:, c], img.pixels.ravel())


def test_offsets_stay_in_bounds():
    gen_local = Rng(1).stream("test")
    from translayer.filters import draw_patch_locations
    locs = draw_patch_locations([(28, 28)], PatchShape(7, 7), 5000, gen_local)
    assert locs[:, 1].min() >= 0 and locs[:, 1].max() <= 21
    assert locs[:, 2].min() >= 0 and locs[:, 2].max() <= 21
    # with 5000 draws over 484 offsets, both extremes should be hit
    assert locs[:, 1].max() == 21 and locs[:, 2].max() == 21


def test_many_sources_nearly_all_hit():
    # 100000 draws over 12000 sources miss a given source with prob
    # (1 - 1/12000)^100000 ~ 2.4e-4; far fewer than 1% missed
    from translayer.filters import draw_patch_locations
    sizes = [(8, 8)] * 12000
    locs = draw_patch_locations(sizes, PatchShape(7, 7), 100000, gen(2))
    hit = np.unique(locs[:, 0]).size
    assert hit >= 0.99 * 12000


def test_sampling_deterministic_per_seed():
    imgs = [GrayImage(np.random.default_rng(i).random((12, 12))) for i in range(5)]
    a = sample_patches(imgs, PatchShape(5, 5), 200, Rng(9).stream("s"))
    b = sample_patches(imgs, PatchShape(5, 5), 200, Rng(9).stream("s"))
    assert np.array_equal(a, b)


def test_source_smaller_than_patch_rejected():
    with pytest.raises(ValueError):
        sample_patches([np.zeros((3, 3))], PatchShape(5, 5), 1, gen())


# --- pca filters ----------------------------------------------------------

def test_rank_one_recovers_direction():
    gen_local = np.random.default_rng(3)
    v = gen_local.normal(size=9)
    v /= np.linalg.norm(v)
    coeffs = gen_local.normal(size=200)
    bank = learn_pca_filters(np.outer(v, coeffs), PatchShape(3, 3), 1)
    assert abs(abs(bank.weights[0] @ v) - 1.0) < 1e-8


def test_full_rank_complete_basis():
    data = np.random.default_rng(4).normal(size=(9, 400))
    bank = learn_pca_filters(data, PatchShape(3, 3), 9)
    assert np.abs(bank.weights @ bank.weights.T - np.eye(9)).max() < 1e-8


def test_reconstruction_beats_random_projections():
    gen_local = np.random.default_rng(5)
    z = gen_local.normal(size=(25, 5000))
    bank = learn_pca_filters(z, PatchShape(5, 5), 4)
    w = bank.weights
    pca_err = np.linalg.norm(z - w.T @ (w @ z)) ** 2
    for _ in range(200):
        q, _ = np.linalg.qr(gen_local.normal(size=(25, 4)))
        r = q.T
        rand_err = np.linalg.norm(z - r.T @ (r @ z)) ** 2
        assert rand_err >= pca_err * (1 - 1e-9)


def test_spectrum_descending():
    data = np.random.default_rng(6).normal(size=(9, 300))
    bank = learn_pca_filters(data, PatchShape(3, 3), 4)
    assert (np.diff(bank.spectrum) <= 1e-9).all()


def test_column_permutation_invariance():
    gen_local = np.random.default_rng(7)
    data = gen_local.normal(size=(9, 500))
    perm = gen_local.permutation(500)
    a = learn_pca_filters(data, PatchShape(3, 3), 3)
    b = learn_pca_filters(data[:, perm], PatchShape(3, 3), 3)
    assert np.abs(a.weights - b.weights).max() < 1e-8


def test_count_bounds():
    data = np.random.default_rng(8).random((9, 20))
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
    data = np.random.default_rng(9).normal(scale=0.3, size=(9, 50))
    bank = learn_dae_filters(data, PatchShape(3, 3), 4,
                             toy_cfg(monkeypatch, dae_lr=0.0), Rng(13))
    bound = 1.0 / 3.0
    expected = Rng(13).stream("dae.init").uniform(-bound, bound, size=(4, 9))
    assert np.array_equal(bank.weights, expected)
    assert np.array_equal(bank.biases, np.zeros(4))


def test_training_reduces_reconstruction_error(monkeypatch):
    # complete code (L = dim), no corruption, full-batch descent on tiny data
    gen_local = np.random.default_rng(10)
    z = gen_local.uniform(-0.5, 0.5, size=(4, 10))
    cfg = toy_cfg(monkeypatch, minibatch=10, dae_epochs=300, dae_lr=0.05)
    _, _, _, stats = train_dae(z, 4, cfg, Rng(13))
    mse = np.asarray(stats["recon_mse"])
    assert mse[-1] < 0.05
    assert (np.diff(mse[3:]) <= 1e-12).all()  # monotone after the transient


@pytest.mark.parametrize("d,side,count,seed", [(9, 3, 4, 20), (25, 5, 3, 21)])
def test_gradients_match_finite_differences(d, side, count, seed):
    gen_local = np.random.default_rng(seed)
    w = gen_local.normal(scale=0.5, size=(count, d))
    b = gen_local.normal(scale=0.1, size=count)
    bp = gen_local.normal(scale=0.1, size=d)
    z = gen_local.normal(scale=0.5, size=(d, 5))
    zt = z * (gen_local.random((d, 5)) >= 0.1)
    c = 1.3
    gw, gb, gbp = dae_gradients(w, b, bp, z, zt, c)

    h = 1e-5
    def fd(arr):
        out = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            up = dae_objective(w, b, bp, z, zt, c)
            arr[i] = orig - h
            dn = dae_objective(w, b, bp, z, zt, c)
            arr[i] = orig
            out[i] = (up - dn) / (2 * h)
        return out

    for analytic, numeric in ((gw, fd(w)), (gb, fd(b)), (gbp, fd(bp))):
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-4


def test_divergence_detected(monkeypatch):
    z = np.random.default_rng(11).normal(size=(4, 40))
    cfg = toy_cfg(monkeypatch, minibatch=8, dae_lr=500.0, dae_epochs=30)
    with pytest.raises(TrainingDivergedError):
        train_dae(z, 4, cfg, Rng(13))


def test_dae_bank_deterministic_per_seed(monkeypatch):
    data = np.random.default_rng(12).normal(scale=0.2, size=(9, 80))
    cfg = toy_cfg(monkeypatch, minibatch=16, dae_corruption=0.1, dae_epochs=4,
                  dae_lr=0.01)
    a = learn_dae_filters(data, PatchShape(3, 3), 3, cfg, Rng(5))
    b = learn_dae_filters(data, PatchShape(3, 3), 3, cfg, Rng(5))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)
