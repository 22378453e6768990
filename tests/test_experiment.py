import numpy as np
import pytest

from translayer import (FilterBank, TrainedModel, WhiteningTransform,
                        evaluate_model, experiment, extract_features,
                        train_model)
from translayer.experiment import format_eval_report, predict_features
from translayer.types import PCA

from conftest import tiny_config


def test_parallel_extraction_matches_serial(tiny_model, glyph_test):
    images = glyph_test[0][:12]
    serial = extract_features(tiny_model, images, jobs=1)
    parallel = extract_features(tiny_model, images, jobs=2)
    assert (serial != parallel).nnz == 0


def test_evaluation_forks_one_pool_for_all_chunks(tiny_model, glyph_test,
                                                   monkeypatch):
    images, labels = glyph_test
    serial = evaluate_model(tiny_model, images, labels, jobs=1, chunk=7)
    contexts = []
    get_context = experiment.mp.get_context

    def counting(method):
        contexts.append(method)
        return get_context(method)

    monkeypatch.setattr(experiment.mp, "get_context", counting)
    parallel = evaluate_model(tiny_model, images, labels, jobs=2, chunk=7)
    assert len(contexts) == 1
    assert np.array_equal(serial.confusion, parallel.confusion)


def test_nan_pixel_rejected(tiny_model):
    image = np.zeros((28, 28))
    image[14, 14] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        extract_features(tiny_model, [image])


def test_more_than_sixteen_first_layer_maps_rejected(tiny_model, glyph_test):
    cfg = tiny_config(l1=17)
    shape = cfg.patch_shape()
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(shape.dim, 17)))
    model = TrainedModel(config=cfg,
                         bank1=FilterBank(layer_kind=PCA, shape=shape, weights=q.T),
                         bank2=tiny_model.bank2,
                         whiten1=WhiteningTransform(np.eye(shape.dim)),
                         whiten2=tiny_model.whiten2)
    with pytest.raises(ValueError, match="16-bit"):
        extract_features(model, glyph_test[0][:1])


def test_feature_dim_matches_model_arithmetic(tiny_model, glyph_test):
    feats = extract_features(tiny_model, glyph_test[0][:2])
    # l1=4: 5 groups x 64 blocks x 16 bins
    assert feats.shape[1] == 5 * 64 * 16


def test_trans_layer_off_shrinks_features(glyph_train):
    images, labels = glyph_train
    model = train_model(tiny_config(trans_layer=False), images[:30], labels[:30])
    feats = extract_features(model, images[:2])
    assert feats.shape[1] == 4 * 64 * 16  # L2 groups only


def test_unequal_filter_counts(glyph_train):
    # l1 fixes the bins (2^l1) and group size; l2 fixes the group count
    images, labels = glyph_train
    model = train_model(tiny_config(l1=3, l2=5), images[:30], labels[:30])
    feats = extract_features(model, images[:2])
    assert feats.shape[1] == (5 + 1) * 64 * 8


def test_dae_learner_end_to_end(glyph_train, glyph_test):
    images, labels = glyph_train
    cfg = tiny_config(learner="dae", dae_epochs=6, patches_per_layer=300)
    model = train_model(cfg, images, labels)
    assert model.bank1.biases is not None and model.bank2.biases is not None
    result = evaluate_model(model, *glyph_test)
    assert result.error_rate <= 50.0  # sanity: far better than the 90% floor


def test_wpca_cosine_classifier_end_to_end(glyph_train, glyph_test):
    images, labels = glyph_train
    cfg = tiny_config(classifier="wpca_cosine", wpca_dim=20, wpca_sqrt=True)
    model = train_model(cfg, images, labels)
    result = evaluate_model(model, glyph_test[0][:20], glyph_test[1][:20])
    assert result.error_rate <= 50.0
    preds = predict_features(model, extract_features(model, glyph_test[0][:5]))
    assert preds.shape == (5,)


def test_self_evaluation_is_accurate(tiny_model, glyph_train):
    # trained and evaluated on the same small set: error stays low
    images, labels = glyph_train
    result = evaluate_model(tiny_model, images, labels)
    assert result.error_rate <= 5.0


def test_eval_report_recount(tiny_model, glyph_test):
    result = evaluate_model(tiny_model, *glyph_test)
    text = format_eval_report(result)
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    k = len(result.classes)
    rows = np.array([[int(v) for v in line.split()[1:]] for line in lines[1:1 + k]])
    assert rows.sum() == result.samples
    assert rows.sum() - np.trace(rows) == result.errors
    assert f"{result.error_rate:.2f}" in lines[-1]


def test_label_count_mismatch_rejected(tiny_model, glyph_test):
    with pytest.raises(ValueError):
        evaluate_model(tiny_model, glyph_test[0][:5], glyph_test[1][:4])


def test_empty_sets_rejected(tiny_model):
    with pytest.raises(ValueError, match="no samples"):
        evaluate_model(tiny_model, [], np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="no training samples"):
        train_model(tiny_config(), [], np.zeros(0, dtype=np.int64))


def test_same_seed_same_banks(glyph_train):
    images, labels = glyph_train
    cfg = tiny_config(patches_per_layer=200)
    a = train_model(cfg, images[:20], labels[:20])
    b = train_model(cfg, images[:20], labels[:20])
    assert np.array_equal(a.bank1.weights, b.bank1.weights)
    assert np.array_equal(a.bank2.weights, b.bank2.weights)
    assert np.abs(a.bank1.weights - b.bank1.weights).max() == 0.0


def test_invalid_config_rejected(glyph_train):
    images, labels = glyph_train
    with pytest.raises(ValueError, match="invalid config"):
        train_model(tiny_config(l1=0), images[:10], labels[:10])
