"""Acceptance gate.

Each test prints one PASS line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Criteria that need
the real digit corpora look for them under ``TRANSLAYER_DATA_DIR`` and
skip with an explicit message when the files are absent; every tolerance
is asserted exactly as pinned, never loosened.
"""

import itertools
import os
import time

import numpy as np
import pytest

from translayer import (Config, GrayImage, Rng, load_config, svm_train,
                        train_model, evaluate_model)
from translayer.classify import svm_predict_many
from translayer.cli import main
from translayer.dataio import read_amat
from translayer.encoder import compress_groups, feature_dim, feature_of
from translayer.experiment import run_ablation
from translayer.filters import dae_value_and_grad
from translayer.pipeline import build_stack
from translayer.preprocess import column_covariance, whiten_apply, whiten_fit

from conftest import make_glyphs

JOBS = min(4, os.cpu_count() or 1)
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

_CORPUS_FILES = {
    "mnist_basic": ("mnist_train.amat", "mnist_test.amat", 12000, 50000),
    "rectangles": ("rectangles_train.amat", "rectangles_test.amat", 1200, 50000),
    "mnist_back_image": ("mnist_background_images_train.amat",
                         "mnist_background_images_test.amat", 12000, 50000),
}


def report(cid, text):
    print(f"ACCEPTANCE {cid} {text}: PASS")


def _find_corpus(name):
    root = os.environ.get("TRANSLAYER_DATA_DIR")
    train_name, test_name, n_train, n_test = _CORPUS_FILES[name]
    if not root:
        pytest.skip(f"criterion needs the {name} corpus; set TRANSLAYER_DATA_DIR "
                    f"to a directory containing {train_name} and {test_name}")
    for sub in ("", name):
        train = os.path.join(root, sub, train_name)
        test = os.path.join(root, sub, test_name)
        if os.path.isfile(train) and os.path.isfile(test):
            return train, test, n_train, n_test
    pytest.skip(f"{name} corpus not found under {root} "
                f"(expected {train_name} / {test_name})")


def _load_corpus(name):
    train_path, test_path, n_train, n_test = _find_corpus(name)
    train_images, train_labels = read_amat(train_path)
    test_images, test_labels = read_amat(test_path)
    assert len(train_images) == n_train, "train sample count off"
    assert len(test_images) == n_test, "test sample count off"
    return (train_images, train_labels), (test_images, test_labels)


def _dataset_config(name) -> Config:
    return load_config(os.path.join(CONFIG_DIR, f"{name}.conf"))


# --- criteria 1, 2, 4: error-rate gates on the real corpora ---------------

@pytest.mark.parametrize("cid,name,max_error,budget_minutes", [
    ("1", "mnist_basic", 1.6, 45.0),
    ("2", "rectangles", 1.0, 15.0),
    ("4", "mnist_back_image", 12.5, None),
])
def test_corpus_error_gate(cid, name, max_error, budget_minutes):
    (train_images, train_labels), (test_images, test_labels) = _load_corpus(name)
    cfg = _dataset_config(name)
    t0 = time.perf_counter()
    model = train_model(cfg, train_images, train_labels, jobs=JOBS)
    result = evaluate_model(model, test_images, test_labels, jobs=JOBS)
    minutes = (time.perf_counter() - t0) / 60.0
    assert result.error_rate <= max_error, (
        f"{name}: {result.error_rate:.2f}% > {max_error}%")
    if budget_minutes is not None:
        assert minutes <= budget_minutes, f"{name}: took {minutes:.1f} min"
    report(cid, f"{name} error {result.error_rate:.2f}% <= {max_error}% "
                f"({minutes:.1f} min)")


# --- criterion 3: ablation directions on mnist-basic ----------------------

def test_ablation_directions():
    (train_images, train_labels), (test_images, test_labels) = \
        _load_corpus("mnist_basic")
    cfg = _dataset_config("mnist_basic")
    results = run_ablation(cfg, train_images, train_labels,
                           test_images, test_labels, jobs=JOBS)
    err = {key: res.error_rate for key, res in results.items()}
    assert err[(True, True)] < err[(True, False)], (
        f"trans-layer on {err[(True, True)]:.2f}% !< off {err[(True, False)]:.2f}%")
    assert err[(True, True)] <= err[(False, True)] + 0.1, (
        f"lcn on {err[(True, True)]:.2f}% > off {err[(False, True)]:.2f}% + 0.1")
    report("3", "ablation directions (trans-layer helps, lcn within 0.1pp)")


# --- criterion 5: property gates (always run) ------------------------------

@pytest.fixture(scope="module")
def smoke_artifacts(tmp_path_factory):
    """Two seeded CLI runs of the 100/100 smoke pipeline, first one timed."""
    root = tmp_path_factory.mktemp("smoke")
    train_images, train_labels = make_glyphs(100, seed=501)
    test_images, test_labels = make_glyphs(100, seed=502)

    def dump(path, images, labels):
        with open(path, "w") as fh:
            for img, label in zip(images, labels):
                row = " ".join(f"{v:.6f}" for v in img.pixels.ravel())
                fh.write(f"{row} {int(label)}\n")

    dump(root / "train.amat", train_images, train_labels)
    dump(root / "test.amat", test_images, test_labels)
    cfg = Config(patches_per_layer=500, seed=29)
    from translayer.types import format_config
    (root / "smoke.conf").write_text(format_config(cfg))

    elapsed = {}
    t0 = time.perf_counter()
    for tag in ("a", "b"):
        rc = main(["train", "--config", str(root / "smoke.conf"),
                   "--train", str(root / "train.amat"),
                   "--model", str(root / f"model_{tag}.bin")])
        assert rc == 0
        rc = main(["eval", "--model", str(root / f"model_{tag}.bin"),
                   "--test", str(root / "test.amat"),
                   "--out", str(root / f"report_{tag}.txt")])
        assert rc == 0
        if tag == "a":
            elapsed["first_run"] = time.perf_counter() - t0
    return root, elapsed


def test_acceptance_5a_pca_orthonormality(smoke_artifacts):
    from translayer.dataio import load_model
    root, _ = smoke_artifacts
    model = load_model(root / "model_a.bin")
    for name, bank in (("bank1", model.bank1), ("bank2", model.bank2)):
        resid = np.abs(bank.weights @ bank.weights.T
                       - np.eye(bank.count)).max()
        assert resid < 1e-8, f"{name} residual {resid:.3g}"
    report("5a", "trained banks orthonormal within 1e-8")


def test_acceptance_5b_whitening_identity_covariance():
    gen = np.random.default_rng(55)
    data = gen.normal(size=(49, 4000))
    transform = whiten_fit(data, 0.0)
    cov = column_covariance(whiten_apply(transform, data))
    resid = np.abs(cov - np.eye(49)).max()
    assert resid < 1e-6, f"covariance residual {resid:.3g}"
    report("5b", "eps=0 whitening gives identity covariance within 1e-6")


@pytest.mark.parametrize("d,count,seed", [(9, 4, 60), (25, 3, 61)])
def test_acceptance_5c_dae_gradient_check(d, count, seed):
    gen = np.random.default_rng(seed)
    w = gen.normal(scale=0.5, size=(count, d))
    b = gen.normal(scale=0.1, size=count)
    bp = gen.normal(scale=0.1, size=d)
    z = gen.normal(scale=0.5, size=(d, 5))
    zt = z * (gen.random((d, 5)) >= 0.1)
    z, zt = z.T, zt.T   # one patch per row
    _, gw, gb, gbp = dae_value_and_grad(w, b, bp, z, zt, 1.0)
    h = 1e-5

    def fd(arr):
        out = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            up = dae_value_and_grad(w, b, bp, z, zt, 1.0)[0]
            arr[i] = orig - h
            dn = dae_value_and_grad(w, b, bp, z, zt, 1.0)[0]
            arr[i] = orig
            out[i] = (up - dn) / (2 * h)
        return out

    worst = 0.0
    for analytic, numeric in ((gw, fd(w)), (gb, fd(b)), (gbp, fd(bp))):
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"gradient relative error {worst:.3g}"
    report("5c", f"autoencoder gradients match finite differences (dim {d})")


def test_acceptance_5d_pca_reconstruction_optimality():
    from translayer import PatchShape, learn_pca_filters
    gen = np.random.default_rng(62)
    z = gen.normal(size=(25, 5000))
    bank = learn_pca_filters(z, PatchShape(5, 5), 4)
    w = bank.weights
    pca_err = np.linalg.norm(z - w.T @ (w @ z)) ** 2
    for trial in range(200):
        q, _ = np.linalg.qr(gen.normal(size=(25, 4)))
        rand_err = np.linalg.norm(z - q @ (q.T @ z)) ** 2
        assert rand_err >= pca_err * (1 - 1e-9), f"trial {trial} beat pca"
    report("5d", "pca reconstruction error minimal over 200 random projections")


def test_acceptance_5e_histogram_conservation(tiny_model):
    gen = np.random.default_rng(63)
    cfg = tiny_model.config
    nx = (28 - cfg.block_w) // cfg.stride_x + 1
    ny = (28 - cfg.block_h) // cfg.stride_y + 1
    groups = tiny_model.bank2.count + 1
    expected = groups * nx * ny * cfg.block_w * cfg.block_h
    dim = feature_dim((28, 28), cfg)
    for _ in range(1000):
        image = GrayImage(gen.random((28, 28)))
        codes = compress_groups(build_stack(image, tiny_model), cfg.trans_layer)
        feat = feature_of(codes, cfg)
        assert feat.counts.sum() == expected
        assert (np.diff(feat.indices) > 0).all()
        assert (feat.counts > 0).all()
        assert feat.indices[-1] < dim
    report("5e", "histogram counts conserved, indices increasing and in "
                 "range, counts positive on 1000 random images")


def test_acceptance_5f_end_to_end_determinism(smoke_artifacts):
    root, _ = smoke_artifacts
    model_a = (root / "model_a.bin").read_bytes()
    model_b = (root / "model_b.bin").read_bytes()
    assert model_a == model_b, "model files differ between seeded runs"
    report_a = (root / "report_a.txt").read_bytes()
    report_b = (root / "report_b.txt").read_bytes()
    assert report_a == report_b, "reports differ between seeded runs"
    report("5f", "two seeded runs give byte-identical model and report")


def test_acceptance_5g_svm_toy_suite():
    sep_x = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]])
    sep_y = np.array([0, 0, 1, 1])
    model = svm_train(sep_x, sep_y, cost_c=1.0, rng=Rng(64))
    assert np.array_equal(svm_predict_many(model, sep_x), sep_y)

    xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([1, 1, 0, 0])
    xor_model = svm_train(xor_x, xor_y, cost_c=1.0, rng=Rng(65))
    assert float((svm_predict_many(xor_model, xor_x) == xor_y).mean()) <= 0.75

    for hist in itertools.chain(model.objective_history,
                                xor_model.objective_history):
        assert (np.diff(hist) <= 1e-9).all()
    report("5g", "svm toys: separable 100%, xor <= 75%, objective monotone")


# --- criterion 6: smoke pipeline -------------------------------------------

def test_acceptance_6_smoke_pipeline(smoke_artifacts):
    root, elapsed = smoke_artifacts
    assert elapsed["first_run"] < 60.0, f"smoke run took {elapsed['first_run']:.1f} s"
    text = (root / "report_a.txt").read_text()
    error = float(text.split("error_rate_percent ")[1].split()[0])
    assert error <= 50.0, f"smoke error {error:.2f}% above the 50% gate"
    report("6", f"smoke pipeline {elapsed['first_run']:.1f} s, error {error:.2f}%")
