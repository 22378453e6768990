"""End-to-end orchestration: train both layers, encode, classify, evaluate.

Feature extraction is a pure function of (model, image), so it can fan out
over a process pool; chunks are merged back in input order, which keeps
every result identical to the single-process run. One pool serves a whole
call, including every chunk of an evaluation.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classify import (LinearSvmModel, WpcaCosineModel, as_csr, cosine_nn,
                       svm_predict_many, svm_train, wpca_apply, wpca_fit)
from . import encoder
from .filters import (draw_patch_locations, gather_patches, learn_dae_filters,
                      learn_pca_filters, sample_patches)
# build_stack is not called here; perfbench's tracer wraps experiment.build_stack
from .pipeline import build_stack, code_maps, extraction_steps, map_layer  # noqa: F401
from .preprocess import lcn_matrix, whiten_apply, whiten_fit
from .rng import Rng
from .types import (Config, DAE, TrainedModel, validate_config)

log = logging.getLogger("translayer")


class StageTimer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        log.info("stage %-24s %8.2f s", stage, now - self.t0)
        self.t0 = now


def _preprocess_patches(patches, cfg: Config):
    if cfg.lcn:
        patches = lcn_matrix(patches, cfg.lcn_c)
    transform = whiten_fit(patches, cfg.whiten_epsilon)
    return whiten_apply(transform, patches), transform


def _learn_bank(z, count, cfg: Config, rng: Rng, layer: str):
    if cfg.learner == DAE:
        return learn_dae_filters(z, cfg.patch_shape(), count, cfg,
                                 _layer_rng(rng, layer))
    bank = learn_pca_filters(z, cfg.patch_shape(), count)
    ortho = np.abs(bank.weights @ bank.weights.T - np.eye(count)).max()
    log.info("%s pca orthonormality residual %.3g", layer, ortho)
    log.info("%s pca eigenvalue spectrum %s", layer,
             np.array2string(bank.spectrum, precision=4, threshold=16))
    return bank


def _layer_rng(rng: Rng, layer: str) -> Rng:
    # distinct sub-seed per layer so both DAE trainings draw independent streams
    return Rng(rng.stream(f"layer-seed.{layer}").integers(0, 2**63))


def train_model(cfg: Config, images, labels, jobs: int = 1) -> TrainedModel:
    """Run the full unsupervised + classifier training pipeline."""
    errors = validate_config(cfg)
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    if len(images) == 0:
        raise ValueError("no training samples")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != len(images):
        raise ValueError("label/image count mismatch")

    rng = Rng(cfg.seed)
    shape = cfg.patch_shape()
    timer = StageTimer()

    patches1 = sample_patches(images, shape, cfg.patches_per_layer,
                              rng.stream("patches.layer1"))
    timer.lap("sample layer1 patches")
    z1, whiten1 = _preprocess_patches(patches1, cfg)
    timer.lap("preprocess layer1")
    bank1 = _learn_bank(z1, cfg.l1, cfg, rng, "layer1")
    timer.lap("learn layer1 bank")

    # layer-2 patches come from first-layer maps; maps are built lazily for
    # the images the draw actually touches, all L1 maps of an image forming
    # consecutive sources
    sizes = []
    for img in images:
        sizes.extend([img.pixels.shape] * cfg.l1)
    locations = draw_patch_locations(sizes, shape, cfg.patches_per_layer,
                                     rng.stream("patches.layer2"))
    cache = {"idx": -1, "maps": None}
    lcn, whiten, _ = extraction_steps(cfg, whiten1)

    def fetch(source_idx: int):
        image_idx, map_idx = divmod(source_idx, cfg.l1)
        if cache["idx"] != image_idx:
            cache["maps"] = map_layer(images[image_idx], bank1, whiten, lcn)
            cache["idx"] = image_idx
        return cache["maps"][map_idx]

    patches2 = gather_patches(fetch, locations, shape)
    timer.lap("sample layer2 patches")
    z2, whiten2 = _preprocess_patches(patches2, cfg)
    timer.lap("preprocess layer2")
    bank2 = _learn_bank(z2, cfg.l2, cfg, rng, "layer2")
    timer.lap("learn layer2 bank")

    front = TrainedModel(config=cfg, bank1=bank1, bank2=bank2,
                         whiten1=whiten1, whiten2=whiten2)
    features = extract_features(front, images, jobs=jobs)
    timer.lap("extract training features")

    if cfg.classifier == "svm":
        classifier = svm_train(features, labels, cfg.svm_c, rng)
    else:
        x = _wpca_input(features, cfg)
        wpca = wpca_fit(x, cfg.wpca_dim)
        classifier = WpcaCosineModel(wpca=wpca, train_vectors=wpca_apply(wpca, x),
                                     train_labels=labels)
    timer.lap("train classifier")
    return replace(front, classifier=classifier)


def _wpca_input(features, cfg: Config) -> sp.csr_matrix:
    """Features as the WPCA classifier sees them: float64 CSR, counts
    square-rooted (in a new matrix) when ``wpca_sqrt`` is on."""
    x = as_csr(features)
    if cfg.wpca_sqrt:
        x = sp.csr_matrix((np.sqrt(x.data), x.indices, x.indptr), shape=x.shape)
    return x


_WORKER_MODEL = None


def _init_worker(model):
    global _WORKER_MODEL
    _WORKER_MODEL = model


def _encode_one(model, image):
    return encoder.feature_of(code_maps(image, model), model.config)


def _worker_encode(image):
    feat = _encode_one(_WORKER_MODEL, image)
    return feat.indices, feat.counts, feat.dim


@contextmanager
def _extraction_pool(model: TrainedModel, jobs: int):
    """A pool of ``jobs`` forked workers holding ``model``; None at jobs=1."""
    if jobs <= 1:
        yield None
        return
    ctx = mp.get_context("fork")
    with ctx.Pool(jobs, initializer=_init_worker, initargs=(model,)) as pool:
        yield pool


def _features(model: TrainedModel, images, pool) -> sp.csr_matrix:
    if pool is not None:
        triples = pool.map(_worker_encode, images, chunksize=16)
    else:
        triples = []
        for image in images:
            feat = _encode_one(model, image)
            triples.append((feat.indices, feat.counts, feat.dim))
    dim = triples[0][2]
    indptr = np.zeros(len(triples) + 1, dtype=np.int64)
    for r, (idx, _, d) in enumerate(triples):
        if d != dim:
            raise ValueError("inconsistent feature dimensions across images")
        indptr[r + 1] = indptr[r] + idx.size
    indices = np.concatenate([idx for idx, _, _ in triples])
    data = np.concatenate([cnt for _, cnt, _ in triples]).astype(np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(triples), dim))


def extract_features(model: TrainedModel, images, jobs: int = 1) -> sp.csr_matrix:
    """Histogram features for a batch of images as a CSR matrix."""
    if len(images) == 0:
        raise ValueError("no samples")
    with _extraction_pool(model, jobs) as pool:
        return _features(model, images, pool)


def predict_features(model: TrainedModel, features) -> np.ndarray:
    clf = model.classifier
    if isinstance(clf, LinearSvmModel):
        return svm_predict_many(clf, features)
    if isinstance(clf, WpcaCosineModel):
        projected = wpca_apply(clf.wpca, _wpca_input(features, model.config))
        return np.array([cosine_nn(clf.train_vectors, clf.train_labels, row)
                         for row in projected], dtype=np.int64)
    raise TypeError("model has no trained classifier")


@dataclass(frozen=True)
class EvalResult:
    classes: np.ndarray
    confusion: np.ndarray        # rows true, cols predicted
    samples: int
    errors: int

    @property
    def error_rate(self) -> float:
        """Error percentage."""
        return 100.0 * self.errors / self.samples


def evaluate_model(model: TrainedModel, images, labels, jobs: int = 1,
                   chunk: int = 512) -> EvalResult:
    """Extract, predict, and tally a confusion matrix in streaming chunks."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(images) == 0:
        raise ValueError("no samples")
    if labels.shape[0] != len(images):
        raise ValueError("label/image count mismatch")
    model_classes = (model.classifier.classes
                     if isinstance(model.classifier, LinearSvmModel)
                     else np.unique(model.classifier.train_labels))
    classes = np.union1d(model_classes, np.unique(labels))
    index = {int(c): i for i, c in enumerate(classes)}
    confusion = np.zeros((classes.size, classes.size), dtype=np.int64)
    with _extraction_pool(model, jobs) as pool:
        for start in range(0, len(images), chunk):
            feats = _features(model, images[start:start + chunk], pool)
            preds = predict_features(model, feats)
            for true, pred in zip(labels[start:start + chunk], preds):
                confusion[index[int(true)], index[int(pred)]] += 1
    samples = int(confusion.sum())
    errors = samples - int(np.trace(confusion))
    return EvalResult(classes=classes, confusion=confusion,
                      samples=samples, errors=errors)


def format_eval_report(result: EvalResult) -> str:
    """Deterministic text report: confusion counts plus a summary line."""
    lines = ["# per-class confusion counts (rows true, cols predicted)"]
    lines.append("classes " + " ".join(str(int(c)) for c in result.classes))
    for i, cls in enumerate(result.classes):
        row = " ".join(str(int(v)) for v in result.confusion[i])
        lines.append(f"{int(cls)} {row}")
    lines.append(f"error_rate_percent {result.error_rate:.2f}")
    lines.append(f"SUMMARY kind=eval samples={result.samples} "
                 f"errors={result.errors} "
                 f"error_rate_percent={result.error_rate:.2f}")
    return "\n".join(lines) + "\n"


def run_ablation(cfg: Config, train_images, train_labels, test_images,
                 test_labels, jobs: int = 1):
    """Train and evaluate the 2x2 {lcn, trans_layer} grid with one seed."""
    results = {}
    for lcn_on in (True, False):
        for trans_on in (True, False):
            variant = replace(cfg, lcn=lcn_on, trans_layer=trans_on)
            log.info("ablation run lcn=%s trans_layer=%s",
                     "on" if lcn_on else "off", "on" if trans_on else "off")
            model = train_model(variant, train_images, train_labels, jobs=jobs)
            results[(lcn_on, trans_on)] = evaluate_model(
                model, test_images, test_labels, jobs=jobs)
    return results


def format_ablation_report(results) -> str:
    lines = ["lcn trans_layer error_rate_percent"]
    summary = []
    for (lcn_on, trans_on), res in sorted(results.items(), reverse=True):
        lcn_s = "on" if lcn_on else "off"
        trans_s = "on" if trans_on else "off"
        lines.append(f"{lcn_s} {trans_s} {res.error_rate:.2f}")
        summary.append(f"lcn_{lcn_s}_trans_{trans_s}={res.error_rate:.2f}")
    lines.append("SUMMARY kind=ablate " + " ".join(summary))
    return "\n".join(lines) + "\n"
