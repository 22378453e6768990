"""End-to-end orchestration: train both layers, encode, classify, evaluate.

Feature extraction is a pure function of (model, image). :func:`_run_tasks`
splits a batch into tasks of ``chunk`` consecutive images, and
``forkpool.fork_pool(jobs, (model, images, dim))`` runs
:func:`_encode_task` on each: the workers see the model and the images
copy-on-write, so no image is pickled, and every ``jobs`` runs the same
function on the same model. Each image comes back as ``(indices,
counts)`` in the narrowest dtypes that hold them: int32 indices wherever
scipy indexes the CSR matrix with int32, and counts sized to a block's
pixel count, a fraction of the int64 pair to unpickle. Training then
passes the same ``jobs`` to the classifier fit: both fits write their
Gram one strip of rows per task, then ``svm_train`` solves one class per
task and ``wpca_fit`` lifts one block of columns per task. A fourth
fan-out comes first: each autoencoder layer draws its corruption masks
one epoch per task (``filters.train_dae``).

Evaluation runs its tasks through :func:`_predict_task`, which encodes
them with :func:`_encode_task` and scores them where it runs, returning
only their labels, which do not depend on the split: no test feature
passes through a pipe and no dense batch wider than a task is formed.
Training projects no rows: ``wpca_fit`` returns the projected training
set with the model. Training and prediction run on one BLAS thread
(``forkpool.one_blas_thread``), so their bits do not depend on the count.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classify import (LinearSvmModel, WpcaCosineModel, as_csr,
                       check_gram_size, cosine_nn, svm_predict_many, svm_train,
                       wpca_apply, wpca_fit)
from . import encoder
from .filters import (common_size, draw_patch_locations, gather_patches,
                      learn_dae_filters, learn_pca_filters, sample_patches)
from .forkpool import fork_pool, one_blas_thread
# build_stack is not called here; perfbench's tracer wraps experiment.build_stack
from .pipeline import build_stack, code_maps, lcn_constant, map_layer  # noqa: F401
# training calls lcn_rows by this name, which perfbench traces apart
from .preprocess import lcn_rows as lcn_matrix, whiten_apply, whiten_fit
from .rng import Rng
from .types import Config, DAE, TrainedModel, validate_config

log = logging.getLogger("translayer")

# images per pool task of extraction, and evaluation's default
TASK_IMAGES = 32


class StageTimer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        log.info("stage %-24s %8.2f s", stage, now - self.t0)
        self.t0 = now


def _preprocess_patches(patches, cfg: Config):
    lcn = lcn_constant(cfg)
    if lcn is not None:
        patches = lcn_matrix(patches, lcn)
    transform = whiten_fit(patches, cfg.whiten_epsilon)
    return whiten_apply(transform, patches), transform


def _learn_bank(z, count, cfg: Config, rng: Rng, layer: str, jobs: int):
    if cfg.learner == DAE:
        # a sub-seed per layer, so both DAE trainings draw independent streams
        layer_rng = Rng(rng.stream(f"layer-seed.{layer}").integers(0, 2**63))
        return learn_dae_filters(z, cfg.patch_shape(), count, cfg, layer_rng,
                                 jobs=jobs)
    bank = learn_pca_filters(z, cfg.patch_shape(), count)
    ortho = np.abs(bank.weights @ bank.weights.T - np.eye(count)).max()
    log.info("%s pca orthonormality residual %.3g", layer, ortho)
    log.info("%s pca eigenvalue spectrum %s", layer,
             np.array2string(bank.spectrum, precision=4, threshold=16))
    return bank


@one_blas_thread()
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
    if cfg.classifier == "svm" and np.unique(labels).size < 2:
        raise ValueError("need at least two classes")
    check_gram_size(cfg.classifier, len(images))
    h, w = common_size(images)
    dim = encoder.feature_dim((h, w), cfg)   # rejects a block larger than (h, w)
    # a centered sample of n images has rank at most n - 1
    if cfg.classifier == "wpca_cosine" and cfg.wpca_dim > min(len(images) - 1, dim):
        raise ValueError(f"wpca_dim {cfg.wpca_dim} exceeds min(training images"
                         f" - 1, feature dimension) = min({len(images) - 1}, {dim})")

    rng = Rng(cfg.seed)
    shape = cfg.patch_shape()
    timer = StageTimer()

    patches = sample_patches(images, shape, cfg.patches_per_layer,
                             rng.stream("patches.layer1"))
    timer.lap("sample layer1 patches")
    z, whiten1 = _preprocess_patches(patches, cfg)
    timer.lap("preprocess layer1")
    bank1 = _learn_bank(z, cfg.l1, cfg, rng, "layer1", jobs)
    timer.lap("learn layer1 bank")

    # layer-2 patches come from first-layer maps; maps are built lazily for
    # the images the draw actually touches, all L1 maps of an image forming
    # consecutive sources, which gather_patches visits in ascending order
    locations = draw_patch_locations(len(images) * cfg.l1, (h, w), shape,
                                     cfg.patches_per_layer,
                                     rng.stream("patches.layer2"))
    lcn = lcn_constant(cfg)

    @functools.lru_cache(maxsize=1)
    def maps_of(image_idx: int):
        return map_layer(images[image_idx], bank1, whiten1, lcn)

    patches = gather_patches(lambda src: maps_of(src // cfg.l1)[src % cfg.l1],
                             locations, shape)
    timer.lap("sample layer2 patches")
    z, whiten2 = _preprocess_patches(patches, cfg)
    timer.lap("preprocess layer2")
    bank2 = _learn_bank(z, cfg.l2, cfg, rng, "layer2", jobs)
    timer.lap("learn layer2 bank")
    del patches, z   # not held through extraction and the classifier fit

    front = TrainedModel(config=cfg, bank1=bank1, bank2=bank2,
                         whiten1=whiten1, whiten2=whiten2)
    features = extract_features(front, images, jobs=jobs)
    timer.lap("extract training features")

    if cfg.classifier == "svm":
        classifier = svm_train(features, labels, cfg.svm_c, rng, jobs=jobs)
    else:
        classifier = wpca_fit(_wpca_input(features, cfg), labels,
                              cfg.wpca_dim, jobs=jobs)
    timer.lap("train classifier")
    return replace(front, classifier=classifier)


def _wpca_input(features, cfg: Config) -> sp.csr_matrix:
    """Features as the WPCA classifier sees them: float64 CSR, counts
    square-rooted (in a new matrix) when ``wpca_sqrt`` is on."""
    x = as_csr(features)
    if cfg.wpca_sqrt:
        x = sp.csr_matrix((np.sqrt(x.data), x.indices, x.indptr), shape=x.shape)
    return x


def _encode_task(state, task) -> list:
    """The ``(indices, counts)`` of each of ``images[start:stop]``, narrowed
    as the module describes."""
    model, images, dim = state
    cfg = model.config
    index_dtype = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    count_dtype = np.min_scalar_type(cfg.block_w * cfg.block_h)
    feats = (encoder.feature_of(code_maps(image, model), cfg)
             for image in images[slice(*task)])
    return [(f.indices.astype(index_dtype), f.counts.astype(count_dtype))
            for f in feats]


def _csr(pairs, dim: int) -> sp.csr_matrix:
    """The CSR matrix of ``_encode_task``'s pairs, one row per image."""
    indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum([idx.size for idx, _ in pairs], out=indptr[1:])
    indices = np.concatenate([idx for idx, _ in pairs])
    data = np.concatenate([cnt for _, cnt in pairs], dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(pairs), dim))


def extract_features(model: TrainedModel, images, jobs: int = 1) -> sp.csr_matrix:
    """Histogram features for a batch of images as a CSR matrix."""
    dim, parts = _run_tasks(_encode_task, model, images, jobs)
    return _csr([pair for part in parts for pair in part], dim)


@one_blas_thread()
def predict_features(model: TrainedModel, features) -> np.ndarray:
    clf = model.classifier
    if isinstance(clf, LinearSvmModel):
        return svm_predict_many(clf, features)
    if isinstance(clf, WpcaCosineModel):
        projected = wpca_apply(clf, _wpca_input(features, model.config))
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


def _run_tasks(fn, model: TrainedModel, images, jobs: int,
               chunk: int = TASK_IMAGES) -> tuple[int, list]:
    """``dim`` and ``fn((model, images, dim), (start, stop))`` of each run of
    ``chunk`` consecutive images, over ``fork_pool(jobs, ...)`` in order."""
    n = len(images)
    if n == 0:
        raise ValueError("no samples")
    dim = encoder.feature_dim(common_size(images), model.config)
    tasks = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    with fork_pool(jobs, (model, images, dim)) as run:
        return dim, list(run(fn, tasks))


def _predict_task(state, task) -> np.ndarray:
    """Labels of ``images[start:stop]``, encoded and scored where it runs."""
    model, _, dim = state
    return predict_features(model, _csr(_encode_task(state, task), dim))


def evaluate_model(model: TrainedModel, images, labels, jobs: int = 1,
                   chunk: int = TASK_IMAGES) -> EvalResult:
    """Extract, predict, and tally a confusion matrix, ``chunk`` images per
    pool task."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != len(images):
        raise ValueError("label/image count mismatch")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if model.classifier is None:
        raise TypeError("model has no trained classifier")
    classes = np.union1d(model.classifier.classes, labels)
    _, parts = _run_tasks(_predict_task, model, images, jobs, chunk)
    preds = np.concatenate(parts)
    confusion = np.zeros((classes.size, classes.size), dtype=np.int64)
    np.add.at(confusion, (np.searchsorted(classes, labels),
                          np.searchsorted(classes, preds)), 1)
    errors = len(images) - int(np.trace(confusion))
    return EvalResult(classes=classes, confusion=confusion,
                      samples=len(images), errors=errors)


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
