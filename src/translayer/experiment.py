"""End-to-end orchestration: train both layers, encode, classify, evaluate.

Feature extraction is a pure function of (model, image): a batch is one
call ``run(_encode_one, images, 16)`` of ``forkpool.fork_pool(jobs,
model)``, so every ``jobs`` runs the same function on the same model. Each
image comes back as ``(indices, counts)`` in the narrowest dtypes that hold
them: int32 indices wherever scipy indexes the CSR matrix with int32, and
counts sized to a block's pixel count. The parent so unpickles a fraction
of the int64 pair, and builds the same matrix. Training then passes the
same ``jobs`` to the classifier fit, which forks its own pools after the
features exist: ``svm_train`` solves one class per task, and
``wpca_fit`` builds its Gram and lift one block of feature columns per
task. A fourth fan-out comes first: each autoencoder layer draws its
corruption masks one epoch per task (``filters.train_dae``).

Evaluation splits the test set into tasks of ``chunk`` consecutive images
(a one-image tail joins the task before it, see :func:`_tasks`), and one
pool serves every task. A task encodes and scores its images where it
runs and returns only their labels, so no test feature passes through a
pipe and no dense batch wider than a task is formed. ``wpca_cosine``
training projects its training set through the same split
(:func:`_run_tasks`), so it too densifies one task, not the batch, at a
time. Training and prediction run on one BLAS thread
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
                       check_wpca_size, cosine_nn, svm_predict_many, svm_train,
                       wpca_apply, wpca_fit)
from . import encoder
from .filters import (common_size, draw_patch_locations, gather_patches,
                      learn_dae_filters, learn_pca_filters, sample_patches)
from .forkpool import fork_pool, one_blas_thread
# build_stack is not called here; perfbench's tracer wraps experiment.build_stack
from .pipeline import build_stack, code_maps, lcn_constant, map_layer  # noqa: F401
from .preprocess import lcn_matrix, whiten_apply, whiten_fit
from .rng import Rng
from .types import Config, DAE, TrainedModel, validate_config

log = logging.getLogger("translayer")

# images (or training rows) per pool task when evaluating or projecting
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
        return learn_dae_filters(z, cfg.patch_shape(), count, cfg,
                                 _layer_rng(rng, layer), jobs=jobs)
    bank = learn_pca_filters(z, cfg.patch_shape(), count)
    ortho = np.abs(bank.weights @ bank.weights.T - np.eye(count)).max()
    log.info("%s pca orthonormality residual %.3g", layer, ortho)
    log.info("%s pca eigenvalue spectrum %s", layer,
             np.array2string(bank.spectrum, precision=4, threshold=16))
    return bank


def _layer_rng(rng: Rng, layer: str) -> Rng:
    # distinct sub-seed per layer so both DAE trainings draw independent streams
    return Rng(rng.stream(f"layer-seed.{layer}").integers(0, 2**63))


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
    h, w = common_size(images)
    dim = encoder.feature_dim((h, w), cfg)   # rejects a block larger than (h, w)
    if cfg.classifier == "wpca_cosine":
        check_wpca_size(len(images))
        # a centered sample of n images has rank at most n - 1
        if cfg.wpca_dim > min(len(images) - 1, dim):
            raise ValueError(
                f"wpca_dim {cfg.wpca_dim} exceeds min(training images - 1, "
                f"feature dimension) = min({len(images) - 1}, {dim})")

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
        x = _wpca_input(features, cfg)
        wpca = wpca_fit(x, cfg.wpca_dim, jobs=jobs)
        vectors = _run_tasks(jobs, (wpca, x), _project_task, x.shape[0])
        classifier = WpcaCosineModel(wpca=wpca, train_vectors=vectors,
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


def _encode_one(model, image):
    """One image's ``(indices, counts)``, narrowed as the module describes."""
    cfg = model.config
    codes = code_maps(image, model)
    feat = encoder.feature_of(codes, cfg)
    dim = encoder.feature_dim(codes.shape[1:], cfg)
    index_dtype = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    return (feat.indices.astype(index_dtype),
            feat.counts.astype(np.min_scalar_type(cfg.block_w * cfg.block_h)))


def _csr(pairs, dim: int) -> sp.csr_matrix:
    """The CSR matrix of ``_encode_one``'s pairs, one row per image."""
    indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum([idx.size for idx, _ in pairs], out=indptr[1:])
    indices = np.concatenate([idx for idx, _ in pairs])
    data = np.concatenate([cnt for _, cnt in pairs], dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(pairs), dim))


def extract_features(model: TrainedModel, images, jobs: int = 1) -> sp.csr_matrix:
    """Histogram features for a batch of images as a CSR matrix."""
    if len(images) == 0:
        raise ValueError("no samples")
    dim = encoder.feature_dim(common_size(images), model.config)
    with fork_pool(jobs, model) as run:
        return _csr(list(run(_encode_one, images, 16)), dim)


@one_blas_thread()
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


def _tasks(n: int, chunk: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each evaluation task: ``chunk`` images each,
    with a one-image tail joined to the task before it.

    BLAS projects a one-row batch with gemv, which moves the row's last
    bits, so only ``n == 1`` makes a one-image task. gemm gives each row
    of a batch of two or more the bits one product of the whole set gives,
    at least above OpenBLAS's small-matrix cutoff of about 1e6
    multiply-adds (d = 147456 is far above it). The split does not depend
    on ``jobs``, so every ``jobs`` runs the same products.
    """
    starts = list(range(0, n, chunk))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _run_tasks(jobs: int, state, fn, n: int, chunk: int = TASK_IMAGES):
    """``fn(state, (start, stop))`` of every task of ``_tasks(n, chunk)``,
    run over ``fork_pool(jobs, state)`` and concatenated in task order."""
    with fork_pool(jobs, state) as run:
        return np.concatenate(list(run(fn, _tasks(n, chunk), 1)))


def _project_task(state, task) -> np.ndarray:
    """The WPCA projection of training rows ``start:stop``."""
    wpca, x = state
    start, stop = task
    return wpca_apply(wpca, x[start:stop])


def _predict_task(state, task) -> np.ndarray:
    """Labels of ``images[start:stop]``, encoded and scored where it runs."""
    model, images, dim = state
    start, stop = task
    pairs = [_encode_one(model, image) for image in images[start:stop]]
    return predict_features(model, _csr(pairs, dim))


def evaluate_model(model: TrainedModel, images, labels, jobs: int = 1,
                   chunk: int = TASK_IMAGES) -> EvalResult:
    """Extract, predict, and tally a confusion matrix, ``chunk`` (at least
    2) images per pool task."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(images) == 0:
        raise ValueError("no samples")
    if labels.shape[0] != len(images):
        raise ValueError("label/image count mismatch")
    if chunk < 2:
        raise ValueError("chunk must be >= 2")
    dim = encoder.feature_dim(common_size(images), model.config)
    clf = model.classifier
    if isinstance(clf, LinearSvmModel):
        # scipy multiplies by weights.T in C order, so Fortran-ordered
        # weights spare every task a copy of them; the values are the same
        model = replace(model, classifier=replace(
            clf, weights=np.asfortranarray(clf.weights)))
    classes = np.union1d(clf.classes, labels)
    preds = _run_tasks(jobs, (model, images, dim), _predict_task, len(images),
                       chunk)
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
