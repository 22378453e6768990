"""End-to-end orchestration: train both layers, encode, classify, evaluate.

Feature extraction is a pure function of (model, image). :func:`_run_tasks`
splits a batch into tasks of ``chunk`` consecutive images, and
``forkpool.fork_pool(jobs, (model, images, shape, maps))`` runs
:func:`_encode_task` on each: the workers see the model and the images
copy-on-write, so no image is pickled, and every ``jobs`` runs the same
function on the same model. Each image comes back as the
``encoder.feature_of`` pair, in the dtypes the CSR matrix keeps, and
:func:`_csr` copies the tasks' pairs, in order as they arrive, into one
matrix (a batch's into arrays of ``encoder.nnz_bound`` slots an image):
training fits and evaluation scores the counts in their own dtype, which
only ``classify`` widens.

Training, :func:`train_front` then :func:`fit_classifier`, fans out over
the same ``jobs`` five times. Each autoencoder layer draws its corruption
masks one epoch per task (``filters.train_dae``). Once the first bank is
learned, :func:`_map_task` writes the first-layer maps of the training
images, in the same tasks as extraction, into one shared array: the
second-layer patches are drawn from it, and training extraction encodes
each image from its maps there, so every training image is mapped
through the first layer once; the rows of each task are released as its
features are taken. Then both classifier fits write their Gram
one strip of rows per task, and ``svm_train`` solves one class per task
or ``wpca_fit`` lifts one block of columns per task.

Evaluation runs its tasks through :func:`_predict_task`, which encodes
them with :func:`_encode_task` and scores them where it runs, returning
only their labels, which do not depend on the split: no test feature
passes through a pipe and no dense batch wider than a task is formed.
Training projects no rows: ``wpca_fit`` returns the projected training
set with the model. Training and prediction run on one BLAS thread
(``forkpool.one_blas_thread``), so their bits do not depend on the count.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classify import (TASK_IMAGES, as_csr, check_gram_size, cosine_nn,
                       svm_predict_many, svm_train, wpca_apply, wpca_fit)
from . import encoder
from .filters import (common_size, draw_patch_locations, gather_patches,
                      learn_dae_filters, learn_pca_filters, sample_patches)
from .forkpool import fork_pool, one_blas_thread, release, shared_zeros, trim_heap
# build_stack is not called here; perfbench's tracer wraps experiment.build_stack
from .pipeline import build_stack, code_maps, lcn_constant, map_layer  # noqa: F401
# training calls lcn_rows by this name, which perfbench traces apart
from .preprocess import lcn_rows as lcn_matrix, whiten_apply, whiten_fit
from .rng import Rng
from .types import Config, DAE, TrainedModel, validate_config

log = logging.getLogger("translayer")


class StageTimer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        log.info("stage %-24s %8.2f s", stage, now - self.t0)
        self.t0 = now


def _learn_layer(patches, count: int, cfg: Config, rng: Rng, layer: str,
                 jobs: int, timer: StageTimer):
    """``(bank, whitening)`` of one layer, learned from its drawn
    ``patches``: contrast normalization, whitening, then PCA or the
    autoencoder. Laps the draw, the preprocessing and the learning."""
    timer.lap(f"sample {layer} patches")
    lcn = lcn_constant(cfg)
    if lcn is not None:
        patches = lcn_matrix(patches, lcn)
    whiten = whiten_fit(patches, cfg.whiten_epsilon)
    z = whiten_apply(whiten, patches)
    timer.lap(f"preprocess {layer}")
    if cfg.learner == DAE:
        # a sub-seed per layer, so both DAE trainings draw independent streams
        layer_rng = Rng(rng.stream(f"layer-seed.{layer}").integers(0, 2**63))
        bank = learn_dae_filters(z, cfg.patch_shape(), count, cfg, layer_rng,
                                 jobs=jobs)
    else:
        bank = learn_pca_filters(z, cfg.patch_shape(), count)
        ortho = np.abs(bank.weights @ bank.weights.T - np.eye(count)).max()
        log.info("%s pca orthonormality residual %.3g", layer, ortho)
        log.info("%s pca eigenvalue spectrum %s", layer,
                 np.array2string(bank.spectrum, precision=4, threshold=16))
    timer.lap(f"learn {layer} bank")
    return bank, whiten


def _check_training(cfg: Config, images, labels) -> tuple[int, int]:
    """Training's checks, all before any patch is drawn; returns (h, w)."""
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
    return h, w


@one_blas_thread()
def train_front(cfg: Config, images, labels, jobs: int = 1):
    """``(front, features)``: the model without its classifier, and the
    training features."""
    h, w = _check_training(cfg, images, labels)
    rng, shape, timer = Rng(cfg.seed), cfg.patch_shape(), StageTimer()

    bank1, whiten1 = _learn_layer(
        sample_patches(images, shape, cfg.patches_per_layer,
                       rng.stream("patches.layer1")),
        cfg.l1, cfg, rng, "layer1", jobs, timer)

    # layer-2 patches come from the first-layer maps of every training image,
    # computed once over the pool into shared memory, where extraction
    # reads them again: all L1 maps of an image are consecutive sources
    maps = shared_zeros((len(images), cfg.l1, h, w))
    list(_run_tasks(_map_task, (images, bank1, whiten1, lcn_constant(cfg), maps),
                    len(images), jobs))
    locations = draw_patch_locations(len(images) * cfg.l1, (h, w), shape,
                                     cfg.patches_per_layer,
                                     rng.stream("patches.layer2"))
    bank2, whiten2 = _learn_layer(
        gather_patches(maps.reshape(-1, h, w), locations, shape),
        cfg.l2, cfg, rng, "layer2", jobs, timer)

    front = TrainedModel(config=cfg, bank1=bank1, bank2=bank2,
                         whiten1=whiten1, whiten2=whiten2)
    features = extract_features(front, images, jobs=jobs, maps=maps)
    timer.lap("extract training features")
    return front, features


@one_blas_thread()
def fit_classifier(front: TrainedModel, features, labels, jobs: int = 1):
    """``front`` with its config's classifier, fitted on ``features``."""
    cfg, timer = front.config, StageTimer()
    classifier = (svm_train(features, labels, cfg.svm_c, Rng(cfg.seed), jobs=jobs)
                  if cfg.classifier == "svm" else
                  wpca_fit(_wpca_input(features, cfg), labels, cfg.wpca_dim, jobs=jobs))
    timer.lap("train classifier")
    return replace(front, classifier=classifier)


def train_model(cfg: Config, images, labels, jobs: int = 1) -> TrainedModel:
    """Run the full unsupervised + classifier training pipeline."""
    return fit_classifier(*train_front(cfg, images, labels, jobs), labels, jobs)


def _wpca_input(features, cfg: Config) -> sp.csr_matrix:
    """Features as the WPCA classifier sees them: the counts, or their
    float64 square roots (in a new matrix) when ``wpca_sqrt`` is on."""
    x = as_csr(features)
    if cfg.wpca_sqrt:
        x = sp.csr_matrix((np.sqrt(x.data, dtype=np.float64), x.indices, x.indptr),
                          shape=x.shape)
    return x


def _map_task(state, task) -> None:
    """Write the first-layer maps of ``images[start:stop]`` into ``maps``."""
    images, bank, whiten, lcn, maps = state
    for i in range(*task):
        maps[i] = map_layer(images[i], bank, whiten, lcn)


def _encode_task(state, task) -> list:
    """The ``encoder.feature_of`` pair of each of ``images[start:stop]``,
    from its first-layer ``maps`` when given."""
    model, images, _, maps = state
    return [encoder.feature_of(code_maps(images[i], model,
                                         None if maps is None else maps[i]),
                               model.config)
            for i in range(*task)]


def _csr(parts, n: int, dim: int, slots: int, alloc) -> sp.csr_matrix:
    """The ``(n, dim)`` CSR matrix of ``_encode_task``'s lists of pairs,
    taken from ``parts`` one at a time, one row per image: each pair is
    copied into two ``alloc(slots, dtype)`` arrays at a running offset,
    and the matrix keeps their filled prefix."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    row = 0
    for part in parts:
        for idx, cnt in part:
            if row == 0:
                indices, counts = alloc(slots, idx.dtype), alloc(slots, cnt.dtype)
            start, stop = indptr[row], indptr[row] + idx.size
            indices[start:stop] = idx
            counts[start:stop] = cnt
            row += 1
            indptr[row] = stop
    # arrays of exactly nnz items: scipy copies a view of under half its base
    indices, counts = (np.frombuffer(a.data, a.dtype, int(indptr[-1]))
                       for a in (indices, counts))
    return sp.csr_matrix((counts, indices, indptr), shape=(n, dim))


def extract_features(model: TrainedModel, images, jobs: int = 1,
                     maps=None) -> sp.csr_matrix:
    """Histogram features for a batch of images as a CSR matrix. ``maps``,
    the images' (n, L1, h, w) first-layer maps from ``shared_zeros``, spares
    their layer-1 products and is consumed: each task's rows are released
    as its features are taken, so the maps shrink as the matrix grows."""
    state = _batch_state(model, images, maps)
    n, shape, cfg = len(images), state[2], model.config

    def parts():
        for task, part in _run_tasks(_encode_task, state, n, jobs):
            if maps is not None:
                release(maps, *task)
            yield part

    # slots for the most nonzeros each image can have, in a memory map
    # whose pages past the last row take no memory
    features = _csr(parts(), n, encoder.feature_dim(shape, cfg),
                    n * encoder.nnz_bound(shape, cfg), shared_zeros)
    trim_heap()   # of the tasks' pairs, freed between longer-lived chunks
    return features


@one_blas_thread()
def predict_features(model: TrainedModel, features) -> np.ndarray:
    clf = model.classifier
    if clf is None:
        raise TypeError("model has no trained classifier")
    if model.config.classifier == "svm":
        return svm_predict_many(clf, features)
    projected = wpca_apply(clf, _wpca_input(features, model.config))
    return np.array([cosine_nn(clf.train_vectors, clf.train_labels, row)
                     for row in projected], dtype=np.int64)


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


def _batch_state(model: TrainedModel, images, maps=None) -> tuple:
    """The ``(model, images, (h, w), maps)`` state of a batch's tasks."""
    if len(images) == 0:
        raise ValueError("no samples")
    shape = common_size(images)
    encoder.block_counts(shape, model.config)   # rejects a block larger than (h, w)
    return model, images, shape, maps


def _run_tasks(fn, state, n: int, jobs: int, chunk: int = TASK_IMAGES):
    """Iterator of ``(task, fn(state, task))`` for each ``task``, a
    ``(start, stop)`` run of ``chunk`` consecutive of ``n`` images, over
    ``fork_pool(jobs, state)`` in order."""
    tasks = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    with fork_pool(jobs, state) as run:
        yield from zip(tasks, run(fn, tasks))


def _predict_task(state, task) -> np.ndarray:
    """Labels of ``images[start:stop]``, encoded and scored where it runs."""
    model, _, shape, _ = state
    pairs = _encode_task(state, task)
    # sized exactly, in the heap, whose pages the next task reuses: a new
    # mapping for each task would fault in every page it fills
    return predict_features(model, _csr(
        [pairs], len(pairs), encoder.feature_dim(shape, model.config),
        sum(idx.size for idx, _ in pairs), np.empty))


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
    preds = np.concatenate([part for _, part in _run_tasks(
        _predict_task, _batch_state(model, images), len(images), jobs, chunk)])
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
    """Train and evaluate the 2x2 {lcn, trans_layer} grid with one seed.
    ``trans_layer`` acts only on the codes, so each ``lcn`` value trains one
    front end; off fits on its features without the layer-1 group."""
    variants = [replace(cfg, lcn=lcn_on, trans_layer=trans_on)
                for lcn_on in (True, False) for trans_on in (True, False)]
    for variant in variants:
        size = _check_training(variant, train_images, train_labels)
    results = {}
    for on, off in (variants[:2], variants[2:]):
        front, features = train_front(on, train_images, train_labels, jobs)
        for variant in (on, off):
            if not variant.trans_layer:   # the on features go once sliced
                features = features[:, -encoder.feature_dim(size, variant):]
            results[variant.lcn, variant.trans_layer] = evaluate_model(
                fit_classifier(replace(front, config=variant), features, train_labels, jobs),
                test_images, test_labels, jobs=jobs)
        del features   # the slice is not held through the next front end
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
