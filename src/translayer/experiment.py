"""End-to-end orchestration: train both layers, encode, classify, evaluate.

Feature extraction is a pure function of (model, image). A batch is
split into tasks of ``chunk`` consecutive images (:func:`_tasks`), and
``forkpool.fork_pool`` runs one function on each: the workers see the
images copy-on-write, so no image is pickled, and every ``jobs`` runs the
same function on the same model. :func:`_extract_task` writes each
image's ``encoder.feature_of`` pair, in the dtypes the CSR matrix keeps,
into shared arrays of ``encoder.nnz_bound`` slots an image, allocated
before the fork, and returns only the images' sizes; :func:`_extract`
moves each task's rows down into place as its sizes arrive, so no
feature passes through a pipe: training fits and evaluation scores the
counts in their own dtype, which only ``classify`` widens.

Training, :func:`train_front` then :func:`fit_classifier`, forks one pool
for the front end and one for the classifier fit, besides the pool each
autoencoder layer draws its corruption masks on, one epoch per task
(``filters.train_dae``). Once the first bank is learned, the front pool
writes the first-layer maps of the training images (:func:`_map_task`)
into one shared array: the second-layer patches are drawn from it, and
the same workers then extract the training features from the maps there,
each task receiving the second-layer bank with its range, so every
training image is mapped through the first layer once; the maps of each
task are released as its features are taken. Then the classifier fit's
pool writes the Gram one strip of rows per task, ``svm_train`` solves
one class per task, and both fits lift one block of feature columns per
task (``classify._lift``).

Evaluation runs its tasks through :func:`_predict_task`, which encodes
them and scores them where it runs, returning only their labels, which
do not depend on the split: no test feature passes through a pipe and no
dense batch wider than a task is formed. Training projects no rows:
``wpca_fit`` returns the projected training set with the model. Training
and prediction run on one BLAS thread (``forkpool.one_blas_thread``), so
their bits do not depend on the count.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

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
    # computed once over the pool into shared memory, where extraction on
    # the same pool reads them again: all L1 maps of an image are
    # consecutive sources
    n = len(images)
    maps = shared_zeros((n, cfg.l1, h, w))
    slots = _slots((h, w), cfg, n)
    with fork_pool(jobs, (images, maps, slots)) as run:
        list(run(_map_task, [(task, bank1, whiten1, lcn_constant(cfg))
                             for task in _tasks(n)]))
        locations = draw_patch_locations(n * cfg.l1, (h, w), shape,
                                         cfg.patches_per_layer,
                                         rng.stream("patches.layer2"))
        bank2, whiten2 = _learn_layer(
            gather_patches(maps.reshape(-1, h, w), locations, shape),
            cfg.l2, cfg, rng, "layer2", jobs, timer)

        front = TrainedModel(config=cfg, bank1=bank1, bank2=bank2,
                             whiten1=whiten1, whiten2=whiten2)
        features = extract_features(front, images, pool=(run, maps, slots))
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


def _tasks(n: int, chunk: int = TASK_IMAGES) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of ``chunk`` consecutive of ``n``
    images."""
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]


def _map_task(state, item) -> None:
    """Write the first-layer maps of ``images[start:stop]`` into ``maps``."""
    (images, maps, _), ((start, stop), bank, whiten, lcn) = state, item
    for i in range(start, stop):
        maps[i] = map_layer(images[i], bank, whiten, lcn)


def _feature(model: TrainedModel, images, maps, i: int) -> encoder.SparseFeature:
    """The ``encoder.feature_of`` pair of ``images[i]``, from its first-layer
    ``maps[i]`` when given."""
    return encoder.feature_of(
        code_maps(images[i], model, None if maps is None else maps[i]),
        model.config)


class _Slots(NamedTuple):
    """A batch's feature pairs before they are moved into place: shared
    ``indices`` and ``counts`` arrays of ``bound`` entries an image, the
    most nonzeros ``encoder.nnz_bound`` allows, of features ``width``
    bins long."""

    indices: np.ndarray
    counts: np.ndarray
    bound: int
    width: int


def _slots(shape, cfg: Config, n: int) -> _Slots:
    """Slots for ``n`` images of ``shape``, in memory maps whose pages take
    memory only once written."""
    bound, width = encoder.nnz_bound(shape, cfg), encoder.feature_dim(shape, cfg)
    dtypes = encoder.pair_dtypes(width, cfg.block_w * cfg.block_h)
    return _Slots(*(shared_zeros(n * bound, dtype) for dtype in dtypes), bound, width)


def _extract_task(state, item) -> list[int]:
    """Encode ``images[start:stop]`` with ``model`` and write their pairs one
    after another into the slots from image ``start``'s on; return each
    image's nonzero count, all that goes back through the pipe."""
    (images, maps, slots), ((start, stop), model) = state, item
    at, sizes = start * slots.bound, []
    for i in range(start, stop):
        indices, counts = _feature(model, images, maps, i)
        slots.indices[at:at + indices.size] = indices
        slots.counts[at:at + indices.size] = counts
        at += indices.size
        sizes.append(indices.size)
    return sizes


def _extract(run, model: TrainedModel, n: int, maps, slots: _Slots) -> sp.csr_matrix:
    """The CSR matrix of the ``n`` images' features, ``run`` a pool over
    ``(images, maps, slots)``: ``_extract_task`` writes each task's rows,
    which are moved down behind the rows before them, in task order, as
    the task's sizes arrive. The pages left behind, up to the next task's
    slots, are released at once, the slot tail after the last task, and so
    are the task's ``maps`` rows when given."""
    tasks = _tasks(n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for (start, stop), sizes in zip(tasks, run(_extract_task,
                                               [(task, model) for task in tasks])):
        if maps is not None:
            release(maps, start, stop)
        indptr[start + 1:stop + 1] = indptr[start] + np.cumsum(sizes)
        src, dst, end = start * slots.bound, int(indptr[start]), int(indptr[stop])
        for array in slots[:2]:
            if src > dst:
                array[dst:end] = array[src:src + end - dst]
            release(array, end, stop * slots.bound)
    trim_heap()   # of the moves' copies, freed between longer-lived chunks
    # arrays of exactly nnz items: scipy copies a view of under half its base
    indices, counts = (np.frombuffer(a.data, a.dtype, int(indptr[-1]))
                       for a in slots[:2])
    return sp.csr_matrix((counts, indices, indptr), shape=(n, slots.width))


def extract_features(model: TrainedModel, images, jobs: int = 1,
                     pool=None) -> sp.csr_matrix:
    """Histogram features for a batch of images as a CSR matrix. ``pool``,
    training's ``(run, maps, slots)``, extracts them on the pool that
    wrote the images' first-layer ``maps``, forked over ``(images, maps,
    slots)`` before the model's second layer was learned, and consumes the
    maps: each task's rows are released as its features are taken."""
    if pool is not None:
        run, maps, slots = pool
        return _extract(run, model, len(images), maps, slots)
    slots = _slots(_batch_shape(images), model.config, len(images))
    with fork_pool(jobs, (images, None, slots)) as run:
        return _extract(run, model, len(images), None, slots)


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


def _batch_shape(images) -> tuple[int, int]:
    """The ``(h, w)`` of every image of a batch; an empty batch raises."""
    if len(images) == 0:
        raise ValueError("no samples")
    return common_size(images)


def _predict_task(state, task) -> np.ndarray:
    """Labels of ``images[start:stop]``, encoded and scored where it runs;
    ``state`` is ``(model, images, feature width)``."""
    model, images, width = state
    indices, counts = zip(*(_feature(model, images, None, i) for i in range(*task)))
    # sized exactly, in the heap, whose pages the next task reuses: a new
    # mapping for each task would fault in every page it fills
    indptr = np.cumsum([0] + [a.size for a in indices])
    return predict_features(model, sp.csr_matrix(
        (np.concatenate(counts), np.concatenate(indices), indptr),
        shape=(len(indices), width)))


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
    tasks = _tasks(len(images), chunk)
    # rejects a block larger than the images
    width = encoder.feature_dim(_batch_shape(images), model.config)
    with fork_pool(jobs, (model, images, width)) as run:
        preds = np.concatenate(list(run(_predict_task, tasks)))
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
