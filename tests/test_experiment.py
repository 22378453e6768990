import contextlib
import ctypes
import mmap
import multiprocessing
import os
import re
import signal
import tempfile
import tracemalloc
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from translayer import (FilterBank, GrayImage, TrainedModel, WhiteningTransform,
                        classify, encoder, evaluate_model, experiment,
                        filters, forkpool, pipeline, train_model)
from translayer.classify import GramSizeError
from translayer.dataio import load_model, save_model
from translayer.encoder import compress_groups
from translayer.experiment import (extract_features, fit_classifier,
                                  format_eval_report, predict_features,
                                  run_ablation, train_front)
from translayer.filters import TrainingDivergedError
from translayer.pipeline import build_stack, code_maps
from translayer.rng import Rng
from translayer.types import validate_config

from conftest import make_glyphs, tiny_config
from test_types import valid_configs


def test_parallel_extraction_matches_serial(tiny_model, glyph_test):
    images = glyph_test[0][:12]
    serial = extract_features(tiny_model, images, jobs=1)
    parallel = extract_features(tiny_model, images, jobs=2)
    assert (serial != parallel).nnz == 0


def float_count_csr(model, images):
    """The batch's CSR built one image at a time, with float64 counts."""
    feats = [encoder.feature_of(code_maps(image, model), model.config)
             for image in images]
    indptr = np.cumsum([0] + [f.indices.size for f in feats])
    dim = encoder.feature_dim(images[0].pixels.shape, model.config)
    return sp.csr_matrix((np.concatenate([f.counts for f in feats]).astype(float),
                          np.concatenate([f.indices for f in feats]), indptr),
                         shape=(len(images), dim))


@pytest.mark.parametrize("block", [7, 28])
def test_narrow_worker_payload_keeps_the_csr(tiny_model, glyph_test, block):
    # a 28x28 block is the whole image: 784 pixels, so a count can pass 255
    cfg = replace(tiny_model.config, block_w=block, block_h=block)
    model = replace(tiny_model, config=cfg, classifier=None)
    images = glyph_test[0][:6] + [GrayImage(np.zeros((28, 28)))]
    state = (model, images, images[0].pixels.shape, None)
    [(indices, counts)] = experiment._encode_task(state, (6, 7))
    assert indices.dtype == np.int32
    assert counts.dtype == (np.uint8 if block == 7 else np.uint16)
    want = float_count_csr(model, images)
    assert want.indices.dtype == want.indptr.dtype == np.int32
    for jobs in (1, 2):
        got = extract_features(model, images, jobs=jobs)
        for name in ("indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        # the counts keep their own dtype through to the classifier
        assert got.data.dtype == counts.dtype
        assert np.array_equal(got.data, want.data)
    if block == 28:
        assert want.data.max() == 28 * 28


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_streamed_csr_equals_the_one_built_per_image(tiny_model, glyph_train,
                                                      glyph_test, jobs, n):
    # task boundaries at 32 images: one short task, one full, one past it
    images = (glyph_train[0] + glyph_test[0])[:n]
    want = float_count_csr(tiny_model, images)
    got = extract_features(tiny_model, images, jobs=jobs)
    assert got.shape == want.shape
    for name in ("indices", "indptr", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
    assert got.indices.dtype == got.indptr.dtype == np.int32
    assert got.data.dtype == np.uint8     # 7x7 blocks: at most 49 a bin


@pytest.mark.parametrize("jobs", [1, 2])
def test_extraction_holds_no_task_older_than_the_last(tiny_model, glyph_train,
                                                      glyph_test, monkeypatch,
                                                      jobs):
    # when task k + 1's pairs arrive, those of tasks up to k - 1 are copied
    # into the matrix and dropped
    images = glyph_train[0] + glyph_test[0]       # tasks of 32, 32, 32, 4
    taken = []
    fork_pool = experiment.fork_pool

    @contextlib.contextmanager
    def watching(pool_jobs, state):
        with fork_pool(pool_jobs, state) as run:
            def run_watched(fn, tasks):
                for k, part in enumerate(run(fn, tasks)):
                    alive = [i for i, refs in enumerate(taken[:max(k - 1, 0)])
                             if any(ref() is not None for ref in refs)]
                    assert alive == [], f"tasks {alive} alive at task {k}"
                    taken.append([weakref.ref(a) for pair in part for a in pair])
                    yield part
            yield run_watched

    monkeypatch.setattr(experiment, "fork_pool", watching)
    got = extract_features(tiny_model, images, jobs=jobs)
    monkeypatch.undo()
    assert len(taken) == 4
    assert same_csr(got, extract_features(tiny_model, images))


@pytest.mark.parametrize("jobs", [1, 2])
def test_training_features_from_the_maps_equal_plain_extraction(
        glyph_train, monkeypatch, jobs):
    released = []
    release = experiment.release

    def recording(array, start, stop):
        released.append((start, stop))
        release(array, start, stop)

    monkeypatch.setattr(experiment, "release", recording)
    images, labels = glyph_train[0][:40], glyph_train[1][:40]
    front, features = train_front(tiny_config(patches_per_layer=200), images,
                                  labels, jobs=jobs)
    monkeypatch.undo()
    # every task's maps are given back, and none is read after it
    assert released == [(0, 32), (32, 40)]
    want = extract_features(front, images)
    for name in ("indices", "indptr", "data"):
        a, b = getattr(features, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_release_frees_only_whole_pages_inside_its_rows(monkeypatch):
    a = forkpool.shared_zeros((10, 1000))   # 8000-byte rows: pages straddle rows
    before = np.arange(1.0, a.size + 1.0)
    a.ravel()[:] = before
    forkpool.release(a, 2, 4)
    page = mmap.PAGESIZE // a.itemsize
    first, end = -(-2000 // page) * page, 4000 // page * page
    if mmap.PAGESIZE == 4096:
        assert (first, end) == (2048, 3584)
    want = before.copy()
    if hasattr(mmap, "MADV_REMOVE"):
        want[first:end] = 0.0
    assert np.array_equal(a.ravel(), want)
    # without MADV_REMOVE, nothing is given back
    monkeypatch.delattr(mmap, "MADV_REMOVE", raising=False)
    b = forkpool.shared_zeros((3, page), np.uint16)
    b[:] = 7
    forkpool.release(b, 0, 3)
    assert b.dtype == np.uint16 and (b == 7).all()


def rss_anon_mb() -> float:
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return int(fields["RssAnon"].split()[0]) / 1024


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "malloc_trim")
                    or not os.path.exists("/proc/self/status"),
                    reason="needs glibc's malloc_trim and /proc")
def test_trim_heap_returns_freed_heap_pages():
    # 16 kB arrays in the heap, every other one freed: 2048 holes of 16 kB
    # between arrays in use, which no trim of the heap's top reaches
    arrays = [np.ones(2048) for _ in range(4096)]
    kept = arrays[1::2]
    del arrays
    before = rss_anon_mb()
    forkpool.trim_heap()
    assert rss_anon_mb() < before - 4
    del kept


def test_training_without_madv_remove_saves_the_same_bytes(glyph_train,
                                                           monkeypatch):
    # CI runs on Linux; this is the path of a platform without MADV_REMOVE
    images, labels = glyph_train[0][:40], glyph_train[1][:40]
    cfg = tiny_config(patches_per_layer=200)
    with tempfile.TemporaryDirectory() as tmp:
        released = saved_bytes(train_model(cfg, images, labels, jobs=2), tmp)
        monkeypatch.delattr(mmap, "MADV_REMOVE", raising=False)
        kept = saved_bytes(train_model(cfg, images, labels, jobs=2), tmp)
    assert kept == released


@pytest.mark.parametrize("jobs", [1, 2])
def test_extraction_pool_receives_only_task_ranges(tiny_model, glyph_test,
                                                   monkeypatch, jobs):
    # the images reach the workers through the forked state, never as items
    images = glyph_test[0][:37]
    items = []
    fork_pool = experiment.fork_pool

    @contextlib.contextmanager
    def recording(pool_jobs, state):
        with fork_pool(pool_jobs, state) as run:
            def run_recorded(fn, tasks):
                tasks = list(tasks)
                items.extend(tasks)
                return run(fn, tasks)
            yield run_recorded

    monkeypatch.setattr(experiment, "fork_pool", recording)
    got = extract_features(tiny_model, images, jobs=jobs)
    monkeypatch.undo()
    assert items == [(0, 32), (32, 37)]
    assert (got != extract_features(tiny_model, images)).nnz == 0


def test_evaluation_scores_with_the_model_as_given(tiny_model, glyph_test,
                                                    monkeypatch):
    seen = []
    predict = experiment.predict_features

    def recording(model, features):
        seen.append(model)
        return predict(model, features)

    monkeypatch.setattr(experiment, "predict_features", recording)
    evaluate_model(tiny_model, *glyph_test, jobs=1, chunk=16)
    assert len(seen) == 3 and all(model is tiny_model for model in seen)


def test_evaluation_scores_the_count_rows_extraction_builds(tiny_model,
                                                            glyph_test,
                                                            monkeypatch):
    scored = []
    predict = experiment.predict_features

    def recording(model, features):
        scored.append(features)
        return predict(model, features)

    monkeypatch.setattr(experiment, "predict_features", recording)
    evaluate_model(tiny_model, *glyph_test, jobs=1, chunk=16)
    want = extract_features(tiny_model, glyph_test[0])
    cfg = tiny_model.config
    assert [x.shape[0] for x in scored] == [16, 16, 8]
    for start, got in zip((0, 16, 32), scored):
        assert got.dtype == np.min_scalar_type(cfg.block_w * cfg.block_h)
        rows = want[start:start + 16]
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(rows, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_evaluation_forks_one_pool_for_all_chunks(tiny_model, glyph_test,
                                                   monkeypatch):
    images, labels = glyph_test
    serial = evaluate_model(tiny_model, images, labels, jobs=1, chunk=7)
    contexts = []
    get_context = forkpool.mp.get_context

    def counting(method):
        contexts.append(method)
        return get_context(method)

    monkeypatch.setattr(forkpool.mp, "get_context", counting)
    parallel = evaluate_model(tiny_model, images, labels, jobs=2, chunk=7)
    assert len(contexts) == 1
    assert np.array_equal(serial.confusion, parallel.confusion)


TASK = 4   # images per evaluation task in the tests below


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n", [1, 2, TASK, TASK + 1, 2 * TASK + 1])
@pytest.mark.parametrize("model_name", ["tiny_model", "tiny_wpca_model"])
def test_evaluation_matches_predicting_every_feature(request, glyph_test,
                                                     model_name, n, jobs):
    model = request.getfixturevalue(model_name)
    images, labels = glyph_test[0][:n], glyph_test[1][:n]
    preds = predict_features(model, extract_features(model, images))
    classes = np.union1d(model.classifier.classes, labels)
    want = np.zeros((classes.size, classes.size), dtype=np.int64)
    for true, pred in zip(labels, preds):
        want[np.searchsorted(classes, true), np.searchsorted(classes, pred)] += 1
    result = evaluate_model(model, images, labels, jobs=jobs, chunk=TASK)
    assert np.array_equal(result.classes, classes)
    assert np.array_equal(result.confusion, want)
    assert (result.samples, result.errors) == (n, int((preds != labels).sum()))


@pytest.mark.parametrize("model_name", ["tiny_model", "tiny_wpca_model"])
def test_evaluation_of_one_image_per_task_matches_the_default(request,
                                                              glyph_test,
                                                              model_name):
    # 40 images: one-image tasks against one task of 32 and one of 8
    model = request.getfixturevalue(model_name)
    alone = evaluate_model(model, *glyph_test, chunk=1)
    assert np.array_equal(alone.confusion,
                          evaluate_model(model, *glyph_test, chunk=32).confusion)


def test_evaluation_task_of_no_images_rejected(tiny_model, glyph_test):
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        evaluate_model(tiny_model, *glyph_test, chunk=0)


def test_evaluation_without_a_classifier_fails_before_forking(tiny_model,
                                                              glyph_test,
                                                              monkeypatch):
    forked = []
    monkeypatch.setattr(experiment, "fork_pool",
                        lambda *args: forked.append(args))
    with pytest.raises(TypeError, match="model has no trained classifier"):
        evaluate_model(replace(tiny_model, classifier=None), *glyph_test,
                       jobs=2)
    assert forked == []


def test_evaluation_never_holds_the_dense_batch(tiny_wpca_model):
    # a task scores its images at a time: 128 images, four tasks of the
    # default size, peak below the dense n x d input that one projection
    # of the whole batch takes
    images, labels = make_glyphs(128, seed=303)
    dim = encoder.feature_dim(images[0].pixels.shape, tiny_wpca_model.config)
    tracemalloc.start()
    try:
        evaluate_model(tiny_wpca_model, images, labels, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(images) * dim * 8


BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_thread_counts():
    """The thread count of each loaded OpenBLAS that has a getter."""
    counts = []
    for lib in forkpool.openblas_libraries():
        name = next((n for n in BLAS_THREAD_GETTERS if hasattr(lib, n)), None)
        if name is not None:
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts.append(getter())
    return counts


def _blas_threads_in_worker(_state, _item):
    return blas_thread_counts()


def test_forked_workers_run_one_blas_thread():
    before = blas_thread_counts()
    if not before:
        pytest.skip("no OpenBLAS thread getter in this process")
    setters = [set_threads for _, set_threads in forkpool._blas_thread_functions()]
    try:
        for set_threads in setters:
            set_threads(2)   # more than one, whatever the environment set
        with forkpool.fork_pool(2, None) as run:
            seen = list(run(_blas_threads_in_worker, range(4)))
        assert seen == [[1] * len(before)] * 4
        assert blas_thread_counts() == [2] * len(before)  # the parent keeps its own
    finally:
        for set_threads, count in zip(setters, before):
            set_threads(count)
    assert blas_thread_counts() == before


def _pid(_state, _item):
    return os.getpid()


@pytest.mark.parametrize("jobs,items,workers", [(4, 2, 2), (3, 1, 0), (2, 4, 2),
                                                (1, 3, 0)])
def test_fork_pool_forks_no_idle_worker(jobs, items, workers):
    # a forking pool starts all its workers at the first task, so the pool
    # is sized to the items, and one item runs in this process
    before = set(multiprocessing.active_children())
    with forkpool.fork_pool(jobs, None) as run:
        pids = list(run(_pid, range(items)))
        forked = set(multiprocessing.active_children()) - before
    assert len(forked) == workers
    assert set(pids) <= ({p.pid for p in forked} if workers else {os.getpid()})


def _die(_state, _item):
    os._exit(1)


def test_a_dead_worker_fails_the_run_instead_of_hanging():
    # a pool that waits forever for the lost task is cut by the alarm
    def hung(signum, frame):
        raise TimeoutError("fork_pool still waiting after 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(BrokenProcessPool):
            with forkpool.fork_pool(2, None) as run:
                list(run(_die, range(4)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_parallel_training_saves_the_same_bytes(glyph_train, tmp_path):
    images, labels = glyph_train
    cfg = tiny_config(patches_per_layer=200)
    saved = []
    for jobs in (1, 2):
        path = tmp_path / f"jobs{jobs}.bin"
        save_model(train_model(cfg, images[:30], labels[:30], jobs=jobs), path)
        saved.append(path.read_bytes())
    assert saved[1] == saved[0]


def test_parallel_dae_training_saves_the_same_bytes(glyph_train, tmp_path):
    # the corruption masks come from the pool's workers at jobs=2
    images, labels = glyph_train
    cfg = tiny_config(learner="dae", dae_epochs=3, patches_per_layer=300)
    saved = []
    for jobs in (1, 2):
        path = tmp_path / f"jobs{jobs}.bin"
        save_model(train_model(cfg, images[:30], labels[:30], jobs=jobs), path)
        saved.append(path.read_bytes())
    assert saved[1] == saved[0]


def test_training_maps_each_image_through_layer1_once(glyph_train,
                                                     monkeypatch):
    # the layer-2 patch draw and extraction share one map per image
    images, labels = glyph_train[0][:20], glyph_train[1][:20]
    mapped = []
    for module in (experiment, pipeline):
        def counting(image, *args, map_layer=module.map_layer):
            mapped.append(id(image))
            return map_layer(image, *args)
        monkeypatch.setattr(module, "map_layer", counting)
    train_model(tiny_config(patches_per_layer=200), images, labels, jobs=1)
    ids = sorted(id(image) for image in images)
    assert sorted(i for i in mapped if i in ids) == ids


def test_layer2_patches_come_from_each_images_layer1_maps(glyph_train,
                                                          monkeypatch):
    images, labels = glyph_train[0][:20], glyph_train[1][:20]
    cfg = tiny_config(patches_per_layer=200)
    seen, learn_layer = [], experiment._learn_layer

    def recording(patches, *args):
        seen.append(patches.copy())
        return learn_layer(patches, *args)

    monkeypatch.setattr(experiment, "_learn_layer", recording)
    model = train_model(cfg, images, labels, jobs=1)
    shape, lcn = cfg.patch_shape(), pipeline.lcn_constant(cfg)
    maps = [pipeline.map_layer(image, model.bank1, model.whiten1, lcn)
            for image in images]
    locations = filters.draw_patch_locations(
        len(images) * cfg.l1, (28, 28), shape, cfg.patches_per_layer,
        Rng(cfg.seed).stream("patches.layer2"))
    want = filters.gather_patches(np.stack(maps).reshape(-1, 28, 28),
                                  locations, shape)
    assert len(seen) == 2 and np.array_equal(seen[1], want)


@pytest.mark.parametrize("jobs", [1, 2])
def test_training_maps_are_freed_before_the_classifier_fit(glyph_train,
                                                           monkeypatch, jobs):
    made, alive_at_fit = [], []
    shared_zeros, svm_train = experiment.shared_zeros, experiment.svm_train

    def recording(shape, dtype=np.float64):
        array = shared_zeros(shape, dtype)
        if array.ndim == 4:     # the maps, not the training CSR's buffers
            made.append(weakref.ref(array))
        return array

    def fit(*args, **kwargs):
        alive_at_fit.append([ref() is not None for ref in made])
        return svm_train(*args, **kwargs)

    monkeypatch.setattr(experiment, "shared_zeros", recording)
    monkeypatch.setattr(experiment, "svm_train", fit)
    images, labels = glyph_train[0][:20], glyph_train[1][:20]
    train_model(tiny_config(patches_per_layer=200), images, labels, jobs=jobs)
    assert alive_at_fit == [[False]]


def test_nan_pixel_rejected(tiny_model):
    image = np.zeros((28, 28))
    image[14, 14] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        extract_features(tiny_model, [image])


def test_mixed_image_sizes_rejected_before_encoding(tiny_model, monkeypatch):
    def no_encoding(*args):
        raise AssertionError("encoded an image before the size check")

    monkeypatch.setattr(experiment, "code_maps", no_encoding)
    with pytest.raises(ValueError, match=r"differ in size: \[\(28, 28\), \(28, 30\)\]"):
        extract_features(tiny_model, [np.zeros((28, 28)), np.zeros((28, 30))])


def test_mixed_image_sizes_rejected_before_sampling(glyph_train, monkeypatch):
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    images, labels = glyph_train
    mixed = images[:9] + [np.zeros((28, 30))]
    with pytest.raises(ValueError, match=r"differ in size: \[\(28, 28\), \(28, 30\)\]"):
        train_model(tiny_config(), mixed, labels[:10])


def test_training_on_plain_arrays_saves_the_same_bytes(glyph_train, tmp_path):
    images, labels = glyph_train
    cfg = tiny_config(patches_per_layer=200)
    saved = []
    for batch in (images[:20], [image.pixels for image in images[:20]]):
        path = tmp_path / "model.bin"
        save_model(train_model(cfg, batch, labels[:20]), path)
        saved.append(path.read_bytes())
    assert saved[1] == saved[0]


def test_more_than_sixteen_first_layer_maps_rejected(tiny_model, glyph_test):
    cfg = tiny_config(l1=17)
    shape = cfg.patch_shape()
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(shape.dim, 17)))
    model = TrainedModel(config=cfg,
                         bank1=FilterBank(shape=shape, weights=q.T),
                         bank2=tiny_model.bank2,
                         whiten1=WhiteningTransform(np.eye(shape.dim)),
                         whiten2=tiny_model.whiten2)
    with pytest.raises(ValueError, match="16-bit"):
        extract_features(model, glyph_test[0][:1])


def test_feature_dim_matches_model_arithmetic(tiny_model, glyph_test):
    feats = extract_features(tiny_model, glyph_test[0][:2])
    # l1=4: 5 groups x 64 blocks x 16 bins
    assert feats.shape[1] == 5 * 64 * 16
    assert feats.shape[1] == encoder.feature_dim(glyph_test[0][0].pixels.shape,
                                                 tiny_model.config)


def test_trans_layer_off_shrinks_features(glyph_train):
    images, labels = glyph_train
    model = train_model(tiny_config(trans_layer=False), images[:30], labels[:30])
    feats = extract_features(model, images[:2])
    assert feats.shape[1] == 4 * 64 * 16  # L2 groups only
    assert feats.shape[1] == encoder.feature_dim(images[0].pixels.shape, model.config)


def test_unequal_filter_counts(glyph_train):
    # l1 fixes the bins (2^l1) and group size; l2 fixes the group count
    images, labels = glyph_train
    model = train_model(tiny_config(l1=3, l2=5), images[:30], labels[:30])
    feats = extract_features(model, images[:2])
    assert feats.shape[1] == (5 + 1) * 64 * 8
    assert feats.shape[1] == encoder.feature_dim(images[0].pixels.shape, model.config)


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


def test_wpca_training_projects_no_rows(glyph_train, monkeypatch):
    # wpca_fit reads the training vectors off its eigenvectors
    applied, apply = [], classify.wpca_apply

    def recording(*args):
        applied.append(args)
        return apply(*args)

    monkeypatch.setattr(experiment, "wpca_apply", recording)
    monkeypatch.setattr(classify, "wpca_apply", recording)
    images, labels = glyph_train
    model = train_model(tiny_config(classifier="wpca_cosine", wpca_dim=5),
                        images[:20], labels[:20], jobs=1)
    assert applied == []
    assert model.classifier.train_vectors.shape == (20, 5)


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


def test_oversized_wpca_training_set_fails_before_extraction(glyph_train,
                                                              monkeypatch):
    def no_patches(*args, **kwargs):
        raise AssertionError("sampled patches before the size check")

    monkeypatch.setattr(classify, "WPCA_MAX_N", 25)
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    images, labels = glyph_train
    cfg = tiny_config(classifier="wpca_cosine", wpca_dim=5)
    with pytest.raises(classify.GramSizeError, match=r"26 x 26 .* limit is 25"):
        train_model(cfg, images[:26], labels[:26])


def test_oversized_svm_training_set_fails_before_extraction(glyph_train,
                                                            monkeypatch):
    # one image referenced SVM_MAX_N + 1 times: the size is checked without
    # allocating the batch, its features or the Gram
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    images, _ = glyph_train
    n = classify.SVM_MAX_N + 1
    with pytest.raises(classify.GramSizeError,
                       match=rf"svm would solve on a {n} x {n} Gram matrix "
                             rf"of {n} training images \(1.15 GB\); the "
                             rf"limit is {classify.SVM_MAX_N}"):
        train_model(tiny_config(), [images[0]] * n, np.arange(n) % 2)


def no_patches(*args, **kwargs):
    raise AssertionError("sampled patches before the config check")


def test_single_class_svm_training_fails_before_sampling(glyph_train,
                                                         monkeypatch):
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    images, _ = glyph_train
    with pytest.raises(ValueError, match="need at least two classes"):
        train_model(tiny_config(), images[:10], np.full(10, 3))


@pytest.mark.parametrize("block", [dict(block_w=29), dict(block_h=29)])
def test_block_larger_than_image_fails_before_sampling(glyph_train, monkeypatch,
                                                       block):
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    images, labels = glyph_train
    with pytest.raises(ValueError, match="larger than the 28x28 images"):
        train_model(tiny_config(**block), images[:10], labels[:10])


@pytest.mark.parametrize("n, wpca_dim, fits", [(20, 19, True), (20, 20, False)])
def test_wpca_dim_beyond_centered_rank_fails_before_sampling(
        glyph_train, monkeypatch, n, wpca_dim, fits):
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    images, labels = glyph_train
    cfg = tiny_config(classifier="wpca_cosine", wpca_dim=wpca_dim)
    if fits:
        with pytest.raises(AssertionError, match="sampled patches"):
            train_model(cfg, images[:n], labels[:n])
    else:
        with pytest.raises(ValueError, match=r"wpca_dim 20 exceeds .* "
                                             r"= min\(19, 5120\)"):
            train_model(cfg, images[:n], labels[:n])


def test_wpca_dim_beyond_feature_dim_fails_before_sampling(glyph_train,
                                                          monkeypatch):
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    images, labels = glyph_train
    # l1=l2=1, one 28x28 block: (1 + 1) groups x 1 block x 2 bins = 4
    cfg = tiny_config(classifier="wpca_cosine", wpca_dim=5, l1=1, l2=1,
                      block_w=28, block_h=28, stride_x=1, stride_y=1)
    with pytest.raises(ValueError, match=r"= min\(19, 4\)"):
        train_model(cfg, images[:20], labels[:20])


def test_wpca_size_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(classify, "WPCA_MAX_N", 25)
    classify.check_gram_size("wpca_cosine", 25)
    with pytest.raises(classify.GramSizeError,
                       match="26 x 26 Gram matrix of 26 training images"):
        classify.check_gram_size("wpca_cosine", 26)


def test_svm_size_limit_is_inclusive():
    classify.check_gram_size("svm", classify.SVM_MAX_N)
    with pytest.raises(classify.GramSizeError, match="the limit is 12000"):
        classify.check_gram_size("svm", classify.SVM_MAX_N + 1)


# --- the whole path over drawn configs -------------------------------------

# the errors by which training may refuse a valid config: a singular
# covariance, one class, a block or wpca_dim too large (ValueError), and
# a 1-3 epoch autoencoder whose loss rose
TRAINING_ERRORS = (ValueError, GramSizeError, TrainingDivergedError)


@st.composite
def image_batches(draw):
    """2-15 images of one size, 5-21 pixels a side, each random, striped
    with exact zeros, or constant, and their labels among three classes."""
    n = draw(st.integers(2, 15))
    h, w = draw(st.integers(5, 21)), draw(st.integers(5, 21))
    kinds = draw(st.lists(st.sampled_from(["random", "striped", "constant"]),
                          min_size=n, max_size=n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = []
    for kind in kinds:
        if kind == "random":
            pixels = gen.random((h, w))
        elif kind == "striped":
            # every second or third row or column, the rest exact zeros
            lines = np.indices((h, w))[int(gen.integers(2))]
            pixels = np.where(lines % gen.integers(2, 4) == 0, gen.random(), 0.0)
        else:
            pixels = np.full((h, w), float(gen.integers(2)) * gen.random())
        images.append(GrayImage(pixels))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return images, np.asarray(labels, dtype=np.int64)


def train_or_none(cfg, images, labels, jobs=1):
    """The trained model, or None where training refused by name."""
    try:
        return train_model(cfg, images, labels, jobs=jobs)
    except TRAINING_ERRORS:
        return None


def saved_bytes(model, directory) -> bytes:
    path = os.path.join(directory, "model.bin")
    save_model(model, path)
    with open(path, "rb") as fh:
        return fh.read()


def same_csr(a, b) -> bool:
    return a.shape == b.shape and (a != b).nnz == 0


def assert_evaluates_to_fitted_classes(model, images, labels):
    result = evaluate_model(model, images, labels)
    fitted = np.isin(result.classes, model.classifier.classes)
    assert result.confusion[:, ~fitted].sum() == 0
    assert result.confusion.sum() == len(images)


# float settings lie in [1e-3, 1e3] (whiten_epsilon may be 0): near the
# ends of the float range, whitening and extraction overflow with numpy
# warnings
@given(cfg=valid_configs(sides=(1, 3, 5), max_filters=6, max_block=12,
                         max_patches=300, max_epochs=3, max_wpca_dim=8,
                         real_range=(1e-3, 1e3)),
       batch=image_batches())
def test_drawn_configs_train_end_to_end_or_fail_by_name(cfg, batch):
    images, labels = batch
    assert validate_config(cfg) == []
    model = train_or_none(cfg, images, labels)
    if model is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        first = saved_bytes(model, tmp)
        assert saved_bytes(load_model(os.path.join(tmp, "model.bin")),
                           tmp) == first
        parallel = train_model(cfg, images, labels, jobs=2)
        assert saved_bytes(parallel, tmp) == first
    features = extract_features(model, images)
    assert same_csr(extract_features(parallel, images, jobs=2), features)
    size = images[0].pixels.shape
    assert features.shape == (len(images), encoder.feature_dim(size, cfg))
    for image in images:
        want = compress_groups(build_stack(image, model), cfg.trans_layer)
        assert np.array_equal(code_maps(image, model), want)
    assert_evaluates_to_fitted_classes(model, images, labels)

    # trans_layer acts only on the codes: the same front end either way,
    # and the off features are the on features without the first group
    other = train_or_none(replace(cfg, trans_layer=not cfg.trans_layer),
                          images, labels)
    if other is None:
        return    # a wpca_dim past the narrower features or their rank
    on, off = (model, other) if cfg.trans_layer else (other, model)
    for name in ("bank1", "bank2"):
        a, b = getattr(on, name), getattr(off, name)
        assert np.array_equal(a.weights, b.weights)
        assert (a.biases is None) == (b.biases is None)
        assert a.biases is None or np.array_equal(a.biases, b.biases)
    for name in ("whiten1", "whiten2"):
        assert np.array_equal(getattr(on, name).matrix, getattr(off, name).matrix)
    nx, ny = encoder.block_counts(size, cfg)
    g0 = nx * ny * 2**cfg.l1
    on_features = extract_features(on, images)
    assert same_csr(extract_features(off, images), on_features[:, g0:])
    # so the off classifier, fitted on that slice, is the off model's
    sliced = fit_classifier(replace(on, config=off.config), on_features[:, g0:],
                            labels)
    with tempfile.TemporaryDirectory() as tmp:
        assert saved_bytes(sliced, tmp) == saved_bytes(off, tmp)


# --- the ablation grid --------------------------------------------------------

def same_result(a, b) -> bool:
    return (np.array_equal(a.classes, b.classes)
            and np.array_equal(a.confusion, b.confusion)
            and (a.samples, a.errors) == (b.samples, b.errors))


@pytest.mark.parametrize("learner,classifier", [("pca", "svm"),
                                                ("dae", "wpca_cosine")])
def test_ablation_equals_four_separate_trainings(glyph_train, glyph_test,
                                                 monkeypatch, tmp_path,
                                                 learner, classifier):
    cfg = tiny_config(learner=learner, classifier=classifier, dae_epochs=3,
                      wpca_dim=8)
    evaluated = {}

    def recording(model, *args, **kwargs):
        evaluated[model.config.lcn, model.config.trans_layer] = model
        return evaluate_model(model, *args, **kwargs)

    monkeypatch.setattr(experiment, "evaluate_model", recording)
    results = run_ablation(cfg, *glyph_train, *glyph_test)
    assert set(results) == set(evaluated) == {(True, True), (True, False),
                                              (False, True), (False, False)}
    for (lcn, trans_layer), model in evaluated.items():
        alone = train_model(replace(cfg, lcn=lcn, trans_layer=trans_layer),
                            *glyph_train)
        assert saved_bytes(model, tmp_path) == saved_bytes(alone, tmp_path)
        assert same_result(results[lcn, trans_layer],
                           evaluate_model(alone, *glyph_test))


def test_ablation_checks_every_variant_before_sampling(monkeypatch):
    monkeypatch.setattr(experiment, "sample_patches", no_patches)
    gen = np.random.default_rng(12)
    images = [GrayImage(gen.random((7, 7))) for _ in range(12)]
    labels = np.arange(12) % 3
    # one 7x7 block of 2**2 codes: 8 features with trans_layer on, 4 off, so
    # only the off variants fail their check, after the (on, on) one passes
    cfg = tiny_config(patch_k1=3, patch_k2=3, l1=2, l2=1, block_w=7, block_h=7,
                      classifier="wpca_cosine", wpca_dim=5)
    with pytest.raises(ValueError, match=re.escape(
            "wpca_dim 5 exceeds min(training images - 1, feature dimension)"
            " = min(11, 4)")):
        run_ablation(cfg, images, labels, images, labels)
