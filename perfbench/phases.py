"""Benchmark phases. Each one runs in a child forked for it alone.

``ru_maxrss`` only ever grows, so a phase run in the benchmark's own
process would inherit the peak of every phase before it. A fresh child per
phase gives each phase its own high-water mark, and ``RUSAGE_CHILDREN``
adds the extraction pool workers the phase forked and reaped. The parent
is single-threaded (BLAS is pinned to one thread) and holds no data when it
forks, so every phase starts from the same baseline.

Train and eval go through the same public calls as ``translayer train``
and ``translayer eval``.
"""

from __future__ import annotations

import hashlib
import inspect
import multiprocessing as mp
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import translayer
from translayer import classify, dataio, encoder, experiment, pipeline

import glyphs
from spans import Tracer, span_times, top_level_seconds

CHECK_SLICE = 48          # test images compared between jobs=1 and jobs=2
CODE_DIGEST_IMAGES = 8    # test images whose binary code maps are hashed


class PhaseError(RuntimeError):
    """A phase raised in its child; the message carries the traceback."""


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0      # Linux reports KiB


def _child_main(conn, fn, args):
    try:
        out = fn(*args)
        out["peak_rss_mb"] = _peak_rss_mb()
        conn.send((True, out))
    except BaseException:                  # reported to the parent, which raises
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def in_child(fn, *args) -> dict:
    """Run ``fn(*args)`` in a forked child and return its result dict."""
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(send, fn, args))
    proc.start()
    send.close()
    try:
        ok, payload = recv.recv()
    except EOFError:
        ok, payload = False, f"{fn.__name__}: child exited without a result"
    finally:
        recv.close()
        proc.join()
    if not ok:
        raise PhaseError(payload)
    return payload


def _paths(workdir):
    return {name: os.path.join(workdir, name)
            for name in ("train.amat", "test.amat", "model.bin", "model2.bin")}


def setup(workload, seed, workdir) -> dict:
    """Start the package in a fresh interpreter, as ``translayer train``
    would, then generate the seeded glyphs and write both files.

    Import time counts here because every phase below is forked from a
    process that has already imported the package.
    """
    paths = _paths(workdir)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(translayer.__path__[0]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import translayer"], env=env,
                   check=True)
    for name, n, stream_seed, stream in (
            ("train.amat", workload.n_train, workload.train_seed(seed), 0),
            ("test.amat", workload.n_test, seed, 1)):
        levels, labels = glyphs.make_glyphs(n, stream_seed, stream, workload.noise)
        glyphs.write_amat(paths[name], levels, labels)
    return {"seconds": time.perf_counter() - start}


def _traced(run, traced):
    if not traced:
        return run(), None
    with Tracer() as tracer:
        out = run()
    return out, tracer


def _trace_summary(tracer):
    if tracer is None:
        return {}
    return {"spans": span_times(tracer.spans),
            "top_s": top_level_seconds(tracer.spans),
            "counts": tracer.counts}


def train(workload, seed, workdir, jobs, traced=False) -> dict:
    """read_amat -> train_model -> save_model, timed as one phase."""
    paths = _paths(workdir)
    cfg = workload.config(seed)

    def run():
        start = time.perf_counter()
        images, labels = dataio.read_amat(paths["train.amat"])
        model = experiment.train_model(cfg, images, labels, jobs=jobs)
        dataio.save_model(model, paths["model.bin"])
        return time.perf_counter() - start, len(images), model

    (seconds, n_images, model), tracer = _traced(run, traced)
    history = getattr(model.classifier, "objective_history", None)
    passes = [len(h) for h in history] if history is not None else []
    with open(paths["model.bin"], "rb") as fh:
        model_sha = hashlib.sha256(fh.read()).hexdigest()
    return {"seconds": seconds, "images": n_images, "svm_passes": passes,
            "unconverged": sum(p >= classify.SVM_MAX_PASSES for p in passes),
            "model_sha": model_sha,
            "model_bytes": os.path.getsize(paths["model.bin"]),
            **_trace_summary(tracer)}


def evaluate(workload, workdir, jobs, traced=False) -> dict:
    """load_model -> read_amat -> evaluate_model, timed as one phase."""
    paths = _paths(workdir)

    def run():
        start = time.perf_counter()
        model = dataio.load_model(paths["model.bin"])
        images, labels = dataio.read_amat(paths["test.amat"])
        result = experiment.evaluate_model(model, images, labels, jobs=jobs)
        return time.perf_counter() - start, result

    (seconds, result), tracer = _traced(run, traced)
    return {"seconds": seconds, "samples": result.samples,
            "errors": result.errors, "error_rate_pct": result.error_rate,
            **_trace_summary(tracer)}


def _const_window_frac(images, model) -> float:
    """Share of layer-1 windows, zero padded as extraction sees them, whose
    pixels are all equal."""
    constant = total = 0
    for img in images:
        rows = pipeline.window_rows(img.pixels, model.bank1.shape)
        constant += int((rows.max(axis=1) == rows.min(axis=1)).sum())
        total += rows.shape[0]
    return constant / total


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def checks(workload, workdir, jobs) -> dict:
    """Correctness checks and input properties on the trained model."""
    paths = _paths(workdir)
    model = dataio.load_model(paths["model.bin"])
    dataio.save_model(model, paths["model2.bin"])
    with open(paths["model.bin"], "rb") as a, open(paths["model2.bin"], "rb") as b:
        roundtrip_identical = a.read() == b.read()

    images, _ = dataio.read_amat(paths["test.amat"])
    part = images[:CHECK_SLICE]
    serial = experiment.extract_features(model, part, jobs=1)
    parallel = experiment.extract_features(model, part, jobs=jobs)
    parallel_equal = (serial.shape == parallel.shape
                      and np.array_equal(serial.indptr, parallel.indptr)
                      and np.array_equal(serial.indices, parallel.indices)
                      and np.array_equal(serial.data, parallel.data))
    preds = experiment.predict_features(model, serial)
    codes = [encoder.compress_groups(pipeline.build_stack(img, model),
                                     model.encoder.trans_layer)
             for img in part[:CODE_DIGEST_IMAGES]]
    chunk = inspect.signature(experiment.evaluate_model).parameters["chunk"].default
    return {"roundtrip_identical": roundtrip_identical,
            "parallel_equal": parallel_equal,
            "code_digest": _digest(*codes),
            "prediction_digest": _digest(preds),
            "const_window_frac": _const_window_frac(images, model),
            "nnz_per_image": serial.nnz / serial.shape[0],
            "feature_dim": int(serial.shape[1]),
            "test_chunks": -(-len(images) // chunk)}
