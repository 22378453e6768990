"""Spans around the public calls of each translayer module.

Every function is wrapped where its caller looks it up: ``from .x import y``
binds ``y`` into the importing module, so the span for a call made by
``experiment`` has to be installed on ``experiment.y``, not on ``x.y``.
Nothing in ``src/`` changes. The traced pass runs at ``jobs=1`` so that
every span is recorded in one process; spans nest on one stack and a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from translayer import (classify, dataio, encoder, experiment, filters,
                        pipeline, preprocess)
from translayer.types import GrayImage


def _map_layer_name(args, kwargs):
    # within build_stack, layer 1 maps the image and layer 2 a response map
    return ("pipeline.map_layer.l1" if isinstance(args[0], GrayImage)
            else "pipeline.map_layer.l2")


# span name -> ((module, attribute), ...): every binding a caller resolves
BINDINGS = {
    "dataio.read_amat": ((dataio, "read_amat"),),
    "dataio.save_model": ((dataio, "save_model"),),
    "dataio.load_model": ((dataio, "load_model"),),
    "filters.sample_patches": ((experiment, "sample_patches"),),
    "filters.gather_patches": ((experiment, "gather_patches"),),
    "filters.learn_pca_filters": ((experiment, "learn_pca_filters"),),
    "filters.learn_dae_filters": ((experiment, "learn_dae_filters"),),
    "filters.train_dae": ((filters, "train_dae"),),
    "preprocess.whiten_fit": ((experiment, "whiten_fit"),),
    "preprocess.lcn_matrix": ((experiment, "lcn_matrix"),),
    "preprocess.lcn_rows": ((pipeline, "lcn_rows"),),
    "linalg.jacobi_eigh": ((preprocess, "jacobi_eigh"), (filters, "jacobi_eigh"),
                           (classify, "jacobi_eigh")),
    "pipeline.build_stack": ((experiment, "build_stack"),),
    "pipeline.window_rows": ((pipeline, "window_rows"),),
    # train_model maps training images itself to draw layer-2 patches
    "pipeline.map_layer.sampling": ((experiment, "map_layer"),),
    "pipeline.map_layer": ((pipeline, "map_layer"),),
    "encoder.compress_groups": ((encoder, "compress_groups"),),
    "encoder.feature_of": ((encoder, "feature_of"),),
    "classify.svm_train": ((experiment, "svm_train"),),
    "classify.svm_predict_many": ((experiment, "svm_predict_many"),),
    "classify.wpca_fit": ((experiment, "wpca_fit"),),
    "classify.wpca_apply": ((experiment, "wpca_apply"),),
    "classify.cosine_nn": ((experiment, "cosine_nn"),),
    "experiment.train_model": ((experiment, "train_model"),),
    "experiment.evaluate_model": ((experiment, "evaluate_model"),),
    "experiment.extract_features": ((experiment, "extract_features"),),
    "experiment.predict_features": ((experiment, "predict_features"),),
}
_DYNAMIC_NAMES = {"pipeline.map_layer": _map_layer_name}


@dataclass
class Tracer:
    """In-memory span list plus the exact counts seen at the same boundaries."""

    spans: list = field(default_factory=list)   # [name, start, end, parent]
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _observe(self, name, args, out):
        c = self.counts
        if name == "linalg.jacobi_eigh":
            c.setdefault("jacobi_sizes", []).append(int(args[0].shape[0]))
        elif name == "encoder.feature_of":
            c["nnz"] = c.get("nnz", 0) + int(out.indices.size)
        elif name == "filters.train_dae":
            c["dae_epochs"] = c.get("dae_epochs", 0) + len(out[3]["loss"])

    def _wrap(self, fn, name):
        namer = _DYNAMIC_NAMES.get(name)

        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            idx = len(self.spans)
            self.spans.append([span_name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            self._observe(name, args, out)
            return out
        return traced

    def __enter__(self):
        for name, sites in BINDINGS.items():
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def span_times(spans):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, incl + end - start,
                        self_s + end - start - child_time[i])
    return totals


def top_level_seconds(spans) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)
