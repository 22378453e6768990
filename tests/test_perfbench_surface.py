"""The library surface the benchmark in ``perfbench/`` reads.

The benchmark wraps library functions by name and reads a few model
attributes; a refactor that renames or reshapes one of them breaks only a
full benchmark run. These checks import ``perfbench/spans.py`` as it is and
exercise the same calls on tiny inputs.
"""

import os
import sys

import numpy as np
import pytest

from translayer import encoder, experiment, pipeline

from conftest import tiny_config

PERFBENCH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans as module
    finally:
        sys.path.remove(PERFBENCH)
    return module


def test_every_binding_resolves(spans):
    for name, sites in spans.BINDINGS.items():
        for module, attr in sites:
            assert callable(getattr(module, attr, None)), (
                f"{name}: {module.__name__}.{attr} is missing")


def test_code_digest_path_matches_code_maps(tiny_model, glyph_test):
    # the calls perfbench's checks phase hashes into code_digest
    model = tiny_model
    for image in glyph_test[0][:3]:
        codes = encoder.compress_groups(pipeline.build_stack(image, model),
                                        model.encoder.trans_layer)
        assert np.array_equal(codes, pipeline.code_maps(image, model))


@pytest.mark.parametrize("learner,classifier", [("pca", "svm"),
                                                ("dae", "wpca_cosine")])
def test_tracer_counts_nnz_and_dae_epochs(spans, glyph_train, glyph_test,
                                          learner, classifier):
    cfg = tiny_config(learner=learner, classifier=classifier, dae_epochs=3,
                      wpca_dim=8)
    (train_images, train_labels), (test_images, test_labels) = (glyph_train,
                                                                glyph_test)
    with spans.Tracer() as tracer:
        model = experiment.train_model(cfg, train_images, train_labels)
        experiment.evaluate_model(model, test_images, test_labels)
    nnz = (experiment.extract_features(model, train_images).nnz
           + experiment.extract_features(model, test_images).nnz)
    assert tracer.counts["nnz"] == nnz
    if learner == "dae":
        assert tracer.counts["dae_epochs"] == 2 * cfg.dae_epochs
    else:
        assert "dae_epochs" not in tracer.counts
