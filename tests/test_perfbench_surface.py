"""The library surface the benchmark in ``perfbench/`` reads.

The benchmark wraps library functions by name and reads a few model
attributes; a refactor that renames or reshapes one of them breaks only a
full benchmark run. These checks import ``perfbench/spans.py`` as it is and
exercise the same calls on tiny inputs.
"""

import dataclasses
import os
import re
import sys

import numpy as np
import pytest

from translayer import encoder, experiment, pipeline

from conftest import tiny_config

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PERFBENCH = os.path.join(ROOT, "perfbench")


def perfbench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return __import__(name)
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def spans():
    return perfbench_module("spans")


def test_phases_run_on_a_small_workload(tmp_path):
    # every model attribute and default the phases read: img.pixels,
    # model.bank1.shape, classifier.objective_history, model.encoder and
    # evaluate_model's chunk; and the jobs=1 against jobs=2 comparison
    phases = perfbench_module("phases")
    workloads = perfbench_module("workloads")
    workload = dataclasses.replace(workloads.WORKLOADS["train_svm"],
                                   n_train=20, n_test=12)
    phases.setup(workload, 1, str(tmp_path))
    trained = phases.train(workload, 1, str(tmp_path), jobs=2)
    evaluated = phases.evaluate(workload, str(tmp_path), jobs=2)
    checked = phases.checks(workload, str(tmp_path), jobs=2)
    assert trained["images"] == 20 and len(trained["svm_passes"]) >= 2
    assert all(passes >= 1 for passes in trained["svm_passes"])
    assert evaluated["samples"] == 12
    assert checked["roundtrip_identical"] and checked["parallel_equal"]
    assert checked["test_chunks"] == 1
    assert 0.0 <= checked["const_window_frac"] < 1.0
    assert len(checked["code_digest"]) == len(checked["prediction_digest"]) == 16


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


# every span a per-layer metric of perfbench/run.py reads for the config;
# one that is bound but never called would read 0 without a failure
_SHARED_SPANS = {"preprocess.lcn_matrix", "preprocess.whiten_fit",
                 "preprocess.lcn_rows", "filters.sample_patches",
                 "filters.gather_patches", "linalg.jacobi_eigh",
                 "pipeline.window_rows", "pipeline.map_layer.l1",
                 "pipeline.map_layer.sampling", "encoder.feature_of",
                 "experiment.train_model", "experiment.evaluate_model",
                 "experiment.extract_features", "experiment.predict_features"}


@pytest.mark.parametrize("learner,classifier,spans_read", [
    ("pca", "svm", {"filters.learn_pca_filters", "classify.svm_train"}),
    ("dae", "wpca_cosine", {"filters.learn_dae_filters", "filters.train_dae",
                            "classify.wpca_fit", "classify.wpca_apply"}),
], ids=["pca-svm", "dae-wpca_cosine"])
def test_per_layer_spans_are_recorded(spans, glyph_train, glyph_test, learner,
                                      classifier, spans_read):
    cfg = tiny_config(learner=learner, classifier=classifier, dae_epochs=2,
                      wpca_dim=8)
    with spans.Tracer() as tracer:
        model = experiment.train_model(cfg, *glyph_train)
        experiment.evaluate_model(model, *glyph_test)
    recorded = {name for name, _, _, _ in tracer.spans}
    missing = (_SHARED_SPANS | spans_read) - recorded
    assert not missing, f"spans never recorded: {sorted(missing)}"


def test_ci_workflow_names_only_existing_tests_and_workloads():
    # read as text (the CI job installs no YAML parser): a renamed test file
    # or workload would fail only on a hosted runner
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as fh:
        workflow = fh.read()
    test_files = set(re.findall(r"tests/test_\w+\.py", workflow))
    assert test_files
    for path in sorted(test_files):
        assert os.path.isfile(os.path.join(ROOT, path)), path
    loops = re.findall(r"for w in ([^;\n]+); do", workflow)
    assert loops
    names = {name for loop in loops for name in loop.split()}
    workloads = perfbench_module("workloads")
    assert names <= set(workloads.WORKLOADS), names - set(workloads.WORKLOADS)


def test_ci_workflow_runs_every_property_test_file_under_the_ci_profile():
    # a property-test file missing from the HYPOTHESIS_PROFILE=ci step would
    # run only the default profile's few examples
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as fh:
        ci_steps = [line for line in fh if "HYPOTHESIS_PROFILE=ci" in line]
    assert ci_steps
    named = set(re.findall(r"tests/test_\w+\.py", "".join(ci_steps)))
    with_given = set()
    for name in os.listdir(os.path.join(ROOT, "tests")):
        if re.fullmatch(r"test_\w+\.py", name):
            with open(os.path.join(ROOT, "tests", name)) as fh:
                if re.search(r"^\s*@given\(", fh.read(), re.MULTILINE):
                    with_given.add(f"tests/{name}")
    assert with_given
    assert with_given <= named, sorted(with_given - named)
