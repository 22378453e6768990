"""translayer benchmark: train then evaluate one seeded glyph workload.

    python3 perfbench/run.py --workload train_svm --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each run writes its inputs, models and a full record
(``BENCH_<workload>.json``) under ``.bench_work/`` and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` measures the end-to-end metrics at ``jobs=2``: set-up is
repeated and train + eval cycles run until ``--seconds`` have passed, and
each metric is the median over repeats. ``--trace 1`` gives the per-layer
metrics: one untraced and one traced cycle, both at ``jobs=1`` so that
every span is recorded in one process; the difference of their wall times
is the tracing overhead, and the untraced cycle is the single-process
baseline. Both modes run the correctness checks and exit with status 1 if
one fails.
"""

from __future__ import annotations

import os

# pinned before numpy loads; forked pool workers inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "translayer", "__init__.py")):
    sys.exit(f"no translayer package under {SRC}: run from a repository checkout")
sys.path.insert(0, SRC)

import numpy as np
import scipy

import phases
from workloads import WORKLOADS

JOBS = 2             # extraction workers, as `translayer train/eval --jobs 2`
SETUP_REPEATS_BEFORE = 3
SETUP_REPEATS_AFTER = 2


def run_environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "jobs": JOBS, "loadavg_start": os.getloadavg()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def set_up(workload, seed, workdir) -> float:
    return phases.in_child(phases.setup, workload, seed, workdir)["seconds"]


def run_cycles(workload, seed, workdir, jobs, seconds, traced=False):
    """Train + eval cycles until ``seconds`` have passed (at least one)."""
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append((
            phases.in_child(phases.train, workload, seed, workdir, jobs, traced),
            phases.in_child(phases.evaluate, workload, workdir, jobs, traced)))
    return cycles


def end_to_end_metrics(setups, cycles):
    med = statistics.median
    metrics = {
        "setup_s": _metric(med(setups), "s"),
        "train_s": _metric(med(tr["seconds"] for tr, _ in cycles), "s"),
        "eval_images_per_s": _metric(
            med(ev["samples"] / ev["seconds"] for _, ev in cycles), "1/s"),
        "error_rate_pct": _metric(cycles[0][1]["error_rate_pct"], "%"),
        "train_peak_rss_mb": _metric(
            med(tr["peak_rss_mb"] for tr, _ in cycles), "MB"),
        "eval_peak_rss_mb": _metric(
            med(ev["peak_rss_mb"] for _, ev in cycles), "MB"),
    }
    detail = {"setup_s": setups,
              "cycles": [{"train_s": tr["seconds"], "eval_s": ev["seconds"],
                          "train_peak_rss_mb": tr["peak_rss_mb"],
                          "eval_peak_rss_mb": ev["peak_rss_mb"],
                          "svm_passes": tr["svm_passes"],
                          "errors": ev["errors"]} for tr, ev in cycles]}
    return metrics, detail


def _merge_spans(*tables):
    merged = {}
    for table in tables:
        for name, (calls, incl, self_s) in table.items():
            c, i, s = merged.get(name, (0, 0, 0.0))
            merged[name] = (c + calls, i + incl, s + self_s)
    return merged


def per_layer_metrics(traced, untraced, chk):
    (tr, ev), (base_tr, base_ev) = traced, untraced
    spans = _merge_spans(tr["spans"], ev["spans"])

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(*names, table=spans):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def total(key):
        return tr["counts"].get(key, 0) + ev["counts"].get(key, 0)

    jacobi = tr["counts"].get("jacobi_sizes", []) + ev["counts"].get("jacobi_sizes", [])
    maps = ("pipeline.map_layer.l1", "pipeline.map_layer.l2")
    all_maps = maps + ("pipeline.map_layer.sampling",)
    stacks = calls("pipeline.build_stack")
    passes = tr["svm_passes"]
    trace_wall = tr["seconds"] + ev["seconds"]
    values = {
        "dataio.read_amat.s": (incl("dataio.read_amat"), "s"),
        "dataio.save_model.s": (incl("dataio.save_model"), "s"),
        "dataio.load_model.s": (incl("dataio.load_model"), "s"),
        "dataio.model_bytes": (tr["model_bytes"], "bytes"),
        "filters.sample_patches.s": (incl("filters.sample_patches"), "s"),
        "filters.gather_patches.s": (incl("filters.gather_patches"), "s"),
        "filters.gather_patches.self_s": (self_s("filters.gather_patches"), "s"),
        # whichever learner the workload configures, so no workload reads 0
        "filters.learn.s": (incl("filters.learn_pca_filters",
                                 "filters.learn_dae_filters"), "s"),
        "filters.dae_epochs": (total("dae_epochs"), "count"),
        "preprocess.whiten_fit.s": (incl("preprocess.whiten_fit"), "s"),
        "preprocess.lcn_matrix.s": (incl("preprocess.lcn_matrix"), "s"),
        "preprocess.lcn_rows.s": (incl("preprocess.lcn_rows"), "s"),
        "preprocess.lcn_rows.calls": (calls("preprocess.lcn_rows"), "count"),
        "linalg.jacobi_eigh.s": (incl("linalg.jacobi_eigh"), "s"),
        "linalg.jacobi_eigh.calls": (len(jacobi), "count"),
        "linalg.jacobi_eigh.max_n": (max(jacobi, default=0), "count"),
        "pipeline.build_stack.s": (incl("pipeline.build_stack"), "s"),
        "pipeline.build_stack.ms_per_image": (
            1e3 * incl("pipeline.build_stack") / max(stacks, 1), "ms"),
        "pipeline.window_rows.s": (incl("pipeline.window_rows"), "s"),
        "pipeline.map_layer.l1.s": (incl(maps[0]), "s"),
        "pipeline.map_layer.l2.s": (incl(maps[1]), "s"),
        "pipeline.map_layer.self_s": (self_s(*all_maps), "s"),
        "pipeline.map_layer.calls": (sum(map(calls, all_maps)), "count"),
        "pipeline.map_layer.calls_per_image": (
            sum(map(calls, maps)) / max(stacks, 1), "count"),
        "encoder.compress_groups.s": (incl("encoder.compress_groups"), "s"),
        "encoder.feature_of.s": (incl("encoder.feature_of"), "s"),
        "encoder.nnz_per_image": (
            total("nnz") / max(calls("encoder.feature_of"), 1), "count"),
        "encoder.feature_dim": (chk["feature_dim"], "count"),
        # the configured classifier's fit (train) and prediction (eval)
        "classify.fit.s": (incl("classify.svm_train", "classify.wpca_fit",
                                "classify.wpca_apply", table=tr["spans"]), "s"),
        "classify.predict.s": (incl("experiment.predict_features",
                                    table=ev["spans"]), "s"),
        "classify.svm_train.passes": (sum(passes), "count"),
        "classify.svm_train.unconverged_classes": (tr["unconverged"], "count"),
        "experiment.train_model.s": (incl("experiment.train_model"), "s"),
        "experiment.train_model.self_s": (self_s("experiment.train_model"), "s"),
        "experiment.evaluate_model.s": (incl("experiment.evaluate_model"), "s"),
        "experiment.evaluate_model.self_s": (self_s("experiment.evaluate_model"), "s"),
        "experiment.extract_features.s": (incl("experiment.extract_features"), "s"),
        "experiment.extract_features.calls": (
            calls("experiment.extract_features"), "count"),
        "input.const_window_frac": (chk["const_window_frac"], "frac"),
        "input.test_chunks": (chk["test_chunks"], "count"),
        "trace.overhead_s": (trace_wall - base_tr["seconds"] - base_ev["seconds"], "s"),
        "trace.train_wall_s": (tr["seconds"], "s"),
        "trace.train_top_s": (tr["top_s"], "s"),
        "trace.eval_wall_s": (ev["seconds"], "s"),
        "trace.eval_top_s": (ev["top_s"], "s"),
        "trace.jobs1_train_s": (base_tr["seconds"], "s"),
        "trace.jobs1_eval_s": (base_ev["seconds"], "s"),
    }
    metrics = {name: _metric(v, unit) for name, (v, unit) in values.items()}
    detail = {"spans": {name: {"calls": c, "inclusive_s": i, "self_s": s}
                        for name, (c, i, s) in sorted(spans.items())},
              "jacobi_sizes": jacobi, "svm_passes_per_class": passes}
    return metrics, detail


def timed_run(workload, seed, seconds, workdir):
    setups = [set_up(workload, seed, workdir) for _ in range(SETUP_REPEATS_BEFORE)]
    cycles = run_cycles(workload, seed, workdir, JOBS, seconds)
    chk = phases.in_child(phases.checks, workload, workdir, JOBS)
    # on a shared host, speed can shift by tens of percent for seconds at a
    # time; repeats at both ends of the run keep one shift from setting the
    # median (regenerating identical files is harmless)
    setups += [set_up(workload, seed, workdir) for _ in range(SETUP_REPEATS_AFTER)]
    return (*end_to_end_metrics(setups, cycles), cycles, chk)


def traced_run(workload, seed, seconds, workdir):
    """One untraced, then one traced cycle, both at jobs=1; ``seconds`` is
    not used."""
    set_up(workload, seed, workdir)
    untraced = run_cycles(workload, seed, workdir, 1, 0)
    traced = run_cycles(workload, seed, workdir, 1, 0, traced=True)
    chk = phases.in_child(phases.checks, workload, workdir, JOBS)
    return (*per_layer_metrics(traced[0], untraced[0], chk),
            traced + untraced, chk)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = run_environment()

    workdir = os.path.join(ROOT, ".bench_work", workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = traced_run if args.trace else timed_run
    metrics, detail, cycles, chk = run(workload, args.seed, args.seconds, workdir)

    # operations: images encoded (train and test) and predicted, class solves
    attempted = sum(tr["images"] + 2 * ev["samples"] + len(tr["svm_passes"])
                    for tr, ev in cycles)
    failed = sum(tr["unconverged"] for tr, _ in cycles)
    verdicts = {
        "error_rate_within_ceiling":
            cycles[0][1]["error_rate_pct"] <= workload.max_error_pct,
        "model_save_load_save_identical": chk["roundtrip_identical"],
        "jobs2_features_equal_jobs1": chk["parallel_equal"],
        "seeded_runs_identical":
            len({tr["model_sha"] for tr, _ in cycles}) == 1
            and len({ev["errors"] for _, ev in cycles}) == 1,
    }
    correct = all(verdicts.values())
    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "n_train": workload.n_train, "n_test": workload.n_test,
                     "config": dataclasses.asdict(workload.config(args.seed))},
        "seed": args.seed, "trace": args.trace, "environment": env,
        "checks": verdicts,
        "info": {k: v for k, v in chk.items()
                 if not isinstance(v, bool) and k != "peak_rss_mb"},
        "failed_frac": failed / attempted, "detail": detail, "metrics": metrics,
    }
    with open(os.path.join(ROOT, ".bench_work", f"BENCH_{workload.name}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    print("environment " + json.dumps(env))
    print("input " + json.dumps(record["info"]))
    for name, ok in verdicts.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} frac "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
