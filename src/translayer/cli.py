"""Experiment driver.

Subcommands: train, eval, ablate, inspect. Data arguments take one path
for the 785-column text format or two paths (images, labels) for the
binary IDX pair. Exit codes: 0 ok, 1 runtime failure, 2 usage error
(bad arguments, missing files, invalid config).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace

from . import dataio
from .experiment import (evaluate_model, format_ablation_report,
                         format_eval_report, run_ablation, train_model)
from .pipeline import build_stack
from .encoder import compress_groups
from .types import ConfigError, load_config, validate_config

log = logging.getLogger("translayer")


class UsageError(Exception):
    pass


def _require_file(path):
    if not os.path.isfile(path):
        raise UsageError(f"no such file: {path}")
    return path


def _require_out_dir(path):
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise UsageError(f"no such output directory: {directory}")


def load_dataset(paths):
    """One path: 785-column text. Two paths: IDX images + labels."""
    for p in paths:
        _require_file(p)
    if len(paths) not in (1, 2):
        raise UsageError("expected one (text) or two (idx images labels) data paths")
    images, labels = (dataio.read_amat if len(paths) == 1 else dataio.read_idx)(*paths)
    if len(images) == 0:
        raise UsageError(f"no samples in {' '.join(paths)}")
    return images, labels


def _load_validated_config(path, seed_override):
    try:
        cfg = load_config(_require_file(path))
    except ConfigError as exc:
        raise UsageError(f"bad config: {exc}") from None
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    errors = validate_config(cfg)
    if errors:
        raise UsageError("invalid config: " + "; ".join(errors))
    return cfg


def cmd_train(args) -> int:
    _require_out_dir(args.model)
    cfg = _load_validated_config(args.config, args.seed)
    images, labels = load_dataset(args.train)
    log.info("training on %d images, seed %d", len(images), cfg.seed)
    t0 = time.perf_counter()
    model = train_model(cfg, images, labels, jobs=args.jobs)
    dataio.save_model(model, args.model)
    log.info("model written to %s (%.1f s total)", args.model,
             time.perf_counter() - t0)
    return 0


def cmd_eval(args) -> int:
    _require_out_dir(args.out)
    model = dataio.load_model(_require_file(args.model))
    images, labels = load_dataset(args.test)
    t0 = time.perf_counter()
    result = evaluate_model(model, images, labels, jobs=args.jobs)
    log.info("evaluated %d samples in %.1f s", result.samples,
             time.perf_counter() - t0)
    report = format_eval_report(result)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(report)
    print(f"error rate: {result.error_rate:.2f}%")
    return 0


def cmd_ablate(args) -> int:
    _require_out_dir(args.out)
    cfg = _load_validated_config(args.config, args.seed)
    train_images, train_labels = load_dataset(args.train)
    test_images, test_labels = load_dataset(args.test)
    results = run_ablation(cfg, train_images, train_labels, test_images,
                           test_labels, jobs=args.jobs)
    report = format_ablation_report(results)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return 0


def cmd_inspect(args) -> int:
    model = dataio.load_model(_require_file(args.model))
    os.makedirs(args.out, exist_ok=True)

    def kernel(bank, row):
        return bank.weights[row].reshape(bank.shape.k1, bank.shape.k2)

    for name, bank in (("bank1", model.bank1), ("bank2", model.bank2)):
        for i in range(bank.count):
            dataio.dump_map_pgm(kernel(bank, i),
                                os.path.join(args.out, f"{name}_{i:02d}.pgm"))
    if args.samples:
        images, _ = load_dataset(args.samples)
        for s, image in enumerate(images[:args.count]):
            layer1, layer2 = build_stack(image, model)
            tag = f"sample{s:03d}"
            for i in range(layer1.shape[0]):
                dataio.dump_map_pgm(layer1[i],
                                    os.path.join(args.out, f"{tag}_l1_{i:02d}.pgm"))
            for i in range(layer2.shape[0]):
                for j in range(layer2.shape[1]):
                    dataio.dump_map_pgm(
                        layer2[i, j],
                        os.path.join(args.out, f"{tag}_l2_{i:02d}_{j:02d}.pgm"))
            codes = compress_groups((layer1, layer2), model.config.trans_layer)
            for g in range(codes.shape[0]):
                dataio.dump_map_pgm(codes[g],
                                    os.path.join(args.out, f"{tag}_code_{g:02d}.pgm"))
    return 0


def _positive_int(text):
    """``--jobs`` and ``--count`` values: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translayer",
        description="Two-layer unsupervised feature learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, seed):
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the training images' "
                            "first-layer maps, feature extraction, test-set "
                            "scoring, the autoencoder's corruption masks, "
                            "the Gram matrix strips, the per-class SVM "
                            "solves and the WPCA column blocks")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    p_train = sub.add_parser("train", help="learn filters and a classifier")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--train", required=True, nargs="+")
    p_train.add_argument("--model", required=True)
    add_run_flags(p_train, seed=True)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="score a model on a test set")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--test", required=True, nargs="+")
    p_eval.add_argument("--out", required=True)
    add_run_flags(p_eval, seed=False)
    p_eval.set_defaults(fn=cmd_eval)

    p_abl = sub.add_parser("ablate", help="2x2 grid over lcn and trans_layer")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--train", required=True, nargs="+")
    p_abl.add_argument("--test", required=True, nargs="+")
    p_abl.add_argument("--out", required=True)
    add_run_flags(p_abl, seed=True)
    p_abl.set_defaults(fn=cmd_ablate)

    p_insp = sub.add_parser("inspect", help="dump filters and maps as PGM")
    p_insp.add_argument("--model", required=True)
    p_insp.add_argument("--out", required=True)
    p_insp.add_argument("--samples", nargs="+", default=None)
    p_insp.add_argument("--count", type=_positive_int, default=5)
    p_insp.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
