import numpy as np
import pytest

from translayer import cli
from translayer.cli import main
from translayer.dataio import load_model

from conftest import make_glyphs


def write_amat(path, images, labels):
    with open(path, "w") as fh:
        for img, label in zip(images, labels):
            row = " ".join(f"{v:.6f}" for v in img.pixels.ravel())
            fh.write(f"{row} {int(label)}\n")


def smoke_config(tmp_path, **overrides):
    values = dict(patch_k1=7, patch_k2=7, l1=4, l2=4, lcn="on", lcn_c=10.0,
                  whiten_epsilon=0.1, learner="pca", patches_per_layer=300,
                  block_w=7, block_h=7, stride_x=3, stride_y=3,
                  trans_layer="on", classifier="svm", svm_c=1.0, seed=5)
    values.update(overrides)
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny glyph corpus on disk plus a trained model via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    train_images, train_labels = make_glyphs(50, seed=31)
    test_images, test_labels = make_glyphs(30, seed=32)
    write_amat(root / "train.amat", train_images, train_labels)
    write_amat(root / "test.amat", test_images, test_labels)
    cfg = smoke_config(root)
    rc = main(["train", "--config", str(cfg), "--train", str(root / "train.amat"),
               "--model", str(root / "model.bin")])
    assert rc == 0
    return root


def test_train_produces_loadable_model(workdir):
    model = load_model(workdir / "model.bin")
    assert model.bank1.count == 4
    assert model.config.seed == 5


def test_eval_writes_report_and_recount_matches(workdir, capsys):
    rc = main(["eval", "--model", str(workdir / "model.bin"),
               "--test", str(workdir / "test.amat"),
               "--out", str(workdir / "report.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error rate:" in out
    report = (workdir / "report.txt").read_text()
    lines = [l for l in report.splitlines() if l and not l.startswith("#")]
    classes = lines[0].split()[1:]
    rows = np.array([[int(v) for v in line.split()[1:]]
                     for line in lines[1:1 + len(classes)]])
    total = rows.sum()
    errors = total - np.trace(rows)
    stated = float(report.split("error_rate_percent ")[1].split()[0])
    assert abs(stated - 100.0 * errors / total) < 0.005  # recount agrees


def test_eval_is_order_invariant(workdir, tmp_path):
    images, labels = make_glyphs(30, seed=32)
    perm = np.random.default_rng(0).permutation(30)
    write_amat(tmp_path / "shuffled.amat",
               [images[i] for i in perm], labels[perm])
    rc = main(["eval", "--model", str(workdir / "model.bin"),
               "--test", str(tmp_path / "shuffled.amat"),
               "--out", str(tmp_path / "r2.txt")])
    assert rc == 0
    base = (workdir / "report.txt").read_text()
    again = (tmp_path / "r2.txt").read_text()
    pick = lambda text: text.split("error_rate_percent ")[1].split()[0]
    assert pick(base) == pick(again)


def test_missing_data_path_exits_2(workdir, capsys):
    rc = main(["eval", "--model", str(workdir / "model.bin"),
               "--test", str(workdir / "nope.amat"),
               "--out", str(workdir / "never.txt")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "ablate", "train"])
def test_missing_output_directory_exits_2_before_the_run(command, workdir,
                                                         tmp_path, monkeypatch,
                                                         capsys):
    def never(*args, **kwargs):
        raise AssertionError("the run started before its output was checked")

    monkeypatch.setattr(cli, "evaluate_model", never)
    monkeypatch.setattr(cli, "run_ablation", never)
    monkeypatch.setattr(cli, "train_model", never)
    test = str(workdir / "test.amat")
    out = tmp_path / "nodir" / "r.txt"
    if command == "eval":
        argv = ["eval", "--model", str(workdir / "model.bin"), "--test", test,
                "--out", str(out)]
    elif command == "ablate":
        argv = ["ablate", "--config", str(smoke_config(tmp_path)),
                "--train", str(workdir / "train.amat"), "--test", test,
                "--out", str(out)]
    else:
        argv = ["train", "--config", str(smoke_config(tmp_path)),
                "--train", str(workdir / "train.amat"), "--model", str(out)]
    rc = main(argv)
    assert rc == 2
    assert f"no such output directory: {out.parent}" in capsys.readouterr().err


def test_bad_config_exits_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("patch_k1=6\n")
    rc = main(["train", "--config", str(cfg),
               "--train", str(workdir / "train.amat"),
               "--model", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "odd" in capsys.readouterr().err


def test_non_finite_setting_exits_2(workdir, tmp_path, capsys):
    rc = main(["train", "--config", str(smoke_config(tmp_path, lcn_c="inf")),
               "--train", str(workdir / "train.amat"),
               "--model", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "lcn_c must be finite" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_pca_filters_beyond_patch_pixels_exit_2_before_reading_data(
        workdir, tmp_path, capsys, monkeypatch):
    def no_data(paths):
        raise AssertionError("read training data before checking the config")

    monkeypatch.setattr(cli, "load_dataset", no_data)
    rc = main(["train", "--config",
               str(smoke_config(tmp_path, patch_k1=1, patch_k2=3, l1=4)),
               "--train", str(workdir / "train.amat"),
               "--model", str(tmp_path / "m.bin")])
    assert rc == 2
    assert ("l1 must be <= patch_k1*patch_k2 = 3 with learner pca"
            in capsys.readouterr().err)


def test_training_failure_exits_1_and_writes_no_model(tmp_path, caplog):
    # a run that starts and then fails is logged as an error, not a usage one
    images, labels = make_glyphs(10, seed=33)
    data = tmp_path / "one_class.amat"
    write_amat(data, images, np.zeros_like(labels))
    model = tmp_path / "model.bin"
    rc = main(["train", "--config", str(smoke_config(tmp_path)),
               "--train", str(data), "--model", str(model)])
    assert rc == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records
            if r.levelname == "ERROR"] == [("ERROR", "need at least two classes")]
    assert not model.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["train", "eval", "ablate-train",
                                     "ablate-test"])
def test_empty_test_set_errors(command, workdir, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the run started on an empty data file")

    monkeypatch.setattr(cli, "evaluate_model", never)
    monkeypatch.setattr(cli, "run_ablation", never)
    monkeypatch.setattr(cli, "train_model", never)
    empty = tmp_path / "empty.amat"
    empty.write_text("")
    data = str(workdir / "train.amat")
    out = str(tmp_path / "r.txt")
    config = str(smoke_config(tmp_path))
    argv = {
        "train": ["train", "--config", config, "--train", str(empty),
                  "--model", out],
        "eval": ["eval", "--model", str(workdir / "model.bin"),
                 "--test", str(empty), "--out", out],
        "ablate-train": ["ablate", "--config", config, "--train", str(empty),
                         "--test", data, "--out", out],
        "ablate-test": ["ablate", "--config", config, "--train", data,
                        "--test", str(empty), "--out", out],
    }[command]
    assert main(argv) == 2
    assert f"no samples in {empty}" in capsys.readouterr().err


def test_inspect_dumps_expected_counts(workdir, tmp_path):
    out = tmp_path / "inspect"
    rc = main(["inspect", "--model", str(workdir / "model.bin"),
               "--out", str(out), "--samples", str(workdir / "test.amat"),
               "--count", "1"])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    banks = [n for n in names if n.startswith("bank")]
    l1_maps = [n for n in names if "_l1_" in n]
    l2_maps = [n for n in names if "_l2_" in n]
    codes = [n for n in names if "_code_" in n]
    assert len(banks) == 8            # 4 + 4 filters
    assert len(l1_maps) == 4
    assert len(l2_maps) == 16
    assert len(l1_maps) + len(l2_maps) == 4 * (4 + 1)
    assert len(codes) == 5            # trans-layer on: L2 + 1 groups
    # orthogonal pca filters render as pairwise distinct images
    blobs = [(out / n).read_bytes() for n in banks[:4]]
    assert len(set(blobs)) == len(blobs)


def test_inspect_filters_only_without_samples(workdir, tmp_path):
    out = tmp_path / "filters_only"
    rc = main(["inspect", "--model", str(workdir / "model.bin"),
               "--out", str(out)])
    assert rc == 0
    names = list(p.name for p in out.iterdir())
    assert len(names) == 8 and all(n.startswith("bank") for n in names)


def test_ablate_smoke_grid(tmp_path):
    train_images, train_labels = make_glyphs(40, seed=41)
    test_images, test_labels = make_glyphs(20, seed=42)
    write_amat(tmp_path / "train.amat", train_images, train_labels)
    write_amat(tmp_path / "test.amat", test_images, test_labels)
    cfg = smoke_config(tmp_path, patches_per_layer=200, l1=4, l2=4)
    rc = main(["ablate", "--config", str(cfg),
               "--train", str(tmp_path / "train.amat"),
               "--test", str(tmp_path / "test.amat"),
               "--out", str(tmp_path / "ablation.txt")])
    assert rc == 0
    lines = (tmp_path / "ablation.txt").read_text().splitlines()
    assert lines[0] == "lcn trans_layer error_rate_percent"
    assert len([l for l in lines if l and not l.startswith(("lcn ", "SUMMARY"))]) == 4
    assert lines[-1].startswith("SUMMARY kind=ablate")


@pytest.mark.parametrize("learner,classifier", [("pca", "svm"),
                                                ("dae", "wpca_cosine")])
def test_ablate_report_does_not_depend_on_jobs(tmp_path, learner, classifier):
    train_images, train_labels = make_glyphs(40, seed=43)
    test_images, test_labels = make_glyphs(30, seed=44)
    write_amat(tmp_path / "train.amat", train_images, train_labels)
    write_amat(tmp_path / "test.amat", test_images, test_labels)
    cfg = smoke_config(tmp_path, patches_per_layer=200, learner=learner,
                       classifier=classifier, dae_epochs=3, wpca_dim=8)
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"ablation{jobs}.txt"
        assert main(["ablate", "--config", str(cfg), "--jobs", jobs,
                     "--train", str(tmp_path / "train.amat"),
                     "--test", str(tmp_path / "test.amat"),
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_seed_override(workdir, tmp_path):
    cfg = smoke_config(tmp_path, seed=5)
    rc = main(["train", "--config", str(cfg),
               "--train", str(workdir / "train.amat"),
               "--model", str(tmp_path / "m77.bin"), "--seed", "77"])
    assert rc == 0
    assert load_model(tmp_path / "m77.bin").config.seed == 77


@pytest.mark.parametrize("count", ["0", "-1"])
def test_inspect_count_below_one_is_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "--model", "m.bin", "--out", "dump",
              "--samples", "t.amat", "--count", count])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["train", "--config", "c.conf", "--train", "t.amat", "--model", "m.bin"],
    ["eval", "--model", "m.bin", "--test", "t.amat", "--out", "r.txt"],
    ["ablate", "--config", "c.conf", "--train", "t.amat", "--test", "t.amat",
     "--out", "r.txt"],
], ids=["train", "eval", "ablate"])
def test_jobs_below_one_is_usage_error(argv, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "m.bin", "--test", "t.amat", "--out", "r.txt",
     "--seed", "1"],
    ["inspect", "--model", "m.bin", "--out", "dump", "--jobs", "2"],
    ["inspect", "--model", "m.bin", "--out", "dump", "--seed", "1"],
], ids=["eval-seed", "inspect-jobs", "inspect-seed"])
def test_flag_the_command_never_reads_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
