import glob
import os
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from translayer import (Config, FilterBank, GrayImage, PatchShape, Rng,
                        TrainedModel, WhiteningTransform, load_config,
                        validate_config)
from translayer.types import ConfigError, format_config, parse_config

CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "*.conf")))


def test_default_config_is_valid():
    assert validate_config(Config()) == []


def test_reference_digit_config_ok():
    cfg = Config(patch_k1=7, patch_k2=7, l1=8, l2=8,
                 block_w=7, block_h=7, stride_x=3, stride_y=3)
    assert validate_config(cfg) == []


def test_even_patch_side_rejected():
    errors = validate_config(Config(patch_k1=6))
    assert any("odd" in e for e in errors)


def test_l_range_checked():
    assert any("l1" in e for e in validate_config(Config(l1=0)))
    assert any("l2" in e for e in validate_config(Config(l2=17)))


@pytest.mark.parametrize("field", ["l1", "l2"])
def test_pca_filters_at_most_patch_pixels(field):
    # pca filters are orthonormal rows of length k1*k2
    message = f"{field} must be <= patch_k1*patch_k2 = 3 with learner pca"
    assert message in validate_config(Config(patch_k1=1, patch_k2=3,
                                             **{field: 4}))
    assert validate_config(Config(patch_k1=1, patch_k2=3, l1=3, l2=3)) == []
    # autoencoder banks may be overcomplete
    assert validate_config(Config(patch_k1=1, patch_k2=3, learner="dae",
                                  **{field: 4})) == []


def test_stride_fit_checked():
    errors = validate_config(Config(stride_x=9, block_w=7))
    assert any("stride" in e for e in errors)


@pytest.mark.parametrize("field,value,message", [
    ("dae_corruption", 1.0, "dae_corruption must lie in [0, 1)"),
    ("dae_epochs", 0, "dae_epochs must be >= 1"),
    ("dae_lr", 0.0, "dae_lr must be > 0"),
    ("dae_tradeoff_c", 0.0, "dae_tradeoff_c must be > 0"),
    ("lcn_c", 0.0, "lcn_c must be > 0"),
    ("block_w", 0, "block_w and block_h must be >= 1"),
    ("stride_x", 0, "stride_x and stride_y must be >= 1"),
])
def test_settings_checked_only_by_validate_config(field, value, message):
    # library calls take these settings unchecked from the Config
    assert message in validate_config(Config(**{field: value}))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["lcn_c", "whiten_epsilon", "dae_lr",
                                   "dae_tradeoff_c", "svm_c"])
def test_non_finite_float_settings_rejected(field, value):
    assert (f"{field} must be finite"
            in validate_config(parse_config(f"{field}={value}\n")))


def test_parse_roundtrip():
    cfg = Config(l1=4, l2=4, lcn=False, learner="dae", seed=99)
    again = parse_config(format_config(cfg))
    assert format_config(again) == format_config(cfg)
    assert again.lcn is False and again.learner == "dae" and again.seed == 99


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_is_valid_and_canonical(path):
    cfg = load_config(path)
    assert validate_config(cfg) == []
    with open(path, encoding="utf-8") as fh:
        text = "".join(line for line in fh if not line.startswith("#"))
    assert text == format_config(cfg)


def test_shipped_configs_found():
    # an empty glob would leave the parametrized check above with no cases
    assert CONFIGS, "no configs/*.conf found"


def test_readme_lists_exactly_the_config_fields():
    # shipped configs are held to the same key set by the canonical-text
    # check of configs/, since format_config writes every field
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Configuration", 1)[1].split("```", 2)[1]
    keys = re.findall(r"(\w+)=", re.sub(r"#.*", "", block))
    assert sorted(keys) == sorted(f.name for f in fields(Config))


def test_parse_rejects_unknown_key():
    # the bin count follows from l1; bins is not a key
    for text in ("patch_k1=7\nnot_a_key=3\n", "l1=8\nbins=256\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text)


def test_parse_rejects_bad_bool():
    with pytest.raises(ConfigError, match="on|off"):
        parse_config("lcn=maybe\n")


def test_parse_comments_and_blanks():
    cfg = parse_config("# comment\n\nl1=4 # trailing\n")
    assert cfg.l1 == 4


def test_gray_image_invariants():
    with pytest.raises(ValueError):
        GrayImage(np.array([[0.0, 2.0]]))  # above 1
    with pytest.raises(ValueError):
        GrayImage(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3)))
    img = GrayImage(np.zeros((3, 5)))
    assert img.pixels.shape == (3, 5)


def test_patch_shape_invariants():
    with pytest.raises(ValueError):
        PatchShape(2, 3)
    assert PatchShape(3, 5).dim == 15


def test_filter_bank_kind_follows_its_biases():
    shape = PatchShape(1, 3)
    pca = FilterBank(shape, np.eye(3)[:2])
    dae = FilterBank(shape, np.ones((2, 3)), biases=np.zeros(2))
    assert (pca.layer_kind, dae.layer_kind) == ("pca", "dae")
    with pytest.raises(TypeError):
        FilterBank(shape, np.eye(3)[:2], layer_kind="pca")
    cfg = Config(patch_k1=1, patch_k2=3, l1=2, l2=2)
    with pytest.raises(ValueError, match="bank1 is a dae bank, config says pca"):
        TrainedModel(cfg, dae, pca, WhiteningTransform(np.eye(3)),
                     WhiteningTransform(np.eye(3)))


def test_overflowing_pca_bank_rejected_without_a_warning():
    weights = np.eye(9)[:3].copy()
    weights[1, 4] = 1e308   # finite, but its square overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not orthonormal \(residual inf\)"):
            FilterBank(PatchShape(3, 3), weights)


def test_overflowing_whitening_rejected_without_a_warning():
    matrix = np.eye(3)
    matrix[0, 1], matrix[1, 0] = 1e308, -1e308   # their difference overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be symmetric"):
            WhiteningTransform(matrix)


def test_rng_streams_are_deterministic_and_distinct():
    a = Rng(42).stream("patches.layer1").random(8)
    b = Rng(42).stream("patches.layer1").random(8)
    c = Rng(42).stream("patches.layer2").random(8)
    d = Rng(43).stream("patches.layer1").random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)

