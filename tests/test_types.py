import numpy as np
import pytest

from translayer import (Config, GrayImage, HistogramFeature, PatchShape, Rng,
                        parse_config, validate_config)
from translayer.types import ConfigError, format_config


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


def test_parse_roundtrip():
    cfg = Config(l1=4, l2=4, lcn=False, learner="dae", seed=99)
    again = parse_config(format_config(cfg))
    assert format_config(again) == format_config(cfg)
    assert again.lcn is False and again.learner == "dae" and again.seed == 99


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


def test_histogram_feature_invariants():
    with pytest.raises(ValueError):
        HistogramFeature(dim=10, indices=np.array([3, 3]), counts=np.array([1, 1]))
    with pytest.raises(ValueError):
        HistogramFeature(dim=4, indices=np.array([5]), counts=np.array([1]))
    feat = HistogramFeature(dim=10, indices=np.array([1, 4]), counts=np.array([2, 3]))
    assert feat.counts.sum() == 5


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

