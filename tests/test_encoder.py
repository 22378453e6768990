import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from translayer import Config, binarize, compress_groups, feature_of
from translayer.encoder import bit_weights


def encoder(bins=256, block=7, stride=3, trans=True):
    """A config whose 2^l1 histogram bins number ``bins``."""
    return Config(l1=bins.bit_length() - 1, block_w=block, block_h=block,
                  stride_x=stride, stride_y=stride, trans_layer=trans)


# --- binarize -------------------------------------------------------------

def test_binarize_threshold_and_ties():
    out = binarize(np.array([[-0.5, 0.0, 1.2]]))
    assert np.array_equal(out, np.array([[0, 0, 1]], dtype=np.uint8))


def test_binarize_all_zero():
    assert not binarize(np.zeros((3, 3))).any()


def test_binarize_shifted_positive():
    arr = np.random.default_rng(0).normal(size=(4, 4))
    assert binarize(arr + 1000.0).all()


# --- code packing ----------------------------------------------------------

def stack_from_bits(l1_bits, l2_bits):
    return (np.asarray(l1_bits, dtype=np.float64),
            np.asarray(l2_bits, dtype=np.float64))


def test_bit_weights_msb_is_first_map():
    assert list(bit_weights(8)) == [128, 64, 32, 16, 8, 4, 2, 1]


def test_hand_packed_code():
    bits = np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=float)  # by ascending i
    stack = stack_from_bits(bits.reshape(8, 1, 1), np.zeros((8, 1, 1, 1)))
    codes = compress_groups(stack, trans_layer=True)
    assert codes.shape == (2, 1, 1)
    assert codes[0, 0, 0] == 177


def test_all_zero_bits_code_zero():
    stack = stack_from_bits(np.zeros((8, 3, 3)), np.zeros((8, 2, 3, 3)))
    codes = compress_groups(stack, trans_layer=True)
    assert codes.shape == (3, 3, 3)
    assert not codes.any()


def test_single_first_map_gives_msb_code():
    l1 = np.zeros((8, 2, 2))
    l1[0] = 1.0  # first-layer index 1 only
    stack = stack_from_bits(l1, np.zeros((8, 3, 2, 2)))
    codes = compress_groups(stack, trans_layer=True)
    assert (codes[0] == 128).all()


def test_group_composition_uses_second_layer_index():
    # second-layer group j collects map j of every first-layer map
    l2 = np.zeros((2, 3, 1, 1))
    l2[0, 1] = 1.0  # first-layer map 1 (MSB), second-layer filter 2
    stack = stack_from_bits(np.zeros((2, 1, 1)), l2)
    codes = compress_groups(stack, trans_layer=False)
    assert codes.shape == (3, 1, 1)
    assert codes[1, 0, 0] == 2  # 2^(L1-1) with L1=2
    assert codes[0, 0, 0] == 0 and codes[2, 0, 0] == 0


def test_trans_layer_off_drops_first_group():
    gen = np.random.default_rng(1)
    stack = stack_from_bits(gen.random((4, 5, 5)) > 0.5,
                            gen.random((4, 3, 5, 5)) > 0.5)
    on = compress_groups(stack, trans_layer=True)
    off = compress_groups(stack, trans_layer=False)
    assert on.shape[0] == 4 and off.shape[0] == 3
    assert np.array_equal(on[1:], off)


def test_pack_unpack_bijection():
    gen = np.random.default_rng(2)
    bits = (gen.random((8, 6, 6)) > 0.5).astype(np.uint8)
    stack = stack_from_bits(bits, np.zeros((8, 1, 6, 6)))
    code = compress_groups(stack, trans_layer=True)[0]
    unpacked = np.stack([(code >> (7 - i)) & 1 for i in range(8)])
    assert np.array_equal(unpacked.astype(np.uint8), bits)


# --- block partition ---------------------------------------------------------

def block_origins(size, block, stride):
    """Top-left (x, y) of each block of a size x size map, in feature order.

    The code at (x, y) is 32 y + x, so a block's smallest code names its
    top-left corner.
    """
    bins = 1024
    ys, xs = np.mgrid[:size, :size]
    feat = feature_of((32 * ys + xs)[None].astype(np.uint16),
                      encoder(bins=bins, block=block, stride=stride))
    block_of = feat.indices // bins
    firsts = feat.indices[np.r_[0, np.flatnonzero(np.diff(block_of)) + 1]]
    return [(int(c % 32), int(c // 32)) for c in firsts % bins]


def test_block_grid_28_7_3():
    blocks = block_origins(28, block=7, stride=3)
    assert len(blocks) == 64
    xs = sorted({x for x, _ in blocks})
    assert xs == [0, 3, 6, 9, 12, 15, 18, 21]


def test_single_block_when_block_covers_map():
    blocks = block_origins(28, block=28, stride=14)
    assert blocks == [(0, 0)]


def test_block_grid_28_14_7():
    blocks = block_origins(28, block=14, stride=7)
    assert len(blocks) == 9


def test_block_larger_than_map_rejected():
    with pytest.raises(ValueError, match="block larger"):
        feature_of(np.zeros((1, 6, 6), dtype=np.uint16),
                   encoder(block=7, stride=3))


def test_blocks_row_major_order():
    # 7x7 blocks at stride 3 on a 10x10 map start at x, y in {0, 3}; pixel
    # (row 0, col 9) lies only in the block at x=3, y=0, the second block
    # in row-major order (the third in column-major order)
    codes = np.zeros((1, 10, 10), dtype=np.uint16)
    codes[0, 0, 9] = 1
    enc = encoder(bins=16, block=7, stride=3)
    feat = feature_of(codes, enc)
    assert feat.dim == 4 * 16
    assert feat.indices.tolist() == [0, 16, 17, 32, 48]
    assert feat.counts.tolist() == [49, 48, 1, 49, 49]


# --- block histograms -----------------------------------------------------

def test_zero_map_histograms():
    codes = np.zeros((1, 28, 28), dtype=np.uint16)
    feat = feature_of(codes, encoder(block=7, stride=3))
    assert feat.dim == 64 * 256
    assert feat.indices.size == 64
    assert np.array_equal(feat.indices, np.arange(64) * 256)
    assert (feat.counts == 49).all()


def test_feature_dimension_arithmetic():
    # 9 code maps of 28x28, 7x7 blocks at stride 3, 256 bins
    gen = np.random.default_rng(3)
    codes = gen.integers(0, 256, size=(9, 28, 28)).astype(np.uint16)
    feat = feature_of(codes, encoder())
    assert feat.dim == 9 * 64 * 256 == 147456


def test_histogram_conservation():
    gen = np.random.default_rng(4)
    codes = gen.integers(0, 256, size=(5, 28, 28)).astype(np.uint16)
    feat = feature_of(codes, encoder())
    assert feat.counts.sum() == 5 * 64 * 49


@given(st.integers(0, 2**32 - 1), st.sampled_from([(4, 2), (7, 3), (5, 5)]))
def test_histogram_conservation_property(seed, block_stride):
    block, stride = block_stride
    gen = np.random.default_rng(seed)
    codes = gen.integers(0, 16, size=(2, 12, 14)).astype(np.uint16)
    feat = feature_of(codes, encoder(bins=16, block=block, stride=stride))
    nx = (14 - block) // stride + 1
    ny = (12 - block) // stride + 1
    assert feat.counts.sum() == 2 * nx * ny * block * block


def test_translation_by_stride_permutes_block_histograms():
    gen = np.random.default_rng(5)
    enc = encoder(bins=16, block=4, stride=2)
    inner = gen.integers(1, 16, size=(8, 8))
    base = np.zeros((24, 24), dtype=np.uint16)
    base[5:13, 5:13] = inner
    shifted = np.zeros((24, 24), dtype=np.uint16)
    shifted[7:15, 7:15] = inner  # moved by exactly one stride in x and y

    def block_hists(code_map):
        out = {}
        corners = range(0, 24 - 4 + 1, 2)
        for (x, y) in [(x, y) for y in corners for x in corners]:
            block = code_map[y:y + 4, x:x + 4]
            out[(x, y)] = np.bincount(block.ravel(), minlength=16)
        return out

    a = block_hists(base)
    b = block_hists(shifted)
    for (x, y), hist in a.items():
        if 4 <= x <= 14 and 4 <= y <= 14:  # interior blocks only
            assert np.array_equal(hist, b[(x + 2, y + 2)])


def test_feature_deterministic(tiny_model, glyph_train):
    from translayer.pipeline import build_stack
    image = glyph_train[0][2]
    stack = build_stack(image, tiny_model)
    cfg = tiny_model.config
    a = feature_of(compress_groups(stack, cfg.trans_layer), cfg)
    b = feature_of(compress_groups(stack, cfg.trans_layer), cfg)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.counts, b.counts)
    assert a.indices.tobytes() == b.indices.tobytes()
