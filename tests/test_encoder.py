import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from translayer import Config, binarize, feature_of
from translayer.encoder import (block_counts, compress_groups, feature_dim,
                                nnz_bound, pack_codes)


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
    # first-layer map i alone, set at pixel column i, gives the code 2^(L1-i)
    l1_bits = np.eye(8, dtype=np.uint8).reshape(8, 1, 8)
    codes = pack_codes(l1_bits, np.zeros((8, 1, 1, 8), dtype=np.uint8), True)
    assert codes[0, 0].tolist() == [128, 64, 32, 16, 8, 4, 2, 1]


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


@given(st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
def test_pack_codes_weighs_bits_by_first_layer_index(l1, trans, seed):
    gen = np.random.default_rng(seed)
    l1_bits = (gen.random((l1, 3, 4)) > 0.5).astype(np.uint8)
    l2_bits = (gen.random((l1, 2, 3, 4)) > 0.5).astype(np.uint8)
    groups = np.concatenate([l1_bits[:, None], l2_bits], axis=1)
    want = (groups * 2**np.arange(l1 - 1, -1, -1)[:, None, None, None]).sum(0)
    got = pack_codes(l1_bits, l2_bits, trans)
    assert got.dtype == np.uint16
    assert np.array_equal(got, want[0 if trans else 1:])


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


def test_block_counts_take_height_then_width():
    cfg = Config(block_w=4, block_h=4, stride_x=2, stride_y=2)
    assert block_counts((10, 20), cfg) == (9, 4)   # (across, down)
    with pytest.raises(ValueError, match="block 4x4 is larger than the 20x3"):
        block_counts((3, 20), cfg)


def test_single_block_when_block_covers_map():
    blocks = block_origins(28, block=28, stride=14)
    assert blocks == [(0, 0)]


def test_block_grid_28_14_7():
    blocks = block_origins(28, block=14, stride=7)
    assert len(blocks) == 9


def test_block_larger_than_map_rejected():
    with pytest.raises(ValueError, match="block 7x7 is larger than the 6x6"):
        feature_of(np.zeros((1, 6, 6), dtype=np.uint16),
                   encoder(block=7, stride=3))


@pytest.mark.parametrize("codes, message", [
    (np.zeros((7, 7), dtype=np.uint16), r"expected \(groups, h, w\) code maps"),
    (np.full((1, 7, 7), 16, dtype=np.uint16), r"code outside \[0, bins\)"),
], ids=["2-d-maps", "code-of-2^l1"])
def test_maps_not_of_codes_rejected(codes, message):
    with pytest.raises(ValueError, match=message):
        feature_of(codes, encoder(bins=16, block=7, stride=3))


def test_blocks_row_major_order():
    # 7x7 blocks at stride 3 on a 10x10 map start at x, y in {0, 3}; pixel
    # (row 0, col 9) lies only in the block at x=3, y=0, the second block
    # in row-major order (the third in column-major order)
    codes = np.zeros((1, 10, 10), dtype=np.uint16)
    codes[0, 0, 9] = 1
    enc = encoder(bins=16, block=7, stride=3)
    feat = feature_of(codes, enc)
    assert feat.indices.tolist() == [0, 16, 17, 32, 48]
    assert feat.counts.tolist() == [49, 48, 1, 49, 49]


# --- block histograms -----------------------------------------------------

def test_zero_map_histograms():
    codes = np.zeros((1, 28, 28), dtype=np.uint16)
    feat = feature_of(codes, encoder(block=7, stride=3))
    assert feat.indices.dtype == np.int32 and feat.counts.dtype == np.uint8
    assert feat.indices.size == 64
    assert np.array_equal(feat.indices, np.arange(64) * 256)
    assert (feat.counts == 49).all()


def test_feature_dimension_arithmetic():
    # 9 code maps of 28x28, 7x7 blocks at stride 3, 256 bins
    gen = np.random.default_rng(3)
    codes = gen.integers(0, 256, size=(9, 28, 28)).astype(np.uint16)
    feat = feature_of(codes, encoder())
    assert feature_dim((28, 28), encoder()) == 9 * 64 * 256 == 147456
    assert feat.indices[-1] < 147456


def test_feature_dim_of_non_square_maps():
    # h=12, w=14 with unequal block sides and strides: nx=4, ny=5
    cfg = Config(l1=2, l2=2, block_w=5, block_h=4, stride_x=3, stride_y=2)
    codes = np.zeros((3, 12, 14), dtype=np.uint16)
    feat = feature_of(codes, cfg)
    assert feature_dim((12, 14), cfg) == 3 * 4 * 5 * 4
    # the last block of the last map holds every pixel at code 0
    assert feat.indices[-1] == 3 * 4 * 5 * 4 - 4


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


# --- against a per-block oracle ----------------------------------------------

def oracle_histograms(codes, cfg):
    """np.unique per block, the block's bins offset by block * 2^l1."""
    groups, h, w = codes.shape
    nx, ny = block_counts((h, w), cfg)
    indices, counts = [], []
    for g in range(groups):
        for by in range(ny):
            for bx in range(nx):
                y, x = by * cfg.stride_y, bx * cfg.stride_x
                block = codes[g, y:y + cfg.block_h, x:x + cfg.block_w]
                vals, cnt = np.unique(block, return_counts=True)
                offset = ((g * ny + by) * nx + bx) * 2**cfg.l1
                indices.append(offset + vals.astype(np.int64))
                counts.append(cnt)
    return np.concatenate(indices), np.concatenate(counts)


@st.composite
def codes_and_geometry(draw):
    """Code maps of 1..16-bit codes under a drawn block geometry: group 0 is
    one constant, so each of its blocks holds a single code; the other
    groups are random with the codes 0 and 2^l1 - 1 planted."""
    l1 = draw(st.integers(1, 16))
    bw, bh = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cfg = Config(l1=l1, block_w=bw, block_h=bh, stride_x=draw(st.integers(1, 4)),
                 stride_y=draw(st.integers(1, 4)))
    h, w = draw(st.integers(bh, 12)), draw(st.integers(bw, 12))
    top = 2**l1 - 1
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = gen.integers(0, top + 1, size=(draw(st.integers(2, 3)), h, w))
    codes[0] = draw(st.sampled_from([0, top, int(gen.integers(0, top + 1))]))
    codes[1:, 0, 0] = 0
    codes[1:, -1, -1] = top
    return codes.astype(np.uint16), cfg


@given(codes_and_geometry())
def test_feature_of_matches_per_block_oracle(case):
    codes, cfg = case
    feat = feature_of(codes, cfg)
    want_indices, want_counts = oracle_histograms(codes, cfg)
    assert feat.indices.dtype == np.int32
    assert feat.counts.dtype == np.min_scalar_type(cfg.block_w * cfg.block_h)
    assert np.array_equal(feat.indices, want_indices)
    assert np.array_equal(feat.counts, want_counts)
    assert (np.diff(feat.indices) > 0).all()
    nx, ny = block_counts(codes.shape[1:], cfg)
    blocks = codes.shape[0] * nx * ny
    assert feat.counts.sum() == blocks * cfg.block_w * cfg.block_h


@given(codes_and_geometry())
def test_nonzeros_stay_within_the_row_bound(case):
    codes, cfg = case
    cfg = replace(cfg, l2=codes.shape[0] - 1)
    assert feature_of(codes, cfg).indices.size <= nnz_bound(codes.shape[1:], cfg)


@given(codes_and_geometry(), st.integers(0, 2**16 - 1))
def test_row_bound_is_reached_when_every_block_holds_distinct_codes(case, shift):
    # the codes x + block_w * y + shift (mod 2^l1) of a block are block_w *
    # block_h consecutive integers: all distinct, or every code there is
    codes, cfg = case
    groups, h, w = codes.shape
    cfg = replace(cfg, l2=groups - 1)
    y, x = np.mgrid[:h, :w]
    bins = 2**cfg.l1
    codes = (x + cfg.block_w * y + shift * np.arange(1, groups + 1)[:, None, None]) % bins
    feat = feature_of(codes.astype(np.uint16), cfg)
    assert feat.indices.size == nnz_bound((h, w), cfg)


def test_row_bound_of_the_default_config():
    # 9 code maps x 8 x 8 blocks x 49 pixels
    assert nnz_bound((28, 28), Config()) == 28224
    assert nnz_bound((28, 28), Config(l1=4, trans_layer=False)) == 8 * 64 * 16


def test_feature_of_leaves_its_input_alone():
    # one block covering the whole map: the block's row is the map itself
    codes = np.arange(16, dtype=np.uint16)[::-1].reshape(1, 4, 4)
    before = codes.copy()
    feature_of(codes, encoder(bins=16, block=4, stride=1))
    assert np.array_equal(codes, before)


def test_sixteen_bit_codes_need_no_dense_bins():
    # 17 maps x 64 blocks x 2^16 int64 bins would be 570 MB
    cfg = Config(l1=16, l2=16)
    gen = np.random.default_rng(6)
    codes = gen.integers(0, 2**16, size=(17, 28, 28)).astype(np.uint16)
    tracemalloc.start()
    try:
        feat = feature_of(codes, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert feat.counts.sum() == 17 * 64 * 49
    assert feat.indices[-1] < feature_dim((28, 28), cfg)


def test_positions_past_int32_come_as_int64():
    # 17 maps x 4096 one-pixel blocks x 2^16 bins: 4.6e9 positions
    cfg = Config(l1=16, l2=16, block_w=1, block_h=1, stride_x=1, stride_y=1)
    codes = np.random.default_rng(7).integers(0, 2**16, size=(17, 64, 64))
    feat = feature_of(codes.astype(np.uint16), cfg)
    assert feature_dim((64, 64), cfg) == 17 * 4096 * 2**16
    assert feat.indices.dtype == np.int64 and feat.counts.dtype == np.uint8
    assert np.array_equal(feat.indices, np.arange(codes.size) * 2**16 + codes.ravel())
    assert (feat.counts == 1).all()
