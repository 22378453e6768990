"""Binary encoding and block-wise histograms of the response maps.

The L1 maps of a group are thresholded at zero and packed per pixel into
one integer code, first-layer index 1 taking the most significant bit.
Group 0 holds the first-layer maps themselves (dropped when the
trans-layer flag is off); group j collects the j-th second-layer map of
every first-layer map. Each code map is cut into (possibly overlapping)
blocks whose code histograms, concatenated in (map, block row-major)
order, form the image's sparse feature vector. A histogram is read off
the block's sorted codes, one bin per run of equal codes, so its cost
follows the block's pixel count and not the 2^L1 bins.

The vector comes in the dtypes its CSR matrix keeps: int32 positions up to
2^31 - 1 bins, and counts as narrow as a block's pixel count allows.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import MAX_FILTERS, Config


class SparseFeature(NamedTuple):
    """One image's feature vector: the strictly increasing int32 positions
    of its nonzero bins, int64 past 2^31 - 1 bins, and their positive counts
    in the smallest unsigned dtype that holds a block's pixel count."""

    indices: np.ndarray
    counts: np.ndarray


def binarize(feature_map: np.ndarray) -> np.ndarray:
    """Threshold at zero: strictly positive pixels become 1, the rest 0."""
    arr = np.asarray(feature_map)
    if not np.isfinite(arr).all():
        raise ValueError("map contains non-finite values")
    return (arr > 0).astype(np.uint8)


def compress_groups(stack, trans_layer: bool) -> np.ndarray:
    """Pack the binarized maps of a ``(layer1, layer2)`` stack into code
    maps, shape (groups, h, w) uint16."""
    layer1, layer2 = stack
    return pack_codes(binarize(layer1), binarize(layer2), trans_layer)


def pack_codes(l1_bits: np.ndarray, l2_bits: np.ndarray,
               trans_layer: bool) -> np.ndarray:
    """Code maps (groups, h, w) uint16 from 0/1 maps: first-layer bits
    (L1, h, w) and second-layer bits (L1, L2, h, w)."""
    l1 = l1_bits.shape[0]
    if l1 > MAX_FILTERS:
        raise ValueError(f"groups of more than {MAX_FILTERS} maps overflow "
                         "16-bit codes")
    parts = [l1_bits[:, None], l2_bits] if trans_layer else [l2_bits]
    # integer arithmetic: each 0/1 map, as uint16, is shifted to its bit
    # position L1-i and the maps of a group are OR-ed together
    bits = np.concatenate(parts, axis=1, dtype=np.uint16)
    bits <<= np.arange(l1 - 1, -1, -1, dtype=np.uint16)[:, None, None, None]
    return np.bitwise_or.reduce(bits, axis=0)


def block_counts(map_size: tuple[int, int], cfg: Config) -> tuple[int, int]:
    """Blocks across and down an ``(h, w)`` map; a block larger than the
    map is rejected."""
    h, w = map_size
    if cfg.block_w > w or cfg.block_h > h:
        raise ValueError(f"block {cfg.block_w}x{cfg.block_h} is larger than "
                         f"the {w}x{h} images")
    nx = (w - cfg.block_w) // cfg.stride_x + 1
    ny = (h - cfg.block_h) // cfg.stride_y + 1
    return nx, ny


def feature_dim(image_shape: tuple[int, int], cfg: Config) -> int:
    """Length of the feature vector of an ``(h, w)`` image: one run of
    2^l1 bins per (code map, block)."""
    nx, ny = block_counts(image_shape, cfg)
    return (cfg.l2 + cfg.trans_layer) * nx * ny * 2**cfg.l1


def nnz_bound(image_shape: tuple[int, int], cfg: Config) -> int:
    """Most nonzero bins the feature vector of an ``(h, w)`` image can
    have: one per distinct code of each (code map, block), at most the
    block's pixel count and at most 2^l1."""
    nx, ny = block_counts(image_shape, cfg)
    return (cfg.l2 + cfg.trans_layer) * nx * ny * min(cfg.block_w * cfg.block_h,
                                                      2**cfg.l1)


def pair_dtypes(width: int, block_pixels: int) -> tuple[np.dtype, np.dtype]:
    """The ``(indices, counts)`` dtypes of a feature vector ``width`` bins
    long whose blocks hold ``block_pixels`` pixels (:class:`SparseFeature`)."""
    wide = width > np.iinfo(np.int32).max
    return np.dtype(np.int64 if wide else np.int32), np.min_scalar_type(block_pixels)


@functools.lru_cache(maxsize=8)
def _block_index(shape: tuple[int, int, int], cfg: Config) -> np.ndarray:
    """Flat positions in (groups, h, w) code maps of each block's pixels,
    one row per (map, block), in (map, block row-major) order."""
    nx, ny = block_counts(shape[1:], cfg)
    pos = np.arange(np.prod(shape)).reshape(shape)
    view = sliding_window_view(pos, (cfg.block_h, cfg.block_w), axis=(1, 2))
    return view[:, ::cfg.stride_y, ::cfg.stride_x].reshape(shape[0] * nx * ny, -1)


def feature_of(code_maps: np.ndarray, cfg: Config) -> SparseFeature:
    """Concatenated per-block code histograms of all code maps, with the
    block geometry of ``cfg`` and 2^l1 bins per block."""
    maps = np.asarray(code_maps)
    bins = 2**cfg.l1
    if maps.ndim != 3:
        raise ValueError("expected (groups, h, w) code maps")
    if maps.min() < 0 or maps.max() >= bins:
        raise ValueError("code outside [0, bins)")
    # one row of codes per (map, block) pair, in (map, block) order; take
    # copies, so sorting never touches the caller's maps
    flat = maps.take(_block_index(maps.shape, cfg))
    flat.sort(axis=1)
    # each run of equal codes in a sorted row is one nonzero bin
    per_block = flat.shape[1]
    flat = flat.ravel()
    starts = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::per_block] = True
    pos = np.flatnonzero(starts)
    index_dtype, count_dtype = pair_dtypes(flat.size // per_block * bins, per_block)
    indices = (pos // per_block * bins + flat[pos]).astype(index_dtype)
    counts = np.diff(pos, append=flat.size).astype(count_dtype)
    return SparseFeature(indices, counts)
