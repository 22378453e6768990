"""Binary encoding and block-wise histograms of the response maps.

The L1 maps of a group are thresholded at zero and packed per pixel into
one integer code, first-layer index 1 taking the most significant bit.
Group 0 holds the first-layer maps themselves (dropped when the
trans-layer flag is off); group j collects the j-th second-layer map of
every first-layer map. Each code map is cut into (possibly overlapping)
blocks whose code histograms, concatenated in (map, block row-major)
order, form the image's sparse feature vector.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import Config, HistogramFeature


def binarize(feature_map: np.ndarray) -> np.ndarray:
    """Threshold at zero: strictly positive pixels become 1, the rest 0."""
    arr = np.asarray(feature_map)
    if not np.isfinite(arr).all():
        raise ValueError("map contains non-finite values")
    return (arr > 0).astype(np.uint8)


def bit_weights(l1: int) -> np.ndarray:
    """Per-map bit weights 2^(L1-i) for first-layer index i = 1..L1."""
    return (1 << np.arange(l1 - 1, -1, -1)).astype(np.uint16)


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
    if l1 > 16:
        raise ValueError("groups of more than 16 maps overflow 16-bit codes")
    parts = [l1_bits[:, None], l2_bits] if trans_layer else [l2_bits]
    # float64 holds every code exactly and takes the BLAS product
    groups = np.concatenate(parts, axis=1, dtype=np.float64)
    return np.tensordot(bit_weights(l1), groups, axes=(0, 0)).astype(np.uint16)


def block_counts(map_size: tuple[int, int], cfg: Config) -> tuple[int, int]:
    w, h = map_size
    nx = (w - cfg.block_w) // cfg.stride_x + 1
    ny = (h - cfg.block_h) // cfg.stride_y + 1
    return nx, ny


def feature_of(code_maps: np.ndarray, cfg: Config) -> HistogramFeature:
    """Concatenated per-block code histograms of all code maps, with the
    block geometry of ``cfg`` and 2^l1 bins per block."""
    maps = np.asarray(code_maps)
    bins = 2**cfg.l1
    if maps.ndim != 3:
        raise ValueError("expected (groups, h, w) code maps")
    if maps.min() < 0 or maps.max() >= bins:
        raise ValueError("code outside [0, bins)")
    groups, h, w = maps.shape
    nx, ny = block_counts((w, h), cfg)
    if cfg.block_w > w or cfg.block_h > h:
        raise ValueError("block larger than the map")
    blocks = groups * nx * ny
    view = sliding_window_view(maps, (cfg.block_h, cfg.block_w), axis=(1, 2))
    tiles = view[:, ::cfg.stride_y, ::cfg.stride_x]
    # each (map, block) pair owns a run of `bins` slots, in (map, block) order
    flat = tiles.reshape(blocks, -1).astype(np.intp)
    flat += (np.arange(blocks, dtype=np.intp) * bins)[:, None]
    dense = np.bincount(flat.ravel(), minlength=blocks * bins)
    indices = np.flatnonzero(dense != 0)    # numpy finds nonzeros fastest in bools
    return HistogramFeature(dim=dense.size,
                            indices=indices.astype(np.int64),
                            counts=dense[indices].astype(np.int64))
