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

from .types import EncoderConfig, FeatureMapStack, HistogramFeature


def binarize(feature_map: np.ndarray) -> np.ndarray:
    """Threshold at zero: strictly positive pixels become 1, the rest 0."""
    arr = np.asarray(feature_map)
    if not np.isfinite(arr).all():
        raise ValueError("map contains non-finite values")
    return (arr > 0).astype(np.uint8)


def bit_weights(l1: int) -> np.ndarray:
    """Per-map bit weights 2^(L1-i) for first-layer index i = 1..L1."""
    return (1 << np.arange(l1 - 1, -1, -1)).astype(np.uint16)


def compress_groups(stack: FeatureMapStack, trans_layer: bool) -> np.ndarray:
    """Pack binarized maps into code maps, shape (groups, h, w) uint16."""
    return pack_codes(binarize(stack.layer1), binarize(stack.layer2), trans_layer)


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


def block_counts(map_size: tuple[int, int], encoder: EncoderConfig) -> tuple[int, int]:
    w, h = map_size
    nx = (w - encoder.block_w) // encoder.stride_x + 1
    ny = (h - encoder.block_h) // encoder.stride_y + 1
    return nx, ny


def feature_of(code_maps: np.ndarray, encoder: EncoderConfig) -> HistogramFeature:
    """Concatenated per-block code histograms of all code maps."""
    maps = np.asarray(code_maps)
    if maps.ndim != 3:
        raise ValueError("expected (groups, h, w) code maps")
    if maps.min() < 0 or maps.max() >= encoder.bins:
        raise ValueError("code outside [0, bins)")
    groups, h, w = maps.shape
    nx, ny = block_counts((w, h), encoder)
    if encoder.block_w > w or encoder.block_h > h:
        raise ValueError("block larger than the map")
    blocks = groups * nx * ny
    view = sliding_window_view(maps, (encoder.block_h, encoder.block_w), axis=(1, 2))
    tiles = view[:, ::encoder.stride_y, ::encoder.stride_x]
    # each (map, block) pair owns a run of `bins` slots, in (map, block) order
    flat = tiles.reshape(blocks, -1).astype(np.intp)
    flat += (np.arange(blocks, dtype=np.intp) * encoder.bins)[:, None]
    dense = np.bincount(flat.ravel(), minlength=blocks * encoder.bins)
    indices = np.flatnonzero(dense != 0)    # numpy finds nonzeros fastest in bools
    return HistogramFeature(dim=dense.size,
                            indices=indices.astype(np.int64),
                            counts=dense[indices].astype(np.int64))
