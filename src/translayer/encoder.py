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


def partition_blocks(map_size: tuple[int, int], encoder: EncoderConfig) -> list[tuple[int, int]]:
    """Top-left (x, y) corners of every histogram block, row-major order."""
    w, h = map_size
    if encoder.block_w > w or encoder.block_h > h:
        raise ValueError("block larger than the map")
    xs = range(0, w - encoder.block_w + 1, encoder.stride_x)
    ys = range(0, h - encoder.block_h + 1, encoder.stride_y)
    return [(x, y) for y in ys for x in xs]


def block_counts(map_size: tuple[int, int], encoder: EncoderConfig) -> tuple[int, int]:
    w, h = map_size
    nx = (w - encoder.block_w) // encoder.stride_x + 1
    ny = (h - encoder.block_h) // encoder.stride_y + 1
    return nx, ny


def feature_of(code_maps: np.ndarray, encoder: EncoderConfig) -> HistogramFeature:
    """Concatenated per-block code histograms of all code maps."""
    maps = np.asarray(code_maps)
    if maps.ndim == 2:
        maps = maps[None]
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


def write_sparse_features(path, labels, features) -> None:
    """One sample per line: ``label idx:count ...``, 1-based ascending idx."""
    labels = np.asarray(labels)
    if labels.shape[0] != len(features):
        raise ValueError("label/feature count mismatch")
    with open(path, "w", encoding="ascii") as fh:
        for label, feat in zip(labels, features):
            cells = " ".join(f"{int(i) + 1}:{int(c)}"
                             for i, c in zip(feat.indices, feat.counts))
            fh.write(f"{int(label)} {cells}".rstrip() + "\n")


def read_sparse_features(path, dim: int | None = None):
    """Parse the sparse text format back into labels and features."""
    labels = []
    rows = []
    max_index = -1
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                labels.append(int(tokens[0]))
                pairs = [tok.split(":", 1) for tok in tokens[1:]]
                idx = np.array([int(i) - 1 for i, _ in pairs], dtype=np.int64)
                cnt = np.array([int(c) for _, c in pairs], dtype=np.int64)
            except (ValueError, IndexError):
                raise ValueError(f"line {lineno}: malformed sparse feature") from None
            if idx.size and (np.diff(idx) <= 0).any():
                raise ValueError(f"line {lineno}: indices must be ascending")
            if idx.size:
                max_index = max(max_index, int(idx[-1]))
            rows.append((idx, cnt))
    if dim is None:
        dim = max_index + 1
    features = [HistogramFeature(dim=dim, indices=i, counts=c) for i, c in rows]
    return np.asarray(labels, dtype=np.int64), features
