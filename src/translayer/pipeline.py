"""Mapping images through both filter layers.

Each output pixel is the response of a filter to the window centered on it
in the zero-padded input, so maps keep the input's size. Each window is
contrast normalized and whitened with the layer's training-fit transform
before the dot product; :func:`extraction_steps` decides which of the two
steps run, and with neither the map is the plain sliding correlation. The
contrast step is given as its constant ``c``, or None when it is off.

:func:`build_stack` keeps every response as a float map. Feature
extraction only needs the binary codes, so :func:`code_maps` computes the
signs of the second-layer responses alone, from one product with filters
that absorb whitening and the mean subtraction of contrast normalization.
A sign is used only where a forward-error bound certifies that the window
path rounds to the same bit; every second-layer map holding an uncertified
pixel is recomputed on the window path, so the codes equal those of
:func:`build_stack` bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .encoder import binarize, pack_codes
from .preprocess import center, lcn_rows
from .types import (DAE, Config, FilterBank, PatchShape, TrainedModel,
                    WhiteningTransform, as_2d)

# Factor by which a fused second-layer response must exceed the first-order
# rounding error of both paths before its sign is trusted.
_SIGN_SAFETY = 1e5
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max


def _pad_widths(shape: PatchShape):
    return ((shape.k1 - 1) // 2,), ((shape.k2 - 1) // 2,)


def window_rows(arr: np.ndarray, shape: PatchShape) -> np.ndarray:
    """All k1 x k2 windows of the padded input, one flattened row per pixel."""
    padded = np.pad(arr, _pad_widths(shape))
    windows = sliding_window_view(padded, (shape.k1, shape.k2))
    return windows.reshape(arr.size, shape.dim)


def map_layer(image, bank: FilterBank, whiten: WhiteningTransform | None = None,
              lcn: float | None = None) -> np.ndarray:
    """Response maps of one filter bank, shape (L, h, w).

    ``lcn`` is the contrast constant; None skips contrast normalization, and
    ``whiten=None`` skips whitening. Autoencoder banks add their bias and
    squash through tanh.
    """
    arr = as_2d(image)
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("empty input")
    rows = window_rows(arr, bank.shape)
    if lcn is not None:
        rows = lcn_rows(rows, lcn)
    if whiten is not None:
        if whiten.dim != bank.shape.dim:
            raise ValueError("whitening dimension mismatch")
        rows = rows @ whiten.matrix  # symmetric, so right-multiply works
    responses = rows @ bank.weights.T
    if bank.layer_kind == DAE:
        responses = np.tanh(responses + bank.biases[None, :])
    h, w = arr.shape
    return responses.T.reshape(bank.count, h, w).copy()


def extraction_steps(config: Config, whiten1: WhiteningTransform,
                     whiten2: WhiteningTransform | None = None):
    """The preprocessing extraction applies, as ``(lcn, whiten1, whiten2)``.

    ``lcn`` is the contrast constant ``lcn_c``. Each step that is off is
    None: contrast normalization without ``lcn``, all three without
    ``preprocess_at_extraction``.
    """
    if not config.preprocess_at_extraction:
        return None, None, None
    return (config.lcn_c if config.lcn else None), whiten1, whiten2


def build_stack(image, model: TrainedModel) -> tuple[np.ndarray, np.ndarray]:
    """Both layers' maps for one image: (L1, h, w) and (L1, L2, h, w).

    Second-layer maps are computed from every first-layer map; whether the
    first-layer maps also reach the encoder is decided later by the
    trans-layer flag.
    """
    lcn, whiten1, whiten2 = extraction_steps(model.config, model.whiten1,
                                             model.whiten2)
    layer1 = map_layer(image, model.bank1, whiten1, lcn)
    l1 = model.bank1.count
    l2 = model.bank2.count
    h, w = layer1.shape[1:]
    layer2 = np.empty((l1, l2, h, w), dtype=np.float64)
    for i in range(l1):
        layer2[i] = map_layer(layer1[i], model.bank2, whiten2, lcn)
    return layer1, layer2


def code_maps(image, model: TrainedModel) -> np.ndarray:
    """Code maps of one image, shape (groups, h, w) uint16.

    Equal to ``compress_groups(build_stack(image, model), trans_layer)``,
    including its checks, without computing second-layer float maps.
    """
    lcn, whiten1, whiten2 = extraction_steps(model.config, model.whiten1,
                                             model.whiten2)
    layer1 = map_layer(image, model.bank1, whiten1, lcn)
    l1_bits = binarize(layer1)
    l2_bits = _layer2_bits(layer1, model.bank2, whiten2, lcn)
    return pack_codes(l1_bits, l2_bits, model.config.trans_layer)


def _fused_filters(bank: FilterBank, whiten: WhiteningTransform | None,
                   lcn: float | None):
    """Fused filters H and each filter's error coefficient.

    ``H @ window`` is the window path's response before any bias, times
    (std + c) when contrast normalization is on. The window path multiplies
    windows by the whitening matrix W on the right, which folds into the
    filters as B W^T; subtracting each filter's mean then performs the
    window's mean subtraction. Each path rounds at most 2d^2 products and
    sums, each within eps of the magnitudes involved, so both
    |H @ window - exact| and (std + c) times the window path's error stay
    below ``coef * max|window|`` with the safety factor to spare.
    """
    weights = bank.weights
    gain = np.abs(weights)
    if whiten is not None:
        weights = weights @ whiten.matrix.T
        gain = gain @ np.abs(whiten.matrix).T
    if lcn is not None:
        weights = weights - weights.mean(axis=1, keepdims=True)
    d = bank.shape.dim
    coef = _SIGN_SAFETY * 2 * d * d * _EPS * (gain.max(axis=1)
                                             + np.abs(weights).max(axis=1))
    return weights, coef


def _window_max_abs(padded: np.ndarray, shape: PatchShape) -> np.ndarray:
    """Largest |value| in every k1 x k2 window of a stack of padded maps."""
    mags = np.abs(padded)
    h = padded.shape[1] - shape.k1 + 1
    w = padded.shape[2] - shape.k2 + 1
    # separable: the max over k2 columns, then over k1 rows of those
    across = mags[:, :, :w].copy()
    for dx in range(1, shape.k2):
        np.maximum(across, mags[:, :, dx:dx + w], out=across)
    out = across[:, :h].copy()
    for dy in range(1, shape.k1):
        np.maximum(out, across[:, dy:dy + h], out=out)
    return out


def _layer2_bits(layer1: np.ndarray, bank: FilterBank,
                 whiten: WhiteningTransform | None,
                 lcn: float | None) -> np.ndarray:
    """Binarized second-layer maps of every first-layer map, (L1, L2, h, w).

    All L1 maps share one window matrix and one product. A pixel's bit is
    certified when its window is all zero (both paths give exactly 0, and
    the bias alone decides an autoencoder bit) or when the fused response
    clears the error bound by a wide margin. Each map with an uncertified
    pixel is recomputed by the same :func:`map_layer` call
    :func:`build_stack` makes.
    """
    filters, coef = _fused_filters(bank, whiten, lcn)
    l1, h, w = layer1.shape
    d = bank.shape.dim
    padded = np.pad(layer1, ((0,),) + _pad_widths(bank.shape))
    # one column per window, in (map, row, col) order
    windows = sliding_window_view(padded, (bank.shape.k1, bank.shape.k2),
                                  axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(3, 4, 0, 1, 2)).reshape(d, -1)
    response = filters @ cols
    scale = _window_max_abs(padded, bank.shape).reshape(-1)
    c = lcn if lcn is not None else 0.0
    # the constant term covers rounding of values in the subnormal range
    bound = scale * coef[:, None] + _SIGN_SAFETY * d * (1.0 + c) * _TINY
    if bank.layer_kind == DAE:
        if lcn is not None:
            _, std = center(cols, axis=0)
            response /= std + c
            bound /= std + c
        response += bank.biases[:, None]
    certified = (np.abs(response) > bound) | (scale == 0.0)
    fallback = ~certified.reshape(bank.count, l1, -1).all(axis=(0, 2))
    # past this magnitude the window path's squared deviations can overflow
    if scale.max() >= np.sqrt(_MAX / (4 * d)) or not np.isfinite(response).all():
        fallback[:] = True
    bits = (response > 0).reshape(bank.count, l1, h, w).transpose(1, 0, 2, 3)
    bits = bits.astype(np.uint8)
    for i in np.flatnonzero(fallback):
        bits[i] = binarize(map_layer(layer1[i], bank, whiten, lcn))
    return bits
