"""Mapping images through both filter layers.

Each output pixel is the response of a filter to the window centered on it
in the zero-padded input, so maps keep the input's size. Each window is
contrast normalized and whitened with the layer's training-fit transform
before the dot product, the two steps its filters were learned with. The
contrast step is given as its constant ``c`` (:func:`lcn_constant`), or
None when the config turns it off; whitening always runs.

:func:`build_stack` keeps every response as a float map. Feature
extraction only needs the binary codes, so :func:`code_maps` computes the
signs of the second-layer responses alone, with filters that absorb
whitening and the mean subtraction of contrast normalization, and without
building the windows: the first-layer maps are padded in (row, map,
column) order, and k2 column-shifted copies of that stack hold all taps,
so the response is k1 products, one per row tap, of k2 filter taps with a
strided view of the copies. A sign is used only where a forward-error
bound certifies that the window path rounds to the same bit; every
second-layer map holding an uncertified pixel is recomputed on the window
path, so the codes equal those of :func:`build_stack` bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .encoder import binarize, pack_codes
from .preprocess import lcn_rows, whiten_apply
from .types import (DAE, Config, FilterBank, PatchShape, TrainedModel,
                    WhiteningTransform, as_2d)

# Factor by which a fused second-layer response must exceed the first-order
# rounding error of both paths before its sign is trusted.
_SIGN_SAFETY = 1e5
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max


def window_rows(arr: np.ndarray, shape: PatchShape) -> np.ndarray:
    """All k1 x k2 windows of the padded input, one flattened row per pixel."""
    h, w = arr.shape
    p1, p2 = (shape.k1 - 1) // 2, (shape.k2 - 1) // 2
    padded = np.zeros((h + shape.k1 - 1, w + shape.k2 - 1), dtype=arr.dtype)
    padded[p1:p1 + h, p2:p2 + w] = arr
    windows = sliding_window_view(padded, (shape.k1, shape.k2))
    return windows.reshape(arr.size, shape.dim)


def map_layer(image, bank: FilterBank, whiten: WhiteningTransform,
              lcn: float | None = None) -> np.ndarray:
    """Response maps of one filter bank, shape (L, h, w).

    Each window is contrast normalized with the constant ``lcn`` (None skips
    the step) and whitened with ``whiten`` before the filter product.
    Autoencoder banks add their bias and squash through tanh.
    """
    arr = as_2d(image)
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("empty input")
    rows = window_rows(arr, bank.shape)
    if lcn is not None:
        rows = lcn_rows(rows, lcn)
    responses = whiten_apply(whiten, rows) @ bank.weights.T
    if bank.layer_kind == DAE:
        responses = np.tanh(responses + bank.biases[None, :])
    h, w = arr.shape
    return responses.T.reshape(bank.count, h, w).copy()


def lcn_constant(config: Config) -> float | None:
    """The contrast constant extraction uses: ``lcn_c``, None with ``lcn`` off."""
    return config.lcn_c if config.lcn else None


def build_stack(image, model: TrainedModel) -> tuple[np.ndarray, np.ndarray]:
    """Both layers' maps for one image: (L1, h, w) and (L1, L2, h, w).

    Second-layer maps are computed from every first-layer map; whether the
    first-layer maps also reach the encoder is decided later by the
    trans-layer flag.
    """
    lcn = lcn_constant(model.config)
    layer1 = map_layer(image, model.bank1, model.whiten1, lcn)
    return layer1, np.stack([map_layer(m, model.bank2, model.whiten2, lcn)
                             for m in layer1])


def code_maps(image, model: TrainedModel, layer1=None) -> np.ndarray:
    """Code maps of one image, shape (groups, h, w) uint16.

    Equal to ``compress_groups(build_stack(image, model), trans_layer)``,
    including its checks, without computing second-layer float maps.
    ``layer1``, the image's first-layer maps when already computed, takes
    the place of their ``map_layer`` call.
    """
    lcn = lcn_constant(model.config)
    if layer1 is None:
        layer1 = map_layer(image, model.bank1, model.whiten1, lcn)
    return pack_codes(binarize(layer1),
                      _layer2_bits(layer1, model.bank2, model.whiten2, lcn),
                      model.config.trans_layer)


# one entry, keyed by identity (FilterBank, WhiteningTransform are eq=False)
@functools.lru_cache(maxsize=1)
def _fused_filters(bank: FilterBank, whiten: WhiteningTransform,
                   lcn: float | None):
    """Fused filters H and each filter's two error coefficients.

    ``H @ window`` is the window path's response before any bias, times
    (std + c) when contrast normalization is on. The window path multiplies
    windows by the whitening matrix W on the right, which folds into the
    filters as B W^T; subtracting each filter's mean then performs the
    window's mean subtraction. Each path rounds at most 2d^2 products and
    sums, each within eps of the magnitudes involved, so both
    |H @ window - exact| and (std + c) times the window path's error stay
    below ``coef * max|window|`` with the safety factor to spare. The std
    error's coefficient is sqrt(d) |H_row|_2 times that factor.
    """
    weights = bank.weights @ whiten.matrix.T
    gain = np.abs(bank.weights) @ np.abs(whiten.matrix).T
    if lcn is not None:
        weights = weights - weights.mean(axis=1, keepdims=True)
    d = bank.shape.dim
    coef = _SIGN_SAFETY * 2 * d * d * _EPS * (gain.max(axis=1)
                                             + np.abs(weights).max(axis=1))
    with np.errstate(over="ignore"):   # an inf bound certifies nothing
        std_coef = _SIGN_SAFETY * np.sqrt(d) * np.linalg.norm(weights, axis=1)
    return weights, coef, std_coef


def _layer2_bits(layer1: np.ndarray, bank: FilterBank,
                 whiten: WhiteningTransform,
                 lcn: float | None) -> np.ndarray:
    """Binarized second-layer maps of every first-layer map, (L1, L2, h, w).

    Tap (dy, dx) of the window at (y, m, x) is ``shifted[dx, y + dy, m,
    x]``; responses and bounds are laid out (L2, h, L1, w). A bit is
    certified when its window is all zero (both paths give exactly 0, and
    the bias alone decides an autoencoder bit) or when the fused response
    clears the error bound, which holds for sums in any order, by a wide
    margin. Each map with an uncertified pixel is recomputed by the same
    :func:`map_layer` call :func:`build_stack` makes.

    An autoencoder with contrast normalization divides by the window std s,
    taken here as s_hat = sqrt(max(v, 0)) with v = B(y^2)/d - (B(y)/d)^2,
    from box sums B over the padded maps y, each shifted by its mean: a
    window reads one map, so its variance is unchanged, and the shift keeps
    the subtraction from cancelling where a window's mean is near its map's.
    Rounding the shift, the squares, the at most d - 1 sums per window, the
    divisions and the subtraction moves v from s^2 by less than
    dv = 4(d + 2) eps B(y^2)/d, as (B(|y|)/d)^2 <= B(y^2)/d, plus d tiny for
    operations in the subnormal range; the factor's slack covers the square
    root. So s |s_hat - s| <= dv, both for v > 0, where
    |s_hat - s| = |s_hat^2 - s^2| / (s_hat + s), and for a clamped v, where
    s^2 <= dv. The fused filters' rows sum to zero, so
    |r| = |H (window - mean)| <= |H_row|_2 sqrt(d) s, and r / (s_hat + c)
    lies within |H_row|_2 sqrt(d) dv / ((s_hat + c)(s_lo + c)) of
    r / (s + c), where s_lo = sqrt(max(v - dv, 0)) <= s. The bound adds that
    term times the safety factor; it has no 1/s factor. As elsewhere,
    products of two rounding errors are left to the safety factor.
    """
    filters, coef, std_coef = _fused_filters(bank, whiten, lcn)
    l1, h, w = layer1.shape
    k1, k2 = bank.shape.k1, bank.shape.k2
    d, n = bank.shape.dim, h * l1 * w
    p1, p2 = (k1 - 1) // 2, (k2 - 1) // 2
    padded = np.zeros((h + k1 - 1, l1, w + k2 - 1))
    padded[p1:p1 + h, :, p2:p2 + w] = layer1.transpose(1, 0, 2)
    shifted = np.stack([padded[:, :, dx:dx + w] for dx in range(k2)])
    # row tap dy of every window: (k2, n) with the row stride of shifted
    taps = [shifted.reshape(k2, -1)[:, dy * l1 * w:dy * l1 * w + n]
            for dy in range(k1)]
    if bank.layer_kind == DAE and lcn is not None:
        # the window variance from box sums of each map shifted by its mean
        dev = padded - layer1.mean(axis=(1, 2))[:, None]
        sq = _box(np.add, dev * dev, k1, k2).reshape(-1) / d
        var = sq - np.square(_box(np.add, dev, k1, k2).reshape(-1) / d)
        var_err = 4 * (d + 2) * _EPS * sq + d * _TINY
        denom = np.sqrt(np.maximum(var, 0.0)) + lcn
        s_lo = np.sqrt(np.maximum(var - var_err, 0.0))
    blocks = filters.reshape(bank.count, k1, k2)
    response = blocks[:, 0] @ taps[0]
    part = np.empty_like(response)
    for dy in range(1, k1):
        response += np.matmul(blocks[:, dy], taps[dy], out=part)
    scale = _box(np.maximum, np.abs(padded), k1, k2).reshape(-1)
    # the constant term covers rounding of values in the subnormal range
    bound = np.multiply(scale, coef[:, None], out=part)
    bound += _SIGN_SAFETY * d * (1.0 + (lcn or 0.0)) * _TINY
    if bank.layer_kind == DAE:
        if lcn is not None:
            response /= denom
            # c near either end of the float range overflows or divides by
            # zero here, soundly: a non-finite bound certifies nothing, and a
            # product past MAX drops a term under the constant one over denom
            # while |H_row|_2 < 1e13, as tanh maps keep var_err < 16 (d+2) eps + d tiny
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                bound /= denom
                bound += std_coef[:, None] * (var_err / (denom * (s_lo + lcn)))
        response += bank.biases[:, None]
    bits = (response > 0).view(np.uint8)
    certified = (np.abs(response, out=response) > bound) | (scale == 0.0)
    # past this magnitude the window path's squared deviations can overflow
    if scale.max() >= np.sqrt(_MAX / (4 * d)) or not np.isfinite(response).all():
        certified[:] = False
    bits = bits.reshape(bank.count, h, l1, w).transpose(2, 0, 1, 3)
    if not certified.all():
        fallback = ~certified.reshape(bank.count, h, l1, w).all(axis=(0, 1, 3))
        for i in np.flatnonzero(fallback):
            bits[i] = binarize(map_layer(layer1[i], bank, whiten, lcn))
    return bits


def _box(ufunc, stack: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """``ufunc`` reduced over every k1 x k2 window of a (row, map, column)
    stack, separably: over the k2 columns, then the k1 rows of those."""
    rows, _, cols = stack.shape
    across = stack[:, :, :cols - k2 + 1].copy()
    for dx in range(1, k2):
        ufunc(across, stack[:, :, dx:dx + cols - k2 + 1], out=across)
    out = across[:rows - k1 + 1].copy()
    for dy in range(1, k1):
        ufunc(out, across[dy:dy + rows - k1 + 1], out=out)
    return out
