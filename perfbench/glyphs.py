"""Seeded seven-segment digit glyphs, written in the 785-column text format.

The real digit corpora are not available offline, so the benchmark draws
28x28 glyphs whose shape varies per image (position, size, stroke width,
slant, ink level). Two backgrounds cover the two regimes the pipeline
treats differently: exact zeros, as in MNIST, where most layer-1 windows
are constant; and uniform noise under the glyph, where almost none are.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
_SEGMENTS = {
    0: "abcdef", 1: "bc", 2: "abged", 3: "abgcd", 4: "fgbc",
    5: "afgcd", 6: "afgedc", 7: "abc", 8: "abcdefg", 9: "abcfgd",
}
_AXIS = np.arange(SIDE)
# the text form of each 8-bit level, as the 785-column corpora print them
_LEVEL_TEXT = [f"{k / 255:.8g}" for k in range(256)]


def _glyph(digit: int, gen: np.random.Generator) -> np.ndarray:
    half = int(gen.integers(6, 9))          # height of the upper half
    width = int(gen.integers(8, 12))
    stroke = int(gen.integers(2, 4))
    r0 = int(gen.integers(2, SIDE - 2 * half - stroke - 1))
    c0 = int(gen.integers(4, SIDE - width - 4))
    ink = gen.uniform(0.7, 1.0)
    rows = {"a": r0, "g": r0 + half, "d": r0 + 2 * half}
    cols = {"f": c0, "e": c0, "b": c0 + width - stroke, "c": c0 + width - stroke}
    img = np.zeros((SIDE, SIDE))
    for seg in _SEGMENTS[digit]:
        if seg in rows:
            img[rows[seg]:rows[seg] + stroke, c0:c0 + width] = ink
        else:
            top = r0 if seg in "fb" else r0 + half
            img[top:top + half + stroke, cols[seg]:cols[seg] + stroke] = ink
    # slant: shift each row horizontally in proportion to its height
    shifts = np.rint(gen.uniform(-0.25, 0.25) * (SIDE / 2 - _AXIS)).astype(np.intp)
    return img[_AXIS[:, None], (_AXIS[None, :] - shifts[:, None]) % SIDE]


def make_glyphs(n: int, seed: int, stream: int, noise: float):
    """``n`` labelled images as 8-bit levels, classes round-robin.

    ``noise > 0`` puts the glyph over a U(0, noise) background, taking the
    brighter of the two at each pixel; ``noise == 0`` leaves exact zeros.
    """
    gen = np.random.default_rng([seed, stream])
    pixels = np.empty((n, SIDE * SIDE))
    labels = np.arange(n) % 10
    for i, digit in enumerate(labels):
        img = _glyph(int(digit), gen)
        if noise > 0:
            img = np.maximum(img, gen.uniform(0.0, noise, size=img.shape))
        pixels[i] = img.ravel()
    return np.rint(pixels * 255.0).astype(np.uint8), labels


def write_amat(path, levels: np.ndarray, labels: np.ndarray) -> None:
    """784 pixel columns (level / 255) then the label, one image per line."""
    with open(path, "w", encoding="ascii") as fh:
        for row, label in zip(levels.tolist(), labels.tolist()):
            fh.write(" ".join(map(_LEVEL_TEXT.__getitem__, row)) + f" {label}\n")
