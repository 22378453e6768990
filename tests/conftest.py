import os

import numpy as np
import pytest
from hypothesis import settings

from translayer import Config, GrayImage, train_model

settings.register_profile("suite", max_examples=25, deadline=None)
# a deeper search for CI: HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

# seven-segment style digit glyphs: ten visually distinct classes that a
# working pipeline must separate easily
_SEGMENTS = {
    0: "abcdef", 1: "bc", 2: "abged", 3: "abgcd", 4: "fgbc",
    5: "afgcd", 6: "afgedc", 7: "abc", 8: "abcdefg", 9: "abcfgd",
}


def _glyph(digit, r0, c0, intensity):
    img = np.zeros((28, 28))
    spans = {
        "a": (slice(r0, r0 + 2), slice(c0, c0 + 10)),
        "g": (slice(r0 + 7, r0 + 9), slice(c0, c0 + 10)),
        "d": (slice(r0 + 14, r0 + 16), slice(c0, c0 + 10)),
        "f": (slice(r0, r0 + 9), slice(c0, c0 + 2)),
        "b": (slice(r0, r0 + 9), slice(c0 + 8, c0 + 10)),
        "e": (slice(r0 + 7, r0 + 16), slice(c0, c0 + 2)),
        "c": (slice(r0 + 7, r0 + 16), slice(c0 + 8, c0 + 10)),
    }
    for seg in _SEGMENTS[digit]:
        img[spans[seg]] = intensity
    return img


def make_glyphs(n, seed):
    """Deterministic labeled digit-glyph images, classes balanced round-robin."""
    gen = np.random.default_rng(seed)
    images, labels = [], []
    for i in range(n):
        digit = i % 10
        r0 = int(gen.integers(4, 9))
        c0 = int(gen.integers(6, 13))
        img = _glyph(digit, r0, c0, gen.uniform(0.7, 1.0))
        img += gen.uniform(0.0, 0.15, size=(28, 28))
        images.append(GrayImage(np.clip(img, 0.0, 1.0)))
        labels.append(digit)
    return images, np.asarray(labels, dtype=np.int64)


def tiny_config(**overrides) -> Config:
    base = dict(patches_per_layer=400, l1=4, l2=4, seed=7)
    base.update(overrides)
    return Config(**base)


@pytest.fixture(scope="session")
def glyph_train():
    return make_glyphs(60, seed=101)


@pytest.fixture(scope="session")
def glyph_test():
    return make_glyphs(40, seed=202)


@pytest.fixture(scope="session")
def tiny_model(glyph_train):
    """One small trained model shared by io/cli/pipeline tests."""
    images, labels = glyph_train
    return train_model(tiny_config(), images, labels)


@pytest.fixture(scope="session")
def tiny_wpca_model(glyph_train):
    """A small wpca_cosine model: 20 training images, 5 components."""
    images, labels = glyph_train
    return train_model(tiny_config(classifier="wpca_cosine", wpca_dim=5),
                       images[:20], labels[:20])
