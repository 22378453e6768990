"""Shared domain types and run configuration.

:class:`Config` is the only record of the settings and
:func:`validate_config` its only check; library functions read the fields
they need from it. Images are wrapped in :class:`GrayImage`; feature maps
and patch matrices stay plain float arrays. A patch matrix is (m, k1*k2),
one patch per row flattened row-major, in training as in extraction, so a
filter row dotted with a patch row is the same number produced by sliding
the reshaped kernel over the image.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

MAX_FILTERS = 16  # packed pixel codes must fit 16-bit integers

PCA = "pca"
DAE = "dae"


def reject_non_finite(**arrays):
    """Reject a NaN or inf in any named array, which would otherwise run
    without any error (argmax picks a NaN decision value)."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a non-finite value")


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image, row-major pixels in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image must be a 2-D array with positive size")
        reject_non_finite(image=p)
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "pixels", p)


@dataclass(frozen=True)
class PatchShape:
    """Receptive field size; both sides odd so zero padding is symmetric."""

    k1: int
    k2: int

    def __post_init__(self):
        for side in (self.k1, self.k2):
            if side < 1:
                raise ValueError("patch sides must be >= 1")
            if side % 2 == 0:
                raise ValueError("patch side must be odd")

    @property
    def dim(self) -> int:
        return self.k1 * self.k2


def as_2d(value) -> np.ndarray:
    """The float64 2-D array of an image or an array-like."""
    if isinstance(value, GrayImage):
        return value.pixels
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D image, map or patch matrix")
    return arr


ORTHO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Learned convolution weights for one layer.

    ``weights`` rows reshape row-major to k1 x k2 kernels. Banks learned by
    the autoencoder carry per-filter biases, and a bank with biases is an
    autoencoder bank; principal-component banks have orthonormal rows and
    optionally keep the full eigenvalue spectrum for diagnostics.
    """

    shape: PatchShape
    weights: np.ndarray
    biases: Optional[np.ndarray] = None
    spectrum: Optional[np.ndarray] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != self.shape.dim:
            raise ValueError("weights must be (L, k1*k2)")
        reject_non_finite(weights=w)
        object.__setattr__(self, "weights", w)
        if self.biases is not None:
            b = np.asarray(self.biases, dtype=np.float64)
            if b.shape != (w.shape[0],):
                raise ValueError("biases must be a length-L vector")
            reject_non_finite(biases=b)
            object.__setattr__(self, "biases", b)
        else:
            # rows large enough to overflow give an inf or NaN residual,
            # which fails the check below without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                resid = np.abs(w @ w.T - np.eye(w.shape[0])).max()
            if not resid < ORTHO_TOL:
                raise ValueError(f"pca rows not orthonormal (residual {resid:.3g})")
        if self.spectrum is not None:
            s = np.asarray(self.spectrum, dtype=np.float64)
            object.__setattr__(self, "spectrum", s)

    @property
    def layer_kind(self) -> str:
        return PCA if self.biases is None else DAE

    @property
    def count(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class WhiteningTransform:
    """Symmetric decorrelating matrix U (D + eps I)^(-1/2) U^T."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("whitening matrix must be square")
        reject_non_finite(whitening=m)
        # mirrored entries of opposite sign can overflow the difference,
        # whose inf then fails the check below without a warning
        with np.errstate(over="ignore"):
            resid = np.abs(m - m.T).max()
        if not resid <= 1e-10:
            raise ValueError("whitening matrix must be symmetric within 1e-10")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_TRUE = {"on", "true", "1", "yes"}
_FALSE = {"off", "false", "0", "no"}


def _parse_bool(raw):
    if raw.lower() not in _TRUE | _FALSE:
        raise ValueError(f"expected on|off, got {raw!r}")
    return raw.lower() in _TRUE


# a declared field type: what a value must be (in messages), the numpy dtype
# kinds of the values it accepts (a Python or numpy bool is "b", an integer
# "i" or "u", a float "f"), and its config-text parser and writer
_Codec = namedtuple("_Codec", "noun kinds parse write")
_CODECS = {
    "bool": _Codec("on or off", "b", _parse_bool,
                   lambda v: "on" if v else "off"),
    "int": _Codec("an integer", "iu", int, str),
    "float": _Codec("a number", "iuf", float, lambda v: repr(float(v))),
    "str": _Codec("a string", "U", str, str),
}


@dataclass(frozen=True)
class Config:
    """Full hyperparameter record for one experiment."""

    patch_k1: int = 7
    patch_k2: int = 7
    l1: int = 8
    l2: int = 8
    lcn: bool = True
    lcn_c: float = 10.0
    whiten_epsilon: float = 0.1
    learner: str = PCA
    dae_corruption: float = 0.10
    dae_epochs: int = 50
    dae_lr: float = 0.01
    dae_tradeoff_c: float = 1.0
    patches_per_layer: int = 100000
    block_w: int = 7
    block_h: int = 7
    stride_x: int = 3
    stride_y: int = 3
    trans_layer: bool = True
    classifier: str = "svm"
    svm_c: float = 1.0
    wpca_dim: int = 64
    wpca_sqrt: bool = False
    seed: int = 0

    def patch_shape(self) -> PatchShape:
        return PatchShape(self.patch_k1, self.patch_k2)


# each config-file key's codec, picked by its declared type, in canonical order
_FIELDS = {f.name: _CODECS[f.type] for f in fields(Config)}

# single-field rules as (fields, fault, message), "{}" in a message standing
# for the field
_RULES = (
    ("l1 l2", lambda v: not 1 <= v <= MAX_FILTERS,
     f"{{}} must lie in 1..{MAX_FILTERS}"),
    ("lcn_c whiten_epsilon dae_lr dae_tradeoff_c svm_c",
     # an int beyond float range is compared exactly, never converted
     lambda v: not abs(v) <= sys.float_info.max, "{} must be finite"),
    ("lcn_c dae_lr dae_tradeoff_c svm_c", lambda v: v <= 0, "{} must be > 0"),
    ("whiten_epsilon", lambda v: v < 0, "{} must be >= 0"),
    ("learner", lambda v: v not in (PCA, DAE), "{} must be pca or dae"),
    ("dae_corruption", lambda v: not 0.0 <= v < 1.0, "{} must lie in [0, 1)"),
    ("dae_epochs patches_per_layer wpca_dim", lambda v: v < 1, "{} must be >= 1"),
    ("block_w block_h", lambda v: v < 1, "block_w and block_h must be >= 1"),
    ("stride_x stride_y", lambda v: v < 1, "stride_x and stride_y must be >= 1"),
    ("classifier", lambda v: v not in ("svm", "wpca_cosine"),
     "{} must be svm or wpca_cosine"),
    ("seed", lambda v: not 0 <= int(v) < 2**64, "{} must fit in 64 bits unsigned"),
)


def validate_config(config: Config) -> list[str]:
    """Return every violated invariant as a message; empty list means ok."""
    errors = [f"{name} must be {codec.noun}" for name, codec in _FIELDS.items()
              if np.dtype(type(getattr(config, name))).kind not in codec.kinds]
    if errors:   # the rules compare values of the declared types
        return errors
    try:
        config.patch_shape()
    except ValueError as exc:
        errors.append(str(exc))
    for names, fault, message in _RULES:
        for name in names.split():
            # a block or a stride pair shares one message
            if fault(getattr(config, name)) and message.format(name) not in errors:
                errors.append(message.format(name))
    pixels = config.patch_k1 * config.patch_k2
    for name in ("l1", "l2"):
        count = getattr(config, name)
        if config.learner == PCA and 1 <= count <= MAX_FILTERS and count > pixels:
            errors.append(f"{name} must be <= patch_k1*patch_k2 = {pixels} "
                          f"with learner pca")
    if min(config.stride_x, config.stride_y) >= 1 and (
            config.stride_x > config.block_w or config.stride_y > config.block_h):
        errors.append("stride must not exceed the block side")
    return errors


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> Config:
    """Parse the flat key=value config format ('#' starts a comment)."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    # every key fault in the text is reported before any value fault
    for key, raw in values.items():
        try:
            values[key] = _FIELDS[key].parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return Config(**values)


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(config: Config) -> str:
    """Canonical text form; stable byte-for-byte for identical configs."""
    return "".join(f"{name}={codec.write(getattr(config, name))}\n"
                   for name, codec in _FIELDS.items())


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed to map an image to a label.

    ``config`` is the only record of the settings; the learned arrays must
    agree with it. ``classifier`` is None until the classifier is trained.
    """

    config: Config
    bank1: FilterBank
    bank2: FilterBank
    whiten1: WhiteningTransform
    whiten2: WhiteningTransform
    classifier: object = None

    def __post_init__(self):
        cfg = self.config
        for name, bank, count in (("bank1", self.bank1, cfg.l1),
                                  ("bank2", self.bank2, cfg.l2)):
            if bank.count != count:
                raise ValueError(f"{name} has {bank.count} filters, config "
                                 f"says {count}")
            if bank.shape != cfg.patch_shape():
                raise ValueError(f"{name} patch shape differs from the config")
            if bank.layer_kind != cfg.learner:
                raise ValueError(f"{name} is a {bank.layer_kind} bank, config "
                                 f"says {cfg.learner}")
        if self.bank1.shape.dim != self.whiten1.dim:
            raise ValueError("layer-1 whitening dimension mismatch")
        if self.bank2.shape.dim != self.whiten2.dim:
            raise ValueError("layer-2 whitening dimension mismatch")
        if self.classifier is not None:
            from .classify import LinearSvmModel, WpcaCosineModel
            kind = {LinearSvmModel: "svm", WpcaCosineModel: "wpca_cosine"}.get(
                type(self.classifier))
            if kind != cfg.classifier:
                raise ValueError(f"{type(self.classifier).__name__} classifier, "
                                 f"config says {cfg.classifier}")

    @property
    def encoder(self) -> Config:
        # perfbench/phases.py reads model.encoder.trans_layer
        return self.config
