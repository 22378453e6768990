"""Dataset readers, the model container format, and image dumps.

Models are stored in a versioned binary container: an 8-byte magic
``DTLNMDL2`` followed by six length-prefixed sections (config text,
bank1, whiten1, bank2, whiten2, classifier), each closed by a CRC32 of
its payload. The config section is the only record of the settings; the
other sections hold learned arrays, and loading rejects a file whose
arrays disagree with its config. All floats are little-endian 64-bit, so
a save/load/save cycle is byte-identical.
"""

from __future__ import annotations

import gzip
import struct
import zlib

import numpy as np

from .classify import LinearSvmModel, WpcaCosineModel, WpcaModel
from .types import (DAE, ConfigError, FilterBank, GrayImage, PCA, PatchShape,
                    TrainedModel, WhiteningTransform, format_config,
                    parse_config, validate_config)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MODEL_MAGIC = b"DTLNMDL2"
_SECTIONS = ("config", "bank1", "whiten1", "bank2", "whiten2", "classifier")


class DataFormatError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise DataFormatError(f"truncated file while reading {what}")
    return buf


def read_idx(images_path, labels_path):
    """Parse the big-endian IDX image/label pair into images and labels."""
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(f"bad image magic 0x{magic:08x}")
        raw = _read_exact(fh, count * rows * cols, "image pixels")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)

    with _open_maybe_gzip(labels_path) as fh:
        magic, label_count = struct.unpack(
            ">II", _read_exact(fh, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(f"bad label magic 0x{magic:08x}")
        raw = _read_exact(fh, label_count, "labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise DataFormatError(
            f"count mismatch: {count} images vs {label_count} labels")
    images = [GrayImage(img / 255.0) for img in pixels.astype(np.float64)]
    return images, labels


def read_amat(path):
    """Parse the 785-column text format: 784 pixels in [0,1] then the label."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            table = np.loadtxt(path, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    if table.size == 0:
        return [], np.zeros(0, dtype=np.int64)
    if table.shape[1] != 785:
        raise DataFormatError(
            f"{path}: expected 785 fields per line, got {table.shape[1]}")
    raw_labels = table[:, 784]
    labels = raw_labels.astype(np.int64)
    if not np.array_equal(raw_labels, labels.astype(np.float64)):
        raise DataFormatError(f"{path}: non-integer label value")
    images = [GrayImage(row.reshape(28, 28)) for row in table[:, :784]]
    return images, labels


# --- model container ---------------------------------------------------

def _pack_array(arr) -> bytes:
    a = np.ascontiguousarray(arr)
    kind = {"f": 0, "i": 1, "u": 2}[a.dtype.kind]
    dt = {0: "<f8", 1: "<i8", 2: "<u8"}[kind]
    a = a.astype(dt)
    head = struct.pack("<BB", kind, a.ndim)
    dims = struct.pack(f"<{a.ndim}q", *a.shape)
    return head + dims + a.tobytes()


class _Cursor:
    def __init__(self, buf, section):
        self.buf = buf
        self.pos = 0
        self.section = section

    def take(self, count):
        if self.pos + count > len(self.buf):
            raise ModelFormatError(f"section {self.section}: truncated payload")
        out = self.buf[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self):
        kind, ndim = self.unpack("<BB")
        shape = self.unpack(f"<{ndim}q")
        dt = {0: "<f8", 1: "<i8", 2: "<u8"}.get(kind)
        if dt is None:
            raise ModelFormatError(f"section {self.section}: bad array kind")
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(self.take(size * 8), dtype=dt).reshape(shape)
        return arr.astype({0: np.float64, 1: np.int64, 2: np.uint64}[kind])

    def done(self):
        if self.pos != len(self.buf):
            raise ModelFormatError(f"section {self.section}: trailing bytes")


def _pack_bank(bank: FilterBank) -> bytes:
    parts = [struct.pack("<BII", 0 if bank.layer_kind == PCA else 1,
                         bank.shape.k1, bank.shape.k2),
             _pack_array(bank.weights),
             struct.pack("<B", 1 if bank.biases is not None else 0)]
    if bank.biases is not None:
        parts.append(_pack_array(bank.biases))
    parts.append(struct.pack("<B", 1 if bank.spectrum is not None else 0))
    if bank.spectrum is not None:
        parts.append(_pack_array(bank.spectrum))
    return b"".join(parts)


def _unpack_bank(cur: _Cursor) -> FilterBank:
    kind, k1, k2 = cur.unpack("<BII")
    weights = cur.array()
    biases = cur.array() if cur.unpack("<B")[0] else None
    spectrum = cur.array() if cur.unpack("<B")[0] else None
    return FilterBank(layer_kind=PCA if kind == 0 else DAE,
                      shape=PatchShape(k1, k2), weights=weights,
                      biases=biases, spectrum=spectrum)


def _pack_classifier(clf) -> bytes:
    if isinstance(clf, LinearSvmModel):
        return (struct.pack("<B", 0) + _pack_array(clf.classes)
                + _pack_array(clf.weights))
    if isinstance(clf, WpcaCosineModel):
        return (struct.pack("<B", 1) + _pack_array(clf.wpca.mean)
                + _pack_array(clf.wpca.projection)
                + _pack_array(clf.train_vectors) + _pack_array(clf.train_labels))
    raise TypeError(f"unknown classifier type {type(clf).__name__}")


def _unpack_classifier(cur: _Cursor):
    kind = cur.unpack("<B")[0]
    if kind == 0:
        classes = cur.array()
        weights = cur.array()
        return LinearSvmModel(classes=classes, weights=weights)
    if kind == 1:
        mean = cur.array()
        projection = cur.array()
        train_vectors = cur.array()
        train_labels = cur.array()
        return WpcaCosineModel(wpca=WpcaModel(mean=mean, projection=projection),
                               train_vectors=train_vectors,
                               train_labels=train_labels)
    raise ModelFormatError(f"section {cur.section}: unknown classifier kind")


def save_model(model: TrainedModel, path) -> None:
    payloads = [
        format_config(model.config).encode("utf-8"),
        _pack_bank(model.bank1),
        _pack_array(model.whiten1.matrix),
        _pack_bank(model.bank2),
        _pack_array(model.whiten2.matrix),
        _pack_classifier(model.classifier),
    ]
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        for payload in payloads:
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC):
        raise ModelFormatError("file too short to be a model")
    magic = blob[:8]
    if magic != MODEL_MAGIC:
        if magic[:7] == MODEL_MAGIC[:7]:
            raise ModelFormatError(
                f"unsupported model format version {magic[7:8].decode(errors='replace')}")
        raise ModelFormatError("not a model file (bad magic)")

    pos = 8
    sections = {}
    for name in _SECTIONS:
        if pos + 8 > len(blob):
            raise ModelFormatError(f"section {name}: truncated length")
        (length,) = struct.unpack_from("<Q", blob, pos)
        pos += 8
        if pos + length + 4 > len(blob):
            raise ModelFormatError(f"section {name}: truncated payload")
        payload = blob[pos:pos + length]
        pos += length
        (crc,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if zlib.crc32(payload) != crc:
            raise ModelFormatError(f"section {name}: checksum mismatch")
        sections[name] = payload
    if pos != len(blob):
        raise ModelFormatError("trailing bytes after final section")

    try:
        config = parse_config(sections["config"].decode("utf-8"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise ModelFormatError(f"section config: {exc}") from None
    errors = validate_config(config)
    if errors:
        raise ModelFormatError("section config: invalid config: "
                               + "; ".join(errors))
    cur = {name: _Cursor(sections[name], name) for name in _SECTIONS[1:]}
    try:
        model = TrainedModel(
            config=config, bank1=_unpack_bank(cur["bank1"]),
            whiten1=WhiteningTransform(cur["whiten1"].array()),
            bank2=_unpack_bank(cur["bank2"]),
            whiten2=WhiteningTransform(cur["whiten2"].array()),
            classifier=_unpack_classifier(cur["classifier"]))
    except ModelFormatError:
        raise
    except ValueError as exc:   # arrays invalid or disagreeing with the config
        raise ModelFormatError(f"invalid model: {exc}") from None
    for c in cur.values():
        c.done()
    return model


def dump_map_pgm(feature_map, path) -> None:
    """Write a map as binary PGM.

    Integer maps that already fit 0..255 are written verbatim; everything
    else is min-max scaled, with constant maps drawn mid-gray.
    """
    arr = np.asarray(feature_map)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("map must be 2-D and nonempty")
    if arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() <= 255:
        data = arr.astype(np.uint8)
    else:
        arr = arr.astype(np.float64)
        lo, hi = float(arr.min()), float(arr.max())
        if hi == lo:
            data = np.full(arr.shape, 128, dtype=np.uint8)
        else:
            data = np.floor((arr - lo) / (hi - lo) * 255.0 + 0.5).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
