"""Dataset readers, the model container format, and image dumps.

Models are stored in a versioned binary container: an 8-byte magic
``DTLNMDL4`` followed by six length-prefixed sections (config text,
bank1, whiten1, bank2, whiten2, classifier), each closed by a CRC32 of
its payload. The config section is the only record of the settings. Each
other section holds learned arrays and nothing else, in the layout the
config decides: a bank holds its weights, plus its biases when
``learner=dae``; a whitening section its matrix; the classifier section
``classes, weights`` (svm) or ``mean, projection, train_vectors,
train_labels`` (wpca_cosine). Loading rejects a file whose arrays
disagree with its config. All numbers are little-endian 64-bit, so a
save/load/save cycle is byte-identical.
"""

from __future__ import annotations

import gzip
import struct
import zlib

import numpy as np

from .classify import LinearSvmModel, WpcaCosineModel, WpcaModel
from .types import (DAE, ConfigError, FilterBank, GrayImage, TrainedModel,
                    WhiteningTransform, format_config, parse_config,
                    validate_config)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MODEL_MAGIC = b"DTLNMDL4"
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

_ARRAY_DTYPES = {0: "<f8", 1: "<i8"}   # array kind byte -> stored dtype


def _array_pieces(arr) -> list:
    """An array's kind byte, rank and dims, then its little-endian data, as
    buffers to write one after the other."""
    kind = {"f": 0, "i": 1}[np.asarray(arr).dtype.kind]
    a = np.ascontiguousarray(arr, dtype=_ARRAY_DTYPES[kind])
    head = struct.pack(f"<BB{a.ndim}q", kind, a.ndim, *a.shape)
    return [head, a.reshape(-1).view(np.uint8)]


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
        dt = _ARRAY_DTYPES.get(kind)
        if dt is None:
            raise ModelFormatError(f"section {self.section}: bad array kind")
        if any(dim < 0 for dim in shape):
            raise ModelFormatError(f"section {self.section}: negative array "
                                   "dimension")
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(self.take(size * 8), dtype=dt).reshape(shape)
        return arr.astype(np.float64 if kind == 0 else np.int64)

    def arrays(self, count):
        """Every array left in the section; they must number ``count``."""
        out = []
        while self.pos < len(self.buf):
            out.append(self.array())
        if len(out) != count:
            raise ModelFormatError(f"section {self.section}: the config "
                                   f"needs {count} arrays, found {len(out)}")
        return out


def _bank_arrays(bank: FilterBank):
    return [bank.weights] if bank.biases is None else [bank.weights, bank.biases]


def _classifier_arrays(clf):
    if isinstance(clf, LinearSvmModel):
        return [clf.classes, clf.weights]
    if isinstance(clf, WpcaCosineModel):
        return [clf.wpca.mean, clf.wpca.projection, clf.train_vectors,
                clf.train_labels]
    raise TypeError(f"unknown classifier type {type(clf).__name__}")


def save_model(model: TrainedModel, path) -> None:
    sections = [_bank_arrays(model.bank1), [model.whiten1.matrix],
                _bank_arrays(model.bank2), [model.whiten2.matrix],
                _classifier_arrays(model.classifier)]
    payloads = [[format_config(model.config).encode("utf-8")]]
    payloads += [[piece for arr in arrays for piece in _array_pieces(arr)]
                 for arrays in sections]
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        for pieces in payloads:
            fh.write(struct.pack("<Q", sum(len(piece) for piece in pieces)))
            crc = 0
            for piece in pieces:
                fh.write(piece)
                crc = zlib.crc32(piece, crc)
            fh.write(struct.pack("<I", crc))


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())   # sections and arrays slice it, uncopied
    if len(blob) < len(MODEL_MAGIC):
        raise ModelFormatError("file too short to be a model")
    cur = _Cursor(blob, "magic")
    magic = cur.take(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        if magic[:7] == MODEL_MAGIC[:7]:
            raise ModelFormatError(
                f"unsupported model format version {bytes(magic[7:8]).decode(errors='replace')}")
        raise ModelFormatError("not a model file (bad magic)")

    sections = {}
    for name in _SECTIONS:
        cur.section = name
        (length,) = cur.unpack("<Q")
        payload = cur.take(length)
        (crc,) = cur.unpack("<I")
        if zlib.crc32(payload) != crc:
            raise ModelFormatError(f"section {name}: checksum mismatch")
        sections[name] = _Cursor(payload, name)
    if cur.pos != len(blob):
        raise ModelFormatError("trailing bytes after final section")

    try:
        config = parse_config(str(sections["config"].buf, "utf-8"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise ModelFormatError(f"section config: {exc}") from None
    errors = validate_config(config)
    if errors:
        raise ModelFormatError("section config: invalid config: "
                               + "; ".join(errors))
    bank_arrays = 2 if config.learner == DAE else 1   # weights[, biases]
    try:
        bank1, bank2 = (
            FilterBank(config.patch_shape(), *sections[name].arrays(bank_arrays))
            for name in ("bank1", "bank2"))
        whiten1, whiten2 = (WhiteningTransform(*sections[name].arrays(1))
                            for name in ("whiten1", "whiten2"))
        if config.classifier == "svm":
            classifier = LinearSvmModel(*sections["classifier"].arrays(2))
        else:
            mean, projection, vectors, labels = sections["classifier"].arrays(4)
            classifier = WpcaCosineModel(WpcaModel(mean, projection), vectors,
                                         labels)
        return TrainedModel(config=config, bank1=bank1, bank2=bank2,
                            whiten1=whiten1, whiten2=whiten2,
                            classifier=classifier)
    except ModelFormatError:
        raise
    except ValueError as exc:   # arrays invalid or disagreeing with the config
        raise ModelFormatError(f"invalid model: {exc}") from None


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
