"""Dataset readers, the model container format, and image dumps.

Models are stored in a versioned binary container: an 8-byte magic
``DTLNMDL4`` followed by six length-prefixed sections (config text,
bank1, whiten1, bank2, whiten2, classifier), each closed by a CRC32 of
its payload. The config section is the only record of the settings. Each
other section holds learned arrays and nothing else, in the layout the
config decides, stated once in :func:`_layout`, the table that both
:func:`save_model` and :func:`load_model` walk. Loading reads the file in
order, the config first, which decides what each later section must
hold, and checks a section's checksum before its arrays. All numbers are
little-endian 64-bit, so a save/load/save cycle is byte-identical.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import struct
import zlib

import numpy as np

from .classify import LinearSvmModel, WpcaCosineModel
from .types import (DAE, ConfigError, FilterBank, GrayImage, TrainedModel,
                    WhiteningTransform, format_config, parse_config,
                    validate_config)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MODEL_MAGIC = b"DTLNMDL4"
# bytes read at a time where no header's count is trusted: IDX data, and a
# model section past its bad array
_READ_CHUNK = 1 << 16


class DataFormatError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


def _read_exact(fh, count, what) -> bytearray:
    """``count`` bytes, read ``_READ_CHUNK`` at a time, so a header claiming
    more than the file holds fails as truncated, not by allocating it."""
    buf = bytearray()
    while len(buf) < count:
        piece = fh.read(min(count - len(buf), _READ_CHUNK))
        if not piece:
            raise DataFormatError(f"truncated file while reading {what}")
        buf += piece
    return buf


def _read_idx_file(path, magic, ndim, what, data_what):
    """The dimensions and the data bytes of one IDX file, plain or gzip,
    which must end where its data does."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
    try:
        with (gzip.open if gzipped else open)(path, "rb") as fh:
            found, *dims = struct.unpack(
                f">{ndim + 1}I", _read_exact(fh, 4 * ndim + 4, f"{what} header"))
            if found != magic:
                raise DataFormatError(f"bad {what} magic 0x{found:08x}")
            data = _read_exact(fh, math.prod(dims), data_what)
            # reading on to the end makes gzip check the stream's CRC32 and size
            if fh.read(1):
                raise DataFormatError(f"trailing bytes after the {data_what}")
            return dims, data
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DataFormatError(f"{path}: corrupt gzip stream: {exc}") from None


def read_idx(images_path, labels_path):
    """Parse the big-endian IDX image/label pair into images and labels."""
    (count, rows, cols), pixels = _read_idx_file(
        images_path, IDX_IMAGES_MAGIC, 3, "image", "image pixels")
    if rows == 0 or cols == 0:
        raise DataFormatError(
            f"{images_path}: images of {rows} x {cols} pixels")
    (label_count,), labels = _read_idx_file(
        labels_path, IDX_LABELS_MAGIC, 1, "label", "labels")
    if label_count != count:
        raise DataFormatError(f"{labels_path}: count mismatch: {count} images"
                              f" vs {label_count} labels")
    pixels = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows, cols)
    images = [GrayImage(img) for img in pixels / 255.0]
    return images, np.frombuffer(labels, dtype=np.uint8).astype(np.int64)


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
    pixels, raw_labels = table[:, :784], table[:, 784]
    # NaN fails every comparison; rows count data lines, as loadtxt skips
    # blank and comment lines
    for what, ok in (("pixel outside [0, 1]",
                      ((pixels >= 0) & (pixels <= 1)).all(axis=1)),
                     ("label not in the int64 range",
                      (raw_labels >= -2.0**63) & (raw_labels < 2.0**63)),
                     ("non-integer label value",
                      np.floor(raw_labels) == raw_labels)):
        if not ok.all():
            raise DataFormatError(f"{path}: row {np.argmin(ok) + 1}: {what}")
    images = [GrayImage(row.reshape(28, 28)) for row in pixels]
    return images, raw_labels.astype(np.int64)


# --- model container ---------------------------------------------------

_ARRAY_DTYPES = {0: "<f8", 1: "<i8"}   # array kind byte -> stored dtype


def _array_pieces(arr) -> list:
    """An array's kind byte, rank and dims, then its little-endian data row
    by row, as arrays to write in turn: a row is made contiguous as it is
    written, so the Fortran-ordered svm weights are never copied whole."""
    kind = {"f": 0, "i": 1}[np.asarray(arr).dtype.kind]
    a = np.asarray(arr, dtype=_ARRAY_DTYPES[kind])
    head = struct.pack(f"<BB{a.ndim}q", kind, a.ndim, *a.shape)
    return [np.frombuffer(head, np.uint8), *(a if a.ndim > 1 else [a])]


def _section(fh, name, size, kinds=None):
    """Read section ``name`` of a model file of ``size`` bytes from ``fh``:
    its length, payload and checksum, then any fault in its arrays. Every
    read is checked against the bytes the section, and the file, have left
    before anything is allocated for it, each array is read straight into
    its own buffer, and the payload is summed into its CRC32 as it is read.
    Return the config section's bytes (no ``kinds``), or another's arrays,
    which must be one per letter of ``kinds``, each of that dtype kind ("f"
    float, "i" integer)."""
    truncated = f"section {name}: truncated payload"
    head = fh.read(8)
    end = fh.tell() + int.from_bytes(head, "little")
    if len(head) < 8 or end > size:
        raise ModelFormatError(truncated)
    crc, items, error = 0, [], None

    def read(buf):
        """Fill ``buf`` from the payload, which must hold that many bytes."""
        nonlocal crc
        if fh.tell() + len(buf) > end or fh.readinto(buf) != len(buf):
            raise ModelFormatError(truncated)
        crc = zlib.crc32(buf, crc)
        return buf

    if kinds is None:
        items = read(bytearray(end - fh.tell()))
    try:
        while fh.tell() < end:
            kind, ndim = read(bytearray(2))
            shape = struct.unpack(f"<{ndim}q", read(bytearray(8 * ndim)))
            dt = _ARRAY_DTYPES.get(kind)
            if dt is None:
                raise ModelFormatError(f"section {name}: bad array kind")
            if any(dim < 0 for dim in shape):
                raise ModelFormatError(f"section {name}: negative array "
                                       "dimension")
            if fh.tell() + 8 * math.prod(shape) > end:
                raise ModelFormatError(truncated)
            arr = np.empty(shape, dtype=dt)
            read(arr.reshape(-1).view(np.uint8))
            items.append(arr.astype(np.float64 if kind == 0 else np.int64,
                                    copy=False))
    except ValueError as exc:   # a ModelFormatError, or numpy's
        error = exc
        while fh.tell() < end:      # checksum the rest
            read(bytearray(min(end - fh.tell(), _READ_CHUNK)))
    stored = fh.read(4)
    if len(stored) < 4:
        raise ModelFormatError(truncated)
    if int.from_bytes(stored, "little") != crc:
        raise ModelFormatError(f"section {name}: checksum mismatch")
    if error is not None:
        raise error
    if kinds is None:
        return items
    if len(items) != len(kinds):
        raise ModelFormatError(f"section {name}: the config needs "
                               f"{len(kinds)} arrays, found {len(items)}")
    found = "".join(arr.dtype.kind for arr in items)
    if found != kinds:
        raise ModelFormatError(f"section {name}: the config needs "
                               f"arrays of kinds {kinds}, found {found}")
    return items


def _layout(config) -> list:
    """``(section, fields, kinds, build)`` of each section after the config,
    in file order: the ``TrainedModel`` part it holds, that part's fields
    it stores, their dtype kinds ("f" float, "i" integer), and the
    callable that builds the part from them."""
    make_bank = functools.partial(FilterBank, config.patch_shape())
    bank = (("weights biases", "ff", make_bank) if config.learner == DAE else
            ("weights", "f", make_bank))
    whiten = ("matrix", "f", WhiteningTransform)
    classifier = (("classes weights", "if", LinearSvmModel)
                  if config.classifier == "svm" else
                  ("mean projection train_vectors train_labels", "fffi",
                   WpcaCosineModel))
    return [("bank1", *bank), ("whiten1", *whiten), ("bank2", *bank),
            ("whiten2", *whiten), ("classifier", *classifier)]


def save_model(model: TrainedModel, path) -> None:
    payloads = [[np.frombuffer(format_config(model.config).encode(), np.uint8)]]
    for name, fields, _, _ in _layout(model.config):
        part = getattr(model, name)
        if part is None:
            raise TypeError(f"model has no {name}")
        payloads.append([piece for field in fields.split()
                         for piece in _array_pieces(getattr(part, field))])
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        for pieces in payloads:
            fh.write(struct.pack("<Q", sum(piece.nbytes for piece in pieces)))
            crc = 0
            for piece in pieces:
                piece = np.ascontiguousarray(piece)
                fh.write(piece)
                crc = zlib.crc32(piece, crc)
            fh.write(struct.pack("<I", crc))


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MODEL_MAGIC):
            raise ModelFormatError("file too short to be a model")
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            if magic[:7] == MODEL_MAGIC[:7]:
                raise ModelFormatError(
                    f"unsupported model format version {magic[7:8].decode(errors='replace')}")
            raise ModelFormatError("not a model file (bad magic)")
        text = _section(fh, "config", size)
        try:
            config = parse_config(str(text, "utf-8"))
        except (UnicodeDecodeError, ConfigError) as exc:
            raise ModelFormatError(f"section config: {exc}") from None
        if format_config(config).encode("utf-8") != text:   # saves back exactly
            raise ModelFormatError("section config: not in canonical form")
        errors = validate_config(config)
        if errors:
            raise ModelFormatError("section config: invalid config: "
                                   + "; ".join(errors))
        try:
            # each part is built as soon as its section is read
            parts = {name: build(**dict(zip(fields.split(),
                                            _section(fh, name, size, kinds))))
                     for name, fields, kinds, build in _layout(config)}
            if fh.tell() != size:
                raise ModelFormatError("trailing bytes after final section")
            return TrainedModel(config=config, **parts)
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
