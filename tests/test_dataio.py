import gzip
import os
import re
import struct
import tracemalloc
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translayer import (Config, FilterBank, TrainedModel, WhiteningTransform,
                        validate_config)
from translayer.classify import LinearSvmModel, WpcaCosineModel
from translayer.dataio import (DataFormatError, ModelFormatError, dump_map_pgm,
                               load_model, read_amat, read_idx, save_model)
from translayer.experiment import (extract_features, predict_features,
                                   train_model)
from translayer.types import format_config

from conftest import tiny_config


def write_idx_fixture(tmp_path, pixels, labels):
    """Test-local serializer; doubles as the format oracle."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(pixels.tobytes())
    lab_path = tmp_path / "labels.idx"
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return img_path, lab_path


def test_idx_roundtrip(tmp_path):
    gen = np.random.default_rng(0)
    pixels = gen.integers(0, 256, size=(2, 5, 4)).astype(np.uint8)
    img_path, lab_path = write_idx_fixture(tmp_path, pixels, [3, 7])
    images, labels = read_idx(img_path, lab_path)
    assert labels.tolist() == [3, 7]
    for img, raw in zip(images, pixels):
        assert np.array_equal(img.pixels, raw / 255.0)
    # exactness: re-serialize what was parsed and compare bytes
    again = np.stack([np.round(i.pixels * 255).astype(np.uint8) for i in images])
    re_img, re_lab = write_idx_fixture(tmp_path / "..", again, labels.tolist())
    for again_path, path in ((re_img, img_path), (re_lab, lab_path)):
        with open(again_path, "rb") as again_fh, open(path, "rb") as fh:
            assert again_fh.read() == fh.read()


def test_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    img_path, _ = write_idx_fixture(tmp_path, pixels, [0, 1])
    lab_path = tmp_path / "short.idx"
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, 1))
        fh.write(bytes([0]))
    with pytest.raises(DataFormatError, match="mismatch"):
        read_idx(img_path, lab_path)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
        fh.write(bytes(4))
    with pytest.raises(DataFormatError, match="magic"):
        read_idx(path, path)


def test_idx_truncated(tmp_path):
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    img_path, lab_path = write_idx_fixture(tmp_path, pixels, [0, 1])
    img_path.write_bytes(img_path.read_bytes()[:-5])
    with pytest.raises(DataFormatError, match="truncated"):
        read_idx(img_path, lab_path)


@pytest.mark.parametrize("gzipped", [False, True])
def test_idx_header_beyond_memory_fails_as_truncated(tmp_path, gzipped):
    # 2**31 images of 255 x 255 pixels claim 1.4e14 bytes; the file holds
    # 1000 of them, and no read may ask for the claimed count at once
    blob = struct.pack(">IIII", 0x00000803, 2**31, 255, 255) + bytes(1000)
    path = tmp_path / "images.idx"
    path.write_bytes(gzip.compress(blob) if gzipped else blob)
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError,
                           match="truncated file while reading image pixels"):
            read_idx(path, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_idx_images_are_views_of_one_float_copy(tmp_path):
    # a second float copy, one per image, would double the peak
    pixels = np.random.default_rng(6).integers(0, 256, size=(3000, 28, 28),
                                               dtype=np.uint8)
    paths = write_idx_fixture(tmp_path, pixels, [0] * 3000)
    tracemalloc.start()
    try:
        images, _ = read_idx(*paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.stack([img.pixels for img in images]),
                          pixels / 255.0)
    assert peak < 1.3 * pixels.size * 8


def test_idx_full_mnist_if_available():
    root = os.environ.get("TRANSLAYER_DATA_DIR")
    candidates = []
    if root:
        for sub in ("", "mnist"):
            for suffix in ("", ".gz"):
                candidates.append((
                    os.path.join(root, sub, f"train-images-idx3-ubyte{suffix}"),
                    os.path.join(root, sub, f"train-labels-idx1-ubyte{suffix}")))
    found = [(i, l) for i, l in candidates
             if os.path.isfile(i) and os.path.isfile(l)]
    if not found:
        pytest.skip("full MNIST IDX files not present under TRANSLAYER_DATA_DIR")
    images, labels = read_idx(*found[0])
    assert len(images) == 60000
    assert labels.shape == (60000,)
    assert all(img.pixels.shape == (28, 28) for img in images[:100])


def test_idx_gzip_transparent(tmp_path):
    pixels = np.full((1, 2, 2), 128, dtype=np.uint8)
    img_path, lab_path = write_idx_fixture(tmp_path, pixels, [4])
    gz_img = tmp_path / "images.idx.gz"
    gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
    images, labels = read_idx(gz_img, lab_path)
    assert labels.tolist() == [4]
    assert np.array_equal(images[0].pixels, pixels[0] / 255.0)


IDX_PIXELS = np.random.default_rng(5).integers(0, 256, size=(3, 4, 5),
                                                dtype=np.uint8)
IDX_LABELS = [3, 1, 4]


def gzip_idx_files(tmp_path):
    """The IDX fixture of IDX_PIXELS and IDX_LABELS, both files gzipped."""
    paths = write_idx_fixture(tmp_path, IDX_PIXELS, IDX_LABELS)
    for path in paths:
        path.write_bytes(gzip.compress(path.read_bytes(), mtime=0))
    return paths


def assert_fails_cleanly_or_loads_equal(img_path, lab_path, faulty_path):
    """read_idx raises a DataFormatError that names ``faulty_path``, with no
    warning, or loads the images and labels the fixture wrote."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            images, labels = read_idx(img_path, lab_path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{faulty_path}: "), str(exc)
            return
    assert labels.tolist() == IDX_LABELS
    assert np.array_equal(np.stack([image.pixels for image in images]),
                          IDX_PIXELS / 255.0)


def test_idx_gzip_every_bit_flip_fails_cleanly_or_loads_equal(tmp_path):
    # gzip checks a stream's CRC32 and size only when read to its end
    img_path, lab_path = gzip_idx_files(tmp_path)
    blob = img_path.read_bytes()
    for at in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[at] ^= 1 << bit
            img_path.write_bytes(flipped)
            assert_fails_cleanly_or_loads_equal(img_path, lab_path, img_path)


def _cut_deflate(blob):
    return blob[:len(blob) // 2]


def _bad_block_type(blob):
    # the first deflate block after the 10-byte header: final, reserved type
    return blob[:10] + b"\xff" + blob[11:]


def _bad_method(blob):
    return blob[:2] + b"\x07" + blob[3:]


def _bad_crc(blob):
    return blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:]


def _other_member(blob):
    return blob + gzip.compress(b"\x00", mtime=0)


@pytest.mark.parametrize("fault,raised_before", [
    (_cut_deflate, "EOFError"), (_bad_block_type, "zlib.error"),
    (_bad_method, "BadGzipFile"), (_bad_crc, "nothing"),
    (_other_member, "nothing")])
@pytest.mark.parametrize("which", ["images", "labels"])
def test_idx_gzip_faults_are_data_format_errors_naming_the_file(
        tmp_path, fault, raised_before, which):
    paths = dict(zip(["images", "labels"], gzip_idx_files(tmp_path)))
    path = paths[which]
    path.write_bytes(fault(path.read_bytes()))
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: "):
        read_idx(paths["images"], paths["labels"])


@pytest.mark.parametrize("fault,message", [
    (lambda blob: b"\xde\xad" + blob[2:], "bad image magic"),
    (lambda blob: blob[:-1], "truncated file while reading image pixels"),
    (lambda blob: blob + b"\x00", "trailing bytes after the image pixels"),
])
def test_idx_plain_faults_name_the_file(tmp_path, fault, message):
    img_path, lab_path = write_idx_fixture(tmp_path, IDX_PIXELS, IDX_LABELS)
    img_path.write_bytes(fault(img_path.read_bytes()))
    with pytest.raises(DataFormatError,
                       match=f"^{re.escape(str(img_path))}: {message}"):
        read_idx(img_path, lab_path)


def test_idx_count_mismatch_names_the_label_file(tmp_path):
    img_path, _ = write_idx_fixture(tmp_path, IDX_PIXELS, IDX_LABELS)
    _, lab_path = write_idx_fixture(tmp_path / "..", IDX_PIXELS[:1], [3])
    with pytest.raises(DataFormatError,
                       match=f"^{re.escape(str(lab_path))}: count mismatch"):
        read_idx(img_path, lab_path)


def test_idx_unreadable_path_keeps_its_os_error(tmp_path):
    # only malformed content becomes a DataFormatError
    with pytest.raises(IsADirectoryError):
        read_idx(tmp_path, tmp_path)


@pytest.mark.parametrize("gzipped", [False, True])
@pytest.mark.parametrize("which", ["images", "labels"])
@given(data=st.data())
def test_mutated_idx_file_fails_cleanly_or_loads_equal(tmp_path_factory,
                                                       gzipped, which, data):
    # a gzip file may take any byte flip, a plain one a flip in its header
    # (it has no checksum, so a flipped pixel is a valid file); either may be
    # cut short or gain bytes at its end
    tmp_path = tmp_path_factory.mktemp("idx")
    paths = (gzip_idx_files(tmp_path) if gzipped
             else write_idx_fixture(tmp_path, IDX_PIXELS, IDX_LABELS))
    path = dict(zip(["images", "labels"], paths))[which]
    blob = path.read_bytes()
    header = 16 if which == "images" else 8
    kind = data.draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "flip":
        at = data.draw(st.integers(0, (len(blob) if gzipped else header) - 1))
        mask = data.draw(st.integers(1, 255))
        blob = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]
    elif kind == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=16))
    path.write_bytes(blob)
    assert_fails_cleanly_or_loads_equal(*paths, path)


def amat_line(pixels, label):
    return " ".join(f"{v:g}" for v in pixels) + f" {label:g}"


def test_amat_roundtrip(tmp_path):
    gen = np.random.default_rng(1)
    rows = np.round(gen.random((3, 784)), 4)
    labels = [0, 9, 4]
    text = "\n".join(amat_line(r, l) for r, l in zip(rows, labels)) + "\n"
    path = tmp_path / "data.amat"
    path.write_text(text)
    images, got = read_amat(path)
    assert got.tolist() == labels
    for img, r in zip(images, rows):
        assert np.array_equal(img.pixels.ravel(), r)
    # exactness: regenerate the file from what was parsed
    again = "\n".join(amat_line(i.pixels.ravel(), l)
                      for i, l in zip(images, got)) + "\n"
    assert again == text


def test_amat_wrong_field_count(tmp_path):
    path = tmp_path / "short.amat"
    path.write_text(" ".join(["0"] * 784) + "\n")
    with pytest.raises(DataFormatError):
        read_amat(path)


def test_amat_non_numeric(tmp_path):
    path = tmp_path / "alpha.amat"
    path.write_text(" ".join(["0"] * 784) + " x\n")
    with pytest.raises(DataFormatError):
        read_amat(path)


def test_amat_non_integer_label(tmp_path):
    path = tmp_path / "fraction.amat"
    path.write_text(" ".join(["0"] * 784) + " 2.5\n")
    with pytest.raises(DataFormatError, match="non-integer"):
        read_amat(path)


@pytest.mark.parametrize("field,value,fault", [
    (0, "1.5", "pixel outside [0, 1]"),
    (783, "-0.25", "pixel outside [0, 1]"),
    (5, "nan", "pixel outside [0, 1]"),
    (784, "1e30", "label not in the int64 range"),
    (784, "nan", "label not in the int64 range"),
    (784, "-inf", "label not in the int64 range"),
    (784, "9223372036854775808", "label not in the int64 range"),
    (784, "2.5", "non-integer label value"),
])
def test_amat_bad_value_names_file_and_row(tmp_path, field, value, fault):
    # a blank line and a comment are not data rows; the error counts rows
    fields = ["0"] * 784 + ["3"]
    bad = fields.copy()
    bad[field] = value
    path = tmp_path / "bad.amat"
    path.write_text("\n".join([" ".join(fields), "", "# note",
                                " ".join(bad)]) + "\n")
    with pytest.raises(DataFormatError,
                       match=re.escape(f"{path}: row 2: {fault}") + "$"):
        read_amat(path)


def test_amat_label_at_the_int64_limit_is_kept(tmp_path):
    path = tmp_path / "low.amat"
    path.write_text(" ".join(["0"] * 784) + " -9223372036854775808\n")
    assert read_amat(path)[1].tolist() == [-2**63]


AMAT_PIXELS = np.random.default_rng(6).choice([0.0, 0.125, 0.5, 0.75, 1.0],
                                              size=(3, 784))
AMAT_LABELS = [3, 1, 4]
# a byte that no number, separator or comment of the format holds, so that
# writing it anywhere must fail a read: a digit, '.' or 'e' could make
# another valid number, and '#' or whitespace (fields are split at any
# Unicode whitespace) another valid line
AMAT_FOREIGN = [b for b in range(256)
                if chr(b) not in "0123456789.eE#" and not chr(b).isspace()]


@given(data=st.data())
def test_mutated_amat_file_fails_cleanly_or_loads_equal(tmp_path_factory,
                                                        data):
    # every mutation but an append leaves a row with a foreign byte or with
    # other than 785 fields; an append may add blank or comment lines
    path = tmp_path_factory.mktemp("amat") / "data.amat"
    rows = [amat_line(p, l).split(" ")
            for p, l in zip(AMAT_PIXELS, AMAT_LABELS)]
    r = data.draw(st.integers(0, len(rows) - 1))
    kind = data.draw(st.sampled_from(["flip", "drop", "add", "cut", "append"]))
    if kind == "drop":
        del rows[r][data.draw(st.integers(0, 784))]
    elif kind == "add":
        rows[r].insert(data.draw(st.integers(0, 785)),
                       data.draw(st.sampled_from(["0", "1", "0.5", "7"])))
    blob = "".join(" ".join(row) + "\n" for row in rows).encode()
    if kind == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        blob = (blob[:at] + bytes([data.draw(st.sampled_from(AMAT_FOREIGN))])
                + blob[at + 1:])
    elif kind == "cut":
        lines = blob.split(b"\n")
        lines[r] = lines[r][:data.draw(st.integers(1, len(lines[r]) - 1))]
        blob = b"\n".join(lines)
    elif kind == "append":
        blob += data.draw(st.binary(min_size=1, max_size=16))
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            images, labels = read_amat(path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
    assert labels.tolist() == AMAT_LABELS
    assert np.array_equal(np.stack([image.pixels.ravel() for image in images]),
                          AMAT_PIXELS)


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0)])
def test_idx_zero_sided_images_name_the_file(tmp_path, rows, cols):
    img_path, lab_path = write_idx_fixture(
        tmp_path, np.zeros((2, rows, cols), dtype=np.uint8), [0, 1])
    with pytest.raises(DataFormatError,
                       match=f"^{re.escape(str(img_path))}: images of "
                             f"{rows} x {cols} pixels$"):
        read_idx(img_path, lab_path)


# --- model container ------------------------------------------------------

def assert_roundtrip(tmp_path, model, images):
    path_a = tmp_path / "model.bin"
    path_b = tmp_path / "model2.bin"
    save_model(model, path_a)
    loaded = load_model(path_a)
    save_model(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    feats = extract_features(model, images)
    feats2 = extract_features(loaded, images)
    assert (feats != feats2).nnz == 0
    assert np.array_equal(predict_features(model, feats),
                          predict_features(loaded, feats2))


def test_model_roundtrip_bytes_and_predictions(tmp_path, tiny_model, glyph_test):
    assert_roundtrip(tmp_path, tiny_model, glyph_test[0][:10])


def test_wpca_sqrt_model_roundtrip_bytes_and_predictions(tmp_path, glyph_train,
                                                         glyph_test):
    # the square-root flag is read from the stored config
    images, labels = glyph_train
    cfg = tiny_config(classifier="wpca_cosine", wpca_dim=20, wpca_sqrt=True)
    model = train_model(cfg, images[:30], labels[:30])
    assert_roundtrip(tmp_path, model, glyph_test[0][:10])


def section_payloads(blob):
    """The payload of each section of a model file, in file order."""
    pos, payloads = 8, []
    while pos < len(blob):
        (length,) = struct.unpack_from("<Q", blob, pos)
        payloads.append(blob[pos + 8:pos + 8 + length])
        pos += 8 + length + 4
    return payloads


def model_file(payloads):
    """A model file of these payloads, each framed with its own length and
    CRC32, so that only the payload's contents can be at fault."""
    return b"DTLNMDL4" + b"".join(
        struct.pack("<Q", len(p)) + p + struct.pack("<I", zlib.crc32(p))
        for p in payloads)


def array_fields(payload):
    """``(offset, kind, shape)`` of each array of a section after the config,
    read by a test-local reader that doubles as the format oracle: each
    array is a kind byte (0 float64, 1 int64), ndim, the int64 shape and
    the data, and a section holds nothing else."""
    at = 0
    while at < len(payload):
        kind, ndim = struct.unpack_from("<BB", payload, at)
        shape = struct.unpack_from(f"<{ndim}q", payload, at + 2)
        yield at, kind, shape
        at += 2 + 8 * ndim + 8 * int(np.prod(shape))


def section_arrays(path):
    """Arrays of each section after the config, as :func:`array_fields`
    reads them."""
    return [[np.frombuffer(payload, ("<f8", "<i8")[kind], int(np.prod(shape)),
                           at + 2 + 8 * len(shape)).reshape(shape)
             for at, kind, shape in array_fields(payload)]
            for payload in section_payloads(path.read_bytes())[1:]]


def test_sections_after_the_config_hold_only_arrays(tmp_path, tiny_model,
                                                    glyph_train):
    images, labels = glyph_train
    dae = train_model(tiny_config(learner="dae", dae_epochs=2,
                                  classifier="wpca_cosine", wpca_dim=5),
                      images[:20], labels[:20])
    svm, wpca = tiny_model.classifier, dae.classifier
    for model, banks, classifier in (
            (tiny_model, [[m.weights] for m in (tiny_model.bank1, tiny_model.bank2)],
             [svm.classes, svm.weights]),
            (dae, [[m.weights, m.biases] for m in (dae.bank1, dae.bank2)],
             [wpca.mean, wpca.projection, wpca.train_vectors,
              wpca.train_labels])):
        path = tmp_path / "model.bin"
        save_model(model, path)
        expected = [banks[0], [model.whiten1.matrix], banks[1],
                    [model.whiten2.matrix], classifier]
        got = section_arrays(path)
        assert [len(arrays) for arrays in got] == [len(e) for e in expected]
        for arrays, want in zip(got, expected):
            for a, b in zip(arrays, want):
                assert np.array_equal(a, b)
        # the pca spectrum is logged at fit time, not stored
        assert load_model(path).bank1.spectrum is None


def test_model_corrupt_byte_names_section(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    blob = bytearray(path.read_bytes())
    # walk the container to find the bank1 section (second section)
    pos = 8
    (length,) = struct.unpack_from("<Q", blob, pos)
    pos += 8 + length + 4  # skip config
    (length,) = struct.unpack_from("<Q", blob, pos)
    target = pos + 8 + length // 2
    blob[target] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="bank1"):
        load_model(path)


def test_overflowing_pca_bank_fails_to_load_without_a_warning(tmp_path,
                                                              tiny_model):
    # a bank is checked when the model is read back, not when it is saved
    bank = replace(tiny_model.bank1)
    weights = bank.weights.copy()
    weights[0, 0] = 1e308
    object.__setattr__(bank, "weights", weights)
    path = tmp_path / "model.bin"
    save_model(replace(tiny_model, bank1=bank), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelFormatError, match="not orthonormal"):
            load_model(path)


def test_overflowing_whitening_fails_to_load_without_a_warning(tmp_path,
                                                              tiny_model):
    whiten = replace(tiny_model.whiten1)
    matrix = whiten.matrix.copy()
    matrix[0, 1], matrix[1, 0] = 1e308, -1e308
    object.__setattr__(whiten, "matrix", matrix)
    path = tmp_path / "model.bin"
    save_model(replace(tiny_model, whiten1=whiten), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelFormatError, match="must be symmetric"):
            load_model(path)


def test_model_version_error(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"DTLNMDL3"
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError,
                       match="unsupported model format version 3"):
        load_model(path)


def rewrite_config(path, config, edit=None):
    """Replace the config section of a saved model, with a valid checksum.

    ``edit``, if given, rewrites the section's bytes before they are stored.
    """
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<Q", blob, 8)
    payload = format_config(config).encode("utf-8")
    if edit is not None:
        payload = edit(payload)
    path.write_bytes(blob[:8] + struct.pack("<Q", len(payload)) + payload
                     + struct.pack("<I", zlib.crc32(payload))
                     + blob[8 + 8 + length + 4:])


@pytest.mark.parametrize("change, message", [
    (dict(l1=8), "bank1 has 4 filters"),
    (dict(l2=3), "bank2 has 4 filters"),
    (dict(patch_k1=5), r"invalid model: weights must be \(L, k1\*k2\)"),
    (dict(learner="dae"), "section bank1: the config needs 2 arrays, found 1"),
    (dict(classifier="wpca_cosine"),
     "section classifier: the config needs 4 arrays, found 2"),
    (dict(l1=0), "invalid config"),
    (dict(stride_x=9), "invalid config"),
    (lambda text: text + b"future_key=1\n",
     "section config: line 24: unknown key 'future_key'"),
    (lambda text: text.replace(b"\nl1=4\n", b"\nl1=four\n"),
     "section config: l1: "),
    (lambda text: text + b"# \xff\n", "section config: 'utf-8' codec"),
], ids=["l1", "l2", "patch", "learner", "classifier", "l1-range", "stride",
        "unknown-key", "l1-not-int", "not-utf8"])
def test_config_disagreeing_with_model_rejected(tmp_path, tiny_model,
                                                change, message):
    """``change`` is a dict of config overrides or an edit of the raw
    section bytes."""
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    if callable(change):
        rewrite_config(path, tiny_model.config, edit=change)
    else:
        rewrite_config(path, replace(tiny_model.config, **change))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("change, rejected", [
    (dict(lcn_c=10), False), (dict(lcn_c=np.float64(10.0)), False),
    (dict(lcn=1), True), (dict(l1=4.0), True), (dict(seed=1.5), True),
    (dict(l1="4"), True), (dict(svm_c=True), True),
], ids=["int-float", "numpy-float", "int-bool", "float-int", "float-seed",
        "str-int", "bool-float"])
def test_setting_of_another_type_named_or_reloaded_equal(tmp_path, tiny_model,
                                                         change, rejected):
    config = replace(tiny_model.config, **change)
    errors = validate_config(config)
    if rejected:
        assert [e.split()[0] for e in errors] == list(change)
        return
    assert errors == []
    path = tmp_path / "model.bin"
    save_model(replace(tiny_model, config=config), path)
    loaded = load_model(path).config
    assert loaded == config
    assert format_config(loaded) == format_config(config)


def test_bad_config_reported_before_a_later_checksum_mismatch(tmp_path,
                                                            tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    rewrite_config(path, replace(tiny_model.config, l1=0))
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # the classifier's checksum, the file's last bytes
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="section config: invalid config"):
        load_model(path)


def test_bank_disagreeing_with_config_reported_before_a_truncated_file(
        tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    rewrite_config(path, replace(tiny_model.config, learner="dae"))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ModelFormatError, match="section bank1: the config "
                       "needs 2 arrays, found 1"):
        load_model(path)


def test_rewritten_config_with_same_settings_loads(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    before = path.read_bytes()
    rewrite_config(path, tiny_model.config)
    assert path.read_bytes() == before
    assert load_model(path).config == tiny_model.config


def rewrite_classifier(path, edit):
    """Replace the classifier section, the last one, of a saved model by
    ``edit`` of its arrays, packed as :func:`section_arrays` reads them and
    with a valid checksum."""
    payload = b""
    for arr in edit(section_arrays(path)[-1]):
        kind = 0 if arr.dtype.kind == "f" else 1
        payload += (struct.pack("<BB", kind, arr.ndim)
                    + struct.pack(f"<{arr.ndim}q", *arr.shape)
                    + arr.astype(("<f8", "<i8")[kind]).tobytes())
    path.write_bytes(model_file(section_payloads(path.read_bytes())[:-1]
                                + [payload]))


def test_rewritten_classifier_with_same_arrays_loads(tmp_path, tiny_model,
                                                     tiny_wpca_model):
    for model in (tiny_model, tiny_wpca_model):
        path = tmp_path / "model.bin"
        save_model(model, path)
        before = path.read_bytes()
        rewrite_classifier(path, lambda arrays: arrays)
        assert path.read_bytes() == before
        load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda c: [c[0], c[1][:-1]], r"\[0 1 2 3 4 5 6 7 8 9\] .* \(9, 5120\)"),
    (lambda c: [c[0][:-1], c[1]], r"\[0 1 2 3 4 5 6 7 8\] .* \(10, 5120\)"),
    (lambda c: [c[0][::-1], c[1]], r"\[9 8 7 6 5 4 3 2 1 0\]"),
    (lambda c: [np.sort(np.r_[c[0][:-1], c[0][:1]]), c[1]],
     r"\[0 0 1 2 3 4 5 6 7 8\]"),
    (lambda c: [c[0][None], c[1]], r"\[\[0 1 2 3 4 5 6 7 8 9\]\]"),
], ids=["fewer-rows", "more-rows", "reversed", "duplicate", "2-d-classes"])
def test_svm_arrays_disagreeing_with_each_other_rejected(tmp_path, tiny_model,
                                                         edit, message):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    rewrite_classifier(path, edit)
    with pytest.raises(ModelFormatError,
                       match="invalid model: svm needs .* got classes " + message):
        load_model(path)


@pytest.mark.parametrize("edit, got", [
    (lambda c: [c[0], c[1], c[2], c[3][:-5]], "(5120,), (5, 5120), (20, 5), (15,)"),
    (lambda c: [c[0], c[1], c[2][:, :-1], c[3]], "(5120,), (5, 5120), (20, 4), (20,)"),
    (lambda c: [c[0][:-1], c[1], c[2], c[3]], "(5119,), (5, 5120), (20, 5), (20,)"),
    (lambda c: [c[0], c[1][0], c[2], c[3]], "(5120,), (5120,), (20, 5), (20,)"),
    (lambda c: [c[0], c[1], c[2], c[3][:, None]], "(5120,), (5, 5120), (20, 5), (20, 1)"),
], ids=["fewer-labels", "narrow-vectors", "short-mean", "1-d-projection",
        "2-d-labels"])
def test_wpca_arrays_disagreeing_with_each_other_rejected(
        tmp_path, tiny_wpca_model, edit, got):
    path = tmp_path / "model.bin"
    save_model(tiny_wpca_model, path)
    rewrite_classifier(path, edit)
    with pytest.raises(ModelFormatError, match=r"invalid model: wpca_cosine "
                       r"needs .* got " + re.escape(got) + "$"):
        load_model(path)


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("model_name", ["tiny_model", "tiny_wpca_model"])
def test_classifier_no_trainer_makes_rejected(request, tmp_path, model_name,
                                              count):
    # an svm of fewer than two classes, or a wpca_cosine model of fewer
    # than two training vectors, fails when loaded, not at evaluation
    path = tmp_path / "model.bin"
    save_model(request.getfixturevalue(model_name), path)
    if model_name == "tiny_model":
        rewrite_classifier(path, lambda c: [c[0][:count], c[1][:count]])
    else:
        rewrite_classifier(path, lambda c: [c[0], c[1], c[2][:count],
                                            c[3][:count]])
    with pytest.raises(ModelFormatError, match="invalid model: (svm|wpca_cosine) "
                       "needs (two or more|.* with n >= 2)"):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("model_name, array", [
    ("tiny_model", 1), ("tiny_wpca_model", 0), ("tiny_wpca_model", 1),
    ("tiny_wpca_model", 2)], ids=["svm-weights", "wpca-mean",
                                  "wpca-projection", "wpca-train-vectors"])
def test_non_finite_classifier_array_rejected(request, tmp_path, model_name,
                                              array, value):
    # a NaN in one svm weight makes argmax pick its class wherever the
    # feature is nonzero; the model must not load at all
    path = tmp_path / "model.bin"
    save_model(request.getfixturevalue(model_name), path)

    def poison(arrays):
        arrays = [a.copy() for a in arrays]
        arrays[array].flat[0] = value
        return arrays

    rewrite_classifier(path, poison)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelFormatError,
                           match="invalid model: .* holds a non-finite value"):
            load_model(path)


def test_loaded_svm_weights_are_fortran_ordered(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    weights = load_model(path).classifier.weights
    assert weights.flags.f_contiguous and weights.shape[0] > 1
    assert np.array_equal(weights, tiny_model.classifier.weights)


def test_saving_fortran_ordered_weights_copies_one_row_at_a_time(tmp_path,
                                                                 tiny_model):
    weights = tiny_model.classifier.weights
    assert weights.flags.f_contiguous and not weights.flags.c_contiguous
    tracemalloc.start()
    try:
        save_model(tiny_model, tmp_path / "model.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weights.nbytes // 2


def test_loaded_arrays_own_their_data(tmp_path, tiny_wpca_model):
    # each array is copied out of the file's bytes, which are then freed
    path = tmp_path / "model.bin"
    save_model(tiny_wpca_model, path)
    model = load_model(path)
    clf = model.classifier
    for arr in (model.bank1.weights, model.whiten1.matrix, model.bank2.weights,
                model.whiten2.matrix, clf.mean, clf.projection,
                clf.train_vectors, clf.train_labels):
        assert arr.flags.owndata and arr.flags.writeable


def test_negative_array_dimension_rejected(tmp_path, tiny_model):
    # a (-1,) array followed by the section's own bytes: a negative length
    # would move the reader back to re-read them
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    blob = path.read_bytes()
    pos = 8
    for _ in range(5):
        (length,) = struct.unpack_from("<Q", blob, pos)
        pos += 8 + length + 4
    payload = struct.pack("<BBq", 0, 1, -1) + blob[pos + 8:-4]
    path.write_bytes(blob[:pos] + struct.pack("<Q", len(payload)) + payload
                     + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(ModelFormatError,
                       match="section classifier: negative array dimension"):
        load_model(path)


def classifier_offset(blob):
    """Where the classifier section, the last one, starts in a model file."""
    pos = 8
    for _ in range(5):
        (length,) = struct.unpack_from("<Q", blob, pos)
        pos += 8 + length + 4
    return pos


def _corrupt_header(blob, pos):
    """Models whose classifier section, at ``pos``, declares more bytes than
    the file holds, each with a valid checksum wherever one is computed."""
    weights = blob[pos + 8:-4]
    for head in (struct.pack("<BBq", 0, 1, 2**60),           # one huge dim
                 struct.pack("<BB3q", 0, 3, 2**32, 2**32, 2**32)):  # > 2**63
        payload = head + weights
        yield (blob[:pos] + struct.pack("<Q", len(payload)) + payload
               + struct.pack("<I", zlib.crc32(payload)))
    yield blob[:pos] + struct.pack("<Q", 2**62) + blob[pos + 8:]   # length
    yield blob[:pos + 8 + len(weights) // 2]          # file cut mid-array


def test_corrupt_header_fails_before_allocating(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    blob = path.read_bytes()
    for corrupt in _corrupt_header(blob, classifier_offset(blob)):
        path.write_bytes(corrupt)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ModelFormatError,
                                   match="section classifier: truncated payload"):
                    load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(blob) // 2


def test_array_of_too_many_dimensions_rejected(tmp_path, tiny_model):
    # 65 dimensions of 1 fit the section, but numpy holds at most 64
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    blob = path.read_bytes()
    pos = classifier_offset(blob)
    payload = struct.pack("<BB65q", 0, 65, *[1] * 65) + bytes(8)
    path.write_bytes(blob[:pos] + struct.pack("<Q", len(payload)) + payload
                     + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(ModelFormatError, match="invalid model: .*dimension"):
        load_model(path)


def test_model_unknown_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAMODELXXXX")
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_model_truncation(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ModelFormatError, match="truncated|checksum"):
        load_model(path)


# --- pgm dumps ------------------------------------------------------------

def read_pgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    w, h = (int(t) for t in dims.split())
    assert magic == b"P5" and maxval == b"255"
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


def test_pgm_constant_float_map(tmp_path):
    path = tmp_path / "c.pgm"
    dump_map_pgm(np.full((3, 4), 2.5), path)
    assert (read_pgm(path) == 128).all()


def test_pgm_minmax_scaling(tmp_path):
    path = tmp_path / "mm.pgm"
    dump_map_pgm(np.array([[0.0], [1.0]]), path)
    assert read_pgm(path).ravel().tolist() == [0, 255]


def test_pgm_code_map_identity(tmp_path):
    path = tmp_path / "code.pgm"
    codes = np.arange(256, dtype=np.uint16).reshape(16, 16)
    dump_map_pgm(codes, path)
    assert np.array_equal(read_pgm(path), codes.astype(np.uint8))


def test_pgm_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        dump_map_pgm(np.zeros((0, 3)), tmp_path / "e.pgm")


# --- loader fuzzing ----------------------------------------------------------

def hand_model(classifier):
    """A model built by hand on 3x3 patches, small enough that random edits
    often land in an array header: PCA banks with an svm, or autoencoder
    banks with wpca_cosine."""
    gen = np.random.default_rng(3)
    learner = "pca" if classifier == "svm" else "dae"
    cfg = Config(patch_k1=3, patch_k2=3, l1=2, l2=2, learner=learner,
                 classifier=classifier, wpca_dim=2)
    shape = cfg.patch_shape()

    def bank(first):
        if learner == "pca":
            return FilterBank(shape, np.eye(9)[first:first + 2])
        return FilterBank(shape, gen.normal(size=(2, 9)), gen.normal(size=2))

    if classifier == "svm":
        clf = LinearSvmModel(np.array([0, 3]), gen.normal(size=(2, 5)))
    else:
        clf = WpcaCosineModel(gen.random(5), gen.normal(size=(2, 5)),
                              gen.normal(size=(3, 2)), np.array([1, 0, 1]))
    return TrainedModel(cfg, bank(0), bank(3), WhiteningTransform(np.eye(9)),
                        WhiteningTransform(np.diag(gen.uniform(1, 2, 9))), clf)


def field_starts(payload, section):
    """Offsets in a payload where a field starts: in the config text each
    line and each value, in other sections each array's kind byte, rank
    byte and dimensions."""
    if section == 0:
        return [0] + [i + 1 for i, byte in enumerate(payload) if byte in b"=\n"]
    return [at + k for at, _, shape in array_fields(payload)
            for k in [0, 1] + [2 + 8 * dim for dim in range(len(shape))]]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("classifier", ["svm", "wpca_cosine"])
@pytest.mark.parametrize("section", range(6))
@settings(max_examples=max(60, settings.default.max_examples))
@given(data=st.data())
def test_mutated_section_fails_cleanly_or_reloads_exactly(fuzz_dir, classifier,
                                                          section, data):
    # each case replaces a run of up to 16 payload bytes, often at the
    # start of a field, with up to 16 others (an overwrite, a deletion or
    # an insertion) and re-frames the section: the loader must reject it
    # with a ModelFormatError and no warning, or load a model whose arrays
    # are finite and that saves to the same bytes
    path = fuzz_dir / f"{classifier}.bin"
    save_model(hand_model(classifier), path)
    payloads = section_payloads(path.read_bytes())
    payload = payloads[section]
    start = data.draw(st.integers(0, len(payload))
                      | st.sampled_from(field_starts(payload, section)))
    stop = data.draw(st.integers(start, min(start + 16, len(payload))))
    new = data.draw(st.binary(max_size=16)
                    | st.sampled_from([b"\x01", b"\x02", b" ", b"#", b"0"]))
    payloads[section] = payload[:start] + new + payload[stop:]
    blob = model_file(payloads)
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = load_model(path)
        except ModelFormatError:
            return
    save_model(model, path)
    assert path.read_bytes() == blob
    for arrays in section_arrays(path):
        for arr in arrays:
            assert np.isfinite(arr).all()
