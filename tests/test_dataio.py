import os
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

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
    import gzip
    pixels = np.full((1, 2, 2), 128, dtype=np.uint8)
    img_path, lab_path = write_idx_fixture(tmp_path, pixels, [4])
    gz_img = tmp_path / "images.idx.gz"
    gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
    images, labels = read_idx(gz_img, lab_path)
    assert labels.tolist() == [4]
    assert np.array_equal(images[0].pixels, pixels[0] / 255.0)


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


def test_model_version_error(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"DTLNMDL1"
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="version 1"):
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
    (dict(patch_k1=5), "patch shape"),
    (dict(learner="dae"), "pca bank"),
    (dict(classifier="wpca_cosine"), "LinearSvmModel"),
    (dict(l1=0), "invalid config"),
    (dict(stride_x=9), "invalid config"),
    (lambda text: text + b"future_key=1\n",
     "section config: line 25: unknown key 'future_key'"),
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


def test_rewritten_config_with_same_settings_loads(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    before = path.read_bytes()
    rewrite_config(path, tiny_model.config)
    assert path.read_bytes() == before
    assert load_model(path).config == tiny_model.config


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
