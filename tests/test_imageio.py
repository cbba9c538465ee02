"""Image and mask file formats: PGM/PPM round trips, header tolerance on read,
strict raster validation, and the lossless float mask dump."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt, corruptions
from visback.imageio import (
    ImageFormatError,
    MaskFileError,
    read_mask_dump,
    read_pgm,
    read_ppm,
    write_mask_dump,
    write_pgm,
    write_ppm,
)
from visback.saliency import VisualizationMask


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
    path = tmp_path / "g.pgm"
    write_pgm(path, img)
    np.testing.assert_array_equal(read_pgm(path), img)


def test_ppm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
    path = tmp_path / "c.ppm"
    write_ppm(path, img)
    np.testing.assert_array_equal(read_ppm(path), img)


def test_written_header_is_canonical(tmp_path):
    path = tmp_path / "g.pgm"
    write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
    assert path.read_bytes().startswith(b"P5\n3 2\n255\n")
    path2 = tmp_path / "c.ppm"
    write_ppm(path2, np.zeros((2, 3, 3), dtype=np.uint8))
    assert path2.read_bytes().startswith(b"P6\n3 2\n255\n")


def test_writers_reject_wrong_dtype_or_shape(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((2, 3, 4), dtype=np.uint8))


def test_reader_accepts_comments_and_extra_whitespace(tmp_path):
    raster = bytes(range(6))
    path = tmp_path / "h.pgm"
    path.write_bytes(b"P5 # comment after magic\n  3\n# another comment\n 2\t255\n" + raster)
    img = read_pgm(path)
    np.testing.assert_array_equal(img, np.arange(6, dtype=np.uint8).reshape(2, 3))


def test_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P4\n1 1\n255\n\x00")
    with pytest.raises(ImageFormatError):
        read_pgm(path)
    # a PPM magic is not a PGM
    write_ppm(tmp_path / "c.ppm", np.zeros((1, 1, 3), dtype=np.uint8))
    with pytest.raises(ImageFormatError):
        read_pgm(tmp_path / "c.ppm")


def test_reader_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ImageFormatError):
        read_pgm(path)


def test_reader_rejects_short_and_long_raster(tmp_path):
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")
    with pytest.raises(ImageFormatError):
        read_pgm(short)
    long_ = tmp_path / "long.pgm"
    long_.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03\x04")
    with pytest.raises(ImageFormatError):
        read_pgm(long_)


def test_reader_rejects_garbage_header(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\nab cd\n255\n")
    with pytest.raises(ImageFormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n2")
    with pytest.raises(ImageFormatError):
        read_pgm(path)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_mask_dump_round_trip_preserves_bits(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    mask = VisualizationMask(data)
    path = tmp_path_factory.mktemp("msk") / "m.msk"
    write_mask_dump(path, mask)
    back = read_mask_dump(path)
    assert back.data.tobytes() == mask.data.tobytes()


def test_mask_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.msk"
    write_mask_dump(path, VisualizationMask(np.zeros((2, 2))))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(MaskFileError):
        read_mask_dump(path)


def test_mask_dump_rejects_truncation_and_padding(tmp_path):
    path = tmp_path / "m.msk"
    write_mask_dump(path, VisualizationMask(np.zeros((2, 2))))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(MaskFileError):
        read_mask_dump(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(MaskFileError):
        read_mask_dump(path)
    path.write_bytes(blob[:6])
    with pytest.raises(MaskFileError):
        read_mask_dump(path)


def test_mask_dump_rejects_out_of_range_values(tmp_path):
    import struct

    from visback.imageio import MASK_MAGIC
    path = tmp_path / "m.msk"
    for value in (2.5, np.nan, np.inf, -0.5):
        payload = np.array([[0.5, value]], dtype="<f4").tobytes()
        path.write_bytes(MASK_MAGIC + struct.pack("<II", 1, 2) + payload)
        with pytest.raises(MaskFileError):
            read_mask_dump(path)


# A damaged file reads back or raises the format's own error; nothing else
# (IndexError, struct.error, ...) may escape. Neither format has a checksum.

@given(st.data())
@settings(max_examples=200)
def test_ppm_reader_survives_one_cut_or_bit_flip(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.ppm"
    write_ppm(path, np.random.default_rng(2).integers(0, 256, (5, 7, 3), dtype=np.uint8))
    blob = path.read_bytes()
    path.write_bytes(corrupt(blob, data.draw(corruptions(len(blob)))))
    try:
        read_ppm(path)
    except ImageFormatError:
        pass


@given(st.data())
@settings(max_examples=200)
def test_mask_reader_survives_one_cut_or_bit_flip(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "m.msk"
    values = np.random.default_rng(3).uniform(0.0, 1.0, (3, 4)).astype(np.float32)
    write_mask_dump(path, VisualizationMask(values))
    blob = path.read_bytes()
    path.write_bytes(corrupt(blob, data.draw(corruptions(len(blob)))))
    try:
        read_mask_dump(path)
    except MaskFileError:
        pass
