"""Binary PGM reader/writer."""

import numpy as np
import pytest

from borescan.errors import ImageFormatError
from borescan.pgm import read_pgm, write_pgm


def test_uint8_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
    path = tmp_path / "a.pgm"
    write_pgm(path, pixels)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    assert (back == pixels).all()


def test_uint16_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 65536, size=(21, 17), dtype=np.uint16)
    path = tmp_path / "b.pgm"
    write_pgm(path, pixels)
    back = read_pgm(path)
    assert back.dtype == np.uint16
    assert (back == pixels).all()


def test_header_layout_and_determinism(tmp_path):
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    first, second = tmp_path / "c1.pgm", tmp_path / "c2.pgm"
    write_pgm(first, pixels)
    write_pgm(second, pixels)
    data = first.read_bytes()
    assert data.startswith(b"P5\n4 3\n255\n")
    assert data == second.read_bytes()


def test_sixteen_bit_samples_are_big_endian(tmp_path):
    pixels = np.array([[0x0102]], dtype=np.uint16)
    path = tmp_path / "d.pgm"
    write_pgm(path, pixels)
    assert path.read_bytes().endswith(b"\x01\x02")


def test_comments_in_header_are_skipped(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n# maxval next\n255\n\x07\x09")
    assert read_pgm(path).tolist() == [[7, 9]]


def test_result_is_writable(tmp_path):
    path = tmp_path / "f.pgm"
    write_pgm(path, np.zeros((2, 2), dtype=np.uint8))
    back = read_pgm(path)
    back[0, 0] = 9  # must not blow up on a read-only buffer


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"P6\n2 2\n255\n" + b"\x00" * 12,
        b"P5\n2 2\n255\n\x00\x00",  # raster too short
        b"P5\n-2 2\n255\n",
        b"P5\n2 2\n",  # header cut off
        b"P5\n2 2\n70000\n" + b"\x00" * 16,  # maxval out of range
    ],
)
def test_malformed_files_raise(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    # named, so the command line can say which tile of a run is bad
    with pytest.raises(ImageFormatError, match="bad.pgm"):
        read_pgm(path)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pgm(tmp_path / "nope.pgm")


def test_write_rejects_non_gray_arrays(tmp_path):
    with pytest.raises(ImageFormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ImageFormatError):
        write_pgm(tmp_path / "y.pgm", np.zeros((2, 2, 3), dtype=np.uint8))
