"""Binary PGM reader/writer."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from borescan.errors import ImageFormatError
from borescan.pgm import read_pgm, write_pgm, write_pgm_header, write_pgm_rows


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


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_header_and_row_bands_give_the_same_file(tmp_path, dtype):
    rng = np.random.default_rng(2)
    pixels = rng.integers(0, np.iinfo(dtype).max, size=(23, 11), dtype=dtype)
    whole, banded = tmp_path / "whole.pgm", tmp_path / "banded.pgm"
    write_pgm(whole, pixels)
    with open(banded, "wb") as handle:
        write_pgm_header(handle, 23, 11, dtype)
        for lo, hi in [(0, 1), (1, 9), (9, 22), (22, 23)]:
            write_pgm_rows(handle, pixels[lo:hi])
    assert banded.read_bytes() == whole.read_bytes()


def test_comments_in_header_are_skipped(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n# maxval next\n255\n\x07\x09")
    assert read_pgm(path).tolist() == [[7, 9]]


def test_a_long_header_comment_is_skipped(tmp_path):
    path = tmp_path / "long.pgm"
    comment = b"#" + b" a\tlong\rcomment" * 10_000 + b"\n"
    path.write_bytes(b"P5\n" + comment + b"2 1\n" + comment + b"255\n\x07\x09")
    assert read_pgm(path).tolist() == [[7, 9]]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_read_holds_the_file_once(tmp_path, dtype):
    pixels = np.full((512, 1024), 7, dtype=dtype)
    path = tmp_path / "big.pgm"
    write_pgm(path, pixels)
    tracemalloc.start()
    try:
        back = read_pgm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (back == pixels).all()
    # the file's bytes, plus for 16 bits the native-endian samples
    assert peak < path.stat().st_size * (1.1 if dtype == np.uint8 else 2.1)


def test_sixteen_bit_write_copies_no_whole_raster(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 65536, size=(512, 1024), dtype=np.uint16)
    path = tmp_path / "big16.pgm"
    tracemalloc.start()
    try:
        write_pgm(path, pixels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (read_pgm(path) == pixels).all()
    # byte-swapped in bands of about 64 KB, against 1 MB of samples
    assert peak < pixels.nbytes / 8


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_a_named_pipe_is_read_to_its_end(tmp_path, dtype):
    # a pipe reports size 0, so it cannot be read into a buffer sized by stat
    pixels = np.array([[1, 2, 3], [4, 5, 250]], dtype=dtype)
    write_pgm(tmp_path / "tile.pgm", pixels)
    pipe = tmp_path / "pipe.pgm"
    os.mkfifo(pipe)
    writer = threading.Thread(
        target=pipe.write_bytes, args=((tmp_path / "tile.pgm").read_bytes(),)
    )
    writer.start()
    try:
        back = read_pgm(pipe)
    finally:
        writer.join()
    assert back.dtype == dtype
    assert np.array_equal(back, pixels)
    back[0, 0] = 9  # writable, as from a regular file


@pytest.mark.parametrize(
    "maxval, sample_bytes", [(1, 1), (100, 1), (254, 1), (256, 2), (4095, 2), (65534, 2)]
)
def test_maxval_other_than_full_scale_is_refused(tmp_path, maxval, sample_bytes):
    # samples are read as fractions of the dtype's full scale: a 12-bit tile
    # read as 16-bit would be 16 times too dark
    path = tmp_path / "scaled.pgm"
    path.write_bytes(f"P5\n2 2\n{maxval}\n".encode() + b"\x01" * 4 * sample_bytes)
    with pytest.raises(ImageFormatError) as info:
        read_pgm(path)
    assert "scaled.pgm" in str(info.value)
    assert f"maxval {maxval};" in str(info.value)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_trailing_bytes_after_the_raster_are_ignored(tmp_path, dtype):
    pixels = np.array([[1, 2, 3], [4, 5, 250]], dtype=dtype)
    path = tmp_path / "g.pgm"
    write_pgm(path, pixels)
    path.write_bytes(path.read_bytes() + b"\x05trailer")
    back = read_pgm(path)
    assert back.dtype == dtype
    assert (back == pixels).all()


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"P5\n2 2\n255\n\x00\x00", "raster truncated (2 of 4 bytes)"),
        (b"P5\n2 2\n255 \x00", "raster truncated (1 of 4 bytes)"),
        (b"P5\n2 2\n65535\n\x00\x00\x00", "raster truncated (3 of 8 bytes)"),
        (b"P5\n2 2\n255", "raster truncated (0 of 4 bytes)"),
    ],
)
def test_truncated_raster_counts_the_bytes_after_the_header(tmp_path, payload, message):
    path = tmp_path / "short.pgm"
    path.write_bytes(payload)
    with pytest.raises(ImageFormatError) as info:
        read_pgm(path)
    assert str(info.value).endswith(message)


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
