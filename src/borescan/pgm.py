"""Binary PGM (P5) image files.

The one raster format the tools exchange: no compression, no metadata to
drift, and byte-identical output for identical pixels. 16-bit samples are
big-endian as the format requires.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .errors import ImageFormatError

__all__ = ["read_pgm", "write_pgm", "write_pgm_header", "write_pgm_rows"]

_SWAP_BYTES = 1 << 16


def _maxval(dtype) -> int:
    if dtype == np.uint8:
        return 255
    if dtype == np.uint16:
        return 65535
    raise ImageFormatError(f"unsupported dtype {dtype} for PGM")


def write_pgm_header(handle, height: int, width: int, dtype) -> None:
    """Start a PGM of ``height`` x ``width`` samples of ``dtype`` in ``handle``.

    The raster follows as bands of rows, top to bottom, from
    :func:`write_pgm_rows`.
    """
    handle.write(f"P5\n{width} {height}\n{_maxval(dtype)}\n".encode("ascii"))


def write_pgm_rows(handle, rows: np.ndarray) -> None:
    """Append a band of raster rows to a PGM begun by :func:`write_pgm_header`."""
    # written straight from a contiguous array: tobytes() would copy it first
    if rows.dtype == np.uint16:
        # big-endian copies of about 64 KB (at least a row), not of the whole band
        step = max(1, _SWAP_BYTES // max(1, rows[:1].nbytes))
        for lo in range(0, len(rows), step):
            handle.write(np.ascontiguousarray(rows[lo : lo + step], dtype=">u2"))
    else:
        handle.write(np.ascontiguousarray(rows))


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ImageFormatError("PGM rasters are 2-D")
    _maxval(pixels.dtype)  # refused before the file is made
    with open(path, "wb") as handle:
        write_pgm_header(handle, *pixels.shape, pixels.dtype)
        write_pgm_rows(handle, pixels)


# the bytes bytes.isspace() counts as whitespace
_WHITESPACE = b" \t\n\r\x0b\x0c"


def _tokens(data: memoryview):
    """Header tokens, skipping whitespace and # comments, tracking position.

    The tokens stop where the data does, so a cut-off header reads as
    malformed.
    """
    pos, size = 0, len(data)
    while True:
        while pos < size and data[pos] in _WHITESPACE:
            pos += 1
        if pos < size and data[pos] == ord("#"):
            while pos < size and data[pos] != ord("\n"):
                pos += 1
            continue
        start = pos
        while pos < size and data[pos] not in _WHITESPACE:
            pos += 1
        if start == pos:
            return
        yield bytes(data[start:pos]), pos


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM: uint8 at maxval 255, uint16 at maxval 65535.

    Any other maxval is refused, because every stage reads a sample as a
    fraction of its dtype's full scale. A regular file is read once, into
    one buffer; an 8-bit result is a writable view of its raster. A pipe
    or other stream, which reports no size, is read to its end.
    """
    with open(path, "rb") as handle:
        status = os.fstat(handle.fileno())
        if stat.S_ISREG(status.st_mode):
            data = np.empty(status.st_size, dtype=np.uint8)
            data = data[: handle.readinto(data)]
        else:
            data = np.frombuffer(bytearray(handle.read()), dtype=np.uint8)
    reader = _tokens(memoryview(data))
    try:
        magic, _ = next(reader)
        if magic != b"P5":
            raise ImageFormatError(f"{path}: not a binary PGM (magic {magic!r})")
        width_tok, _ = next(reader)
        height_tok, _ = next(reader)
        maxval_tok, end = next(reader)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except (StopIteration, ValueError) as exc:
        raise ImageFormatError(f"{path}: malformed PGM header") from exc
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise ImageFormatError(f"{path}: bad PGM dimensions {width}x{height}/{maxval}")
    if maxval not in (255, 65535):
        raise ImageFormatError(
            f"{path}: PGM maxval {maxval}; tiles are 8-bit at maxval 255 "
            "or 16-bit at maxval 65535"
        )
    # exactly one whitespace byte separates the header from the raster
    start = end + 1
    dtype = np.dtype(np.uint8) if maxval == 255 else np.dtype(">u2")
    expected = width * height * dtype.itemsize
    available = max(len(data) - start, 0)
    if available < expected:
        raise ImageFormatError(
            f"{path}: raster truncated ({available} of {expected} bytes)"
        )
    pixels = data[start : start + expected].view(dtype).reshape(height, width)
    if maxval == 65535:
        return pixels.astype(np.uint16)
    return pixels
