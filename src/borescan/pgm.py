"""Binary PGM (P5) image files.

The one raster format the tools exchange: no compression, no metadata to
drift, and byte-identical output for identical pixels. 16-bit samples are
big-endian as the format requires.
"""

from __future__ import annotations

import numpy as np

from .errors import ImageFormatError

__all__ = ["read_pgm", "write_pgm", "write_pgm_header", "write_pgm_rows"]


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
        handle.write(np.ascontiguousarray(rows, dtype=">u2"))
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


def _tokens(data: bytes):
    """Header tokens, skipping whitespace and # comments, tracking position.

    The tokens stop where the data does, so a cut-off header reads as
    malformed.
    """
    pos = 0
    while True:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM; uint8 up to maxval 255, uint16 beyond."""
    with open(path, "rb") as handle:
        data = handle.read()
    reader = _tokens(data)
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
    # exactly one whitespace byte separates the header from the raster
    start = end + 1
    dtype = np.dtype(np.uint8) if maxval <= 255 else np.dtype(">u2")
    expected = width * height * dtype.itemsize
    available = max(len(data) - start, 0)
    if available < expected:
        raise ImageFormatError(
            f"{path}: raster truncated ({available} of {expected} bytes)"
        )
    # a read-only view of the file's bytes, copied once into a writable array
    pixels = np.frombuffer(
        data, dtype=dtype, count=width * height, offset=start
    ).reshape(height, width)
    if maxval > 255:
        return pixels.astype(np.uint16)
    return pixels.copy()
