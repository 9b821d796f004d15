"""Arc-projection correction of bore-wall tiles.

A flat sensor images the curved wall, so equal pixel steps near the tile
edge cover longer arcs than at the center. The correction resamples each
row onto a grid where every pixel spans an equal arc length: with pitch
``p`` (mm/pixel) and bore radius ``r``,

    corrected column  m = (r/p) * asin(k p / r)      (flat -> arc)
    source column     k = (r/p) * sin(m p / r)       (arc -> flat)

both measured from the tile center; :func:`tile_arc_px` and
:func:`build_remap` compute them for every column of a tile. Rows are
unaffected (the cylinder is straight axially), so the remap is separable
and purely horizontal. A tile is a plain 2-D array of pixels; where it was
captured is the caller's business.

:func:`forward_project` is the exact inverse transform. It exists so that
synthetic renders and round-trip tests exercise the correction against an
independent forward model rather than against itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, DomainError
from .pgm import SAMPLE_DTYPES

__all__ = [
    "tile_arc_px",
    "bilinear_sample",
    "build_remap",
    "correct_tile",
    "forward_project",
]

# Rows per strip in add_noise and correct_tile: a strip's float64 work
# arrays (~350 KB at 695 px) stay in cache. synth.TileBuffers holds one
# strip of scratch, which a process allocates once for all its tiles:
# noise draws there, and a stamp's render resamples there in row blocks of
# as many pixels. correct_tile allocates its strips once per tile.
STRIP_ROWS = 64


def _check_tile(pixels) -> np.ndarray:
    """``pixels`` as a tile: a non-empty 2-D array of one of
    :data:`~borescan.pgm.SAMPLE_DTYPES`, whose maximum is full scale.

    Rows grow with depth from the hole bottom and columns with rotation
    angle. The pixel pitches and the bore radius belong to the rig, not to
    a tile: :func:`correct_tile` and :func:`forward_project` take them.
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.size == 0:
        raise DomainError("pixel grid must be 2-D and non-empty")
    if pixels.dtype not in SAMPLE_DTYPES:
        raise DomainError(f"unsupported dtype {pixels.dtype}; expected uint8 or uint16")
    return pixels


def bilinear_sample(pixels: np.ndarray, x: float, y: float) -> float:
    """Intensity at fractional coordinates (x, y), standard bilinear weights.

    Exact at integer coordinates. Out-of-bounds points raise; padding policy
    is the caller's business. The pipeline resamples whole rows through
    ``_resample_columns``; this scalar form is its test oracle
    (``test_correct_tile_matches_scalar_bilinear``).
    """
    height, width = pixels.shape
    if not (0.0 <= x <= width - 1) or not (0.0 <= y <= height - 1):
        raise DomainError(f"sample point ({x}, {y}) outside image {width}x{height}")
    x0 = int(math.floor(x))
    y0 = int(math.floor(y))
    x1 = min(x0 + 1, width - 1)
    y1 = min(y0 + 1, height - 1)
    fx = x - x0
    fy = y - y0
    return float(
        pixels[y0, x0] * (1 - fx) * (1 - fy)
        + pixels[y0, x1] * fx * (1 - fy)
        + pixels[y1, x0] * (1 - fx) * fy
        + pixels[y1, x1] * fx * fy
    )


def _column_offsets(width: int, radius_mm: float, pitch_um: float) -> np.ndarray:
    """The offsets of a tile's columns from its center, ``(width - 1) / 2``.

    The one check of the maps' arguments: the radius and pitch must be
    finite and positive, and the whole tile must sit inside the visible
    half-cylinder, its half-width ``(width/2) * pitch`` below the radius.
    Every offset ``k`` then has ``|k p / r| < 1``, inside the domain of
    ``asin`` and within the quarter turn on which ``sin`` inverts it.
    """
    if width < 1:
        raise ConfigError(f"width must be >= 1, got {width}")
    for name, value in (("radius", radius_mm), ("pixel pitch", pitch_um)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    pitch_mm = pitch_um * 1e-3
    if (width / 2.0) * pitch_mm >= radius_mm:
        raise ConfigError(
            f"tile width {width} px ({width * pitch_mm:.3f} mm) does not fit "
            f"the visible arc of a radius-{radius_mm} mm bore"
        )
    return np.arange(width, dtype=np.float64) - (width - 1) / 2.0


def tile_arc_px(width: int, radius_mm: float, pitch_um: float) -> np.ndarray:
    """The arc offset ``m = (r/p) asin(k p / r)``, in pixels from the tile
    center, that every flat column ``k`` of a tile ``width`` px wide images
    on the wall; ``|m| >= |k|``, with the sign of ``k``."""
    k = _column_offsets(width, radius_mm, pitch_um)
    pitch_mm = pitch_um * 1e-3
    return (radius_mm / pitch_mm) * np.arcsin(k * pitch_mm / radius_mm)


def build_remap(width: int, radius_mm: float, pitch_um: float) -> np.ndarray:
    """The source column of every corrected column of a tile ``width`` px wide.

    Entry ``i`` is the fractional flat-image column feeding corrected
    column ``i``, ``(width - 1) / 2 + (r/p) sin(m p / r)`` for the
    column's offset ``m`` from the tile center, the transform's fixed
    point. The inverse of :func:`tile_arc_px`, on the same column offsets.
    """
    m = _column_offsets(width, radius_mm, pitch_um)
    pitch_mm = pitch_um * 1e-3
    return (width - 1) / 2.0 + (radius_mm / pitch_mm) * np.sin(m * pitch_mm / radius_mm)


def _column_weights(cols: np.ndarray, width: int) -> tuple[np.ndarray, ...]:
    """Gather columns and weights that sample a row ``width`` px wide at ``cols``.

    Returns ``(c0, c1, w0, w1)``: fractional column ``cols[m]`` reads
    ``row[c0[m]] * w0[m] + row[c1[m]] * w1[m]``. Columns are clipped, so
    out-of-range requests must be masked by the caller.
    """
    last = width - 1
    clipped = np.clip(cols, 0.0, float(last))
    c0 = np.floor(clipped).astype(np.int64)
    c0 = np.minimum(c0, last - 1) if last > 0 else c0
    w1 = clipped - c0
    c1 = np.minimum(c0 + 1, last)
    return c0, c1, 1.0 - w1, w1


def _resample_columns(
    rows: np.ndarray, weights: tuple, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Sample every float64 row of ``rows`` with ``_column_weights``' ``weights``.

    The one interpolation kernel: render, forward projection and the
    float64 correction resample through it. Gathers each term into ``out``
    and ``scratch`` (same shape) and weighs them in place, so it allocates
    no temporaries and a caller working strip by strip allocates both
    once; caller handles masking and dtype restoration. Returns ``out``.
    """
    c0, c1, w0, w1 = weights
    # columns are in range; "clip" only spares take its buffered copy
    np.take(rows, c0, axis=1, out=out, mode="clip")
    np.take(rows, c1, axis=1, out=scratch, mode="clip")
    out *= w0
    scratch *= w1
    out += scratch
    return out


@functools.lru_cache(maxsize=16)
def _correction_weights(width: int, radius_mm: float, pitch_um: float) -> tuple:
    """``correct_tile``'s column weights: one fixed map per tile width, bore
    radius and pitch, built once per run and shared, read-only, by every
    tile and thread."""
    weights = _column_weights(build_remap(width, radius_mm, pitch_um), width)
    for array in weights:
        array.flags.writeable = False
    return weights


# The float64 correction computes fl(fl(p0*w0) + fl(p1*w1)), w0 = fl(1 - w1),
# for samples p0, p1 in 0..255 and w1 in [0, 1]. Exactly, p0*(1 - w1) +
# p1*w1 = p0 + d*w1 with d = p1 - p0. fl(1 - w1) is off by at most 2**-54
# (half an ulp below 1), which p0 <= 255 scales to under 2**-46; each of
# the two products and the sum stays below 256, so each rounds by at most
# half an ulp there, 2**-46. The float64 value is thus within 4 * 2**-46 =
# 2**-44 (5.7e-14) of p0 + d*w1, and rounds to p0 + rint(d*w1) whenever
# d*w1 lies farther than that from a half-integer. The guard asks that of
# fl(d*w1), itself within 2**-46 of d*w1, with margin to spare. rint is odd
# away from ties, so d = 1..255 covers d = -255..-1, and d = 0 gives p0.
_HALF_INTEGER_GUARD = 2e-13


@functools.lru_cache(maxsize=16)
def _uint8_weights(width: int, radius_mm: float, pitch_um: float) -> np.ndarray | None:
    """float32 weights that give 8-bit ``correct_tile`` its float64 bytes.

    ``w32[m]``, the nearest float32 to ``w1[m]``, makes ``p0 +
    rint(float32(p1 - p0) * w32[m])`` equal the float64 ``rint(p0 * w0[m]
    + p1 * w1[m])`` of ``_correction_weights`` for all 65,536 sample pairs
    of column ``m``. Two checks prove it: every ``d * w1[m]`` (d = 1..255)
    clears a half-integer by the guard derived above, so the float64
    result is the staircase ``p0 + rint(d * w1[m])``; and ``w32[m]``
    reproduces that staircase for every d in the float32 arithmetic
    ``correct_tile`` runs (both sides are odd in d). None when either
    check fails for some column: that rig's 8-bit tiles take the float64
    path. Built once per tile width, bore radius and pitch, and shared
    read-only like ``_correction_weights``.
    """
    w1 = _correction_weights(width, radius_mm, pitch_um)[3]
    d = np.arange(1, 256, dtype=np.float64)[:, None]
    products = d * w1
    if np.any(np.abs(products - np.floor(products) - 0.5) <= _HALF_INTEGER_GUARD):
        return None
    w32 = w1.astype(np.float32)
    if np.any(np.rint(d.astype(np.float32) * w32) != np.rint(products)):
        return None
    w32.flags.writeable = False
    return w32


def correct_tile(pixels: np.ndarray, radius_mm: float, pitch_um: float) -> np.ndarray:
    """Resample a flat capture onto the equal-arc-length corrected plane.

    ``pixels`` is a tile, which :func:`_check_tile` checks, ``radius_mm``
    the bore's radius and ``pitch_um`` the rig's pixel pitch across the
    tile's columns. Output is a new array of the same shape and dtype;
    after correction every column step spans the same arc, ``pitch_um``,
    on the bore wall. All source coordinates fall inside the input (the
    flat image is a compressed view of the arc), so no fill is needed.
    Every sample is ``rint(p0 * w0 + p1 * w1)`` in float64. Each strip of
    rows is widened once and gathered from there: to float32 for an 8-bit
    tile on a rig ``_uint8_weights`` has proved, which computes ``p0 +
    rint(float32(p1 - p0) * w32)`` and so gets the same bytes, and to
    float64 otherwise. numpy's loops that mix uint8 and float operands
    cost more than all the float32 arithmetic together.
    """
    pixels = _check_tile(pixels)
    height, width = pixels.shape
    rig = (width, radius_mm, pitch_um)
    weights = _correction_weights(*rig)
    w32 = _uint8_weights(*rig) if pixels.dtype == np.uint8 else None
    shape = (min(height, STRIP_ROWS), width)
    dtype = np.float64 if w32 is None else np.float32
    buffers = [np.empty(shape, dtype=dtype) for _ in range(3)]
    out = np.empty_like(pixels)
    for lo in range(0, height, STRIP_ROWS):
        n = min(STRIP_ROWS, height - lo)
        rows, p, q = (buffer[:n] for buffer in buffers)
        np.copyto(rows, pixels[lo : lo + n])
        if w32 is None:
            np.rint(_resample_columns(rows, weights, p, q), out=p)
        else:
            # every value is an integer below 2**24 except the product, so
            # only the product and its rint round, as _uint8_weights checked
            np.take(rows, weights[0], axis=1, out=p, mode="clip")
            np.take(rows, weights[1], axis=1, out=q, mode="clip")
            q -= p
            q *= w32
            p += np.rint(q, out=q)
        out[lo : lo + n] = p
    return out


def forward_project(
    texture_window: np.ndarray, radius_mm: float, pitch_um: float
) -> np.ndarray:
    """Project an equal-arc-length texture window onto the flat image plane.

    Inverse of :func:`correct_tile` at the same radius and column pitch:
    flat column ``k`` samples the texture at its arc offset ``m``,
    :func:`tile_arc_px`. Near the tile edges ``|m|`` exceeds the window
    half-width; those columns have no source data and are written as 0.
    """
    width = texture_window.shape[1]
    m_abs = (width - 1) / 2.0 + tile_arc_px(width, radius_mm, pitch_um)
    valid = (m_abs >= 0.0) & (m_abs <= width - 1)
    weights = _column_weights(m_abs, width)
    rows = texture_window.astype(np.float64)
    resampled = _resample_columns(rows, weights, np.empty_like(rows), np.empty_like(rows))
    resampled[:, ~valid] = 0.0
    return np.rint(resampled).astype(texture_window.dtype)
