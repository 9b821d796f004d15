"""Arc-projection correction of bore-wall tiles.

A flat sensor images the curved wall, so equal pixel steps near the tile
edge cover longer arcs than at the center. The correction resamples each
row onto a grid where every pixel spans an equal arc length: with pitch
``p`` (mm/pixel) and bore radius ``r``,

    corrected column  m = (r/p) * asin(k p / r)      (flat -> arc)
    source column     k = (r/p) * sin(m p / r)       (arc -> flat)

both measured from the tile center. Rows are unaffected (the cylinder is
straight axially), so the remap is separable and purely horizontal.

:func:`forward_project` is the exact inverse transform. It exists so that
synthetic renders and round-trip tests exercise the correction against an
independent forward model rather than against itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "TileImage",
    "RemapTable",
    "pixel_to_arc",
    "arc_to_pixel",
    "bilinear_sample",
    "build_remap",
    "correct_tile",
    "forward_project",
]

_ALLOWED_DTYPES = (np.uint8, np.uint16)


@dataclass(eq=False)
class TileImage:
    """One grayscale capture (or corrected tile) plus its physical metadata.

    Attributes
    ----------
    pixels:
        Row-major intensity grid, ``uint8`` or ``uint16``, shape
        ``(height, width)``. Row index grows with depth from the hole
        bottom; column index grows with rotation angle.
    pixel_pitch_x_um, pixel_pitch_y_um:
        Surface length per pixel (µm/pixel).
    tile_index:
        ``(depth step, rotation step)`` of the capture event, or None for
        images outside a scan (textures, panoramas).
    meta:
        Free-form annotations (sentinel columns, stitching seams, ...).
    """

    pixels: np.ndarray
    pixel_pitch_x_um: float
    pixel_pitch_y_um: float
    tile_index: tuple[int, int] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise DomainError("pixel grid must be 2-D and non-empty")
        if self.pixels.dtype not in _ALLOWED_DTYPES:
            raise DomainError(
                f"unsupported dtype {self.pixels.dtype}; expected uint8 or uint16"
            )
        if self.pixel_pitch_x_um <= 0 or self.pixel_pitch_y_um <= 0:
            raise DomainError("pixel pitches must be positive")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def bit_depth(self) -> int:
        return 8 if self.pixels.dtype == np.uint8 else 16

    @property
    def max_value(self) -> int:
        return 255 if self.bit_depth == 8 else 65535


@dataclass(frozen=True)
class RemapTable:
    """Precomputed source column for every corrected column.

    ``source[m]`` is the fractional flat-image column feeding corrected
    column ``m``; both are absolute indices. ``center`` is the fixed point
    of the transform at ``(width - 1) / 2``.
    """

    width: int
    center: float
    source: np.ndarray


def _as_float_array(value) -> tuple[np.ndarray, bool]:
    arr = np.asarray(value, dtype=np.float64)
    return arr, arr.ndim == 0


def pixel_to_arc(k, radius_mm: float, pitch_um: float):
    """Map flat-image column offset ``k`` to its corrected-plane offset.

    Offsets are in fractional pixels from the tile center, sign-preserving.
    The result magnitude is always >= ``|k|`` (arcs are longer than their
    chords). Accepts scalars or arrays.
    """
    _check_remap_args(radius_mm, pitch_um)
    k_arr, scalar = _as_float_array(k)
    pitch_mm = pitch_um * 1e-3
    x = k_arr * pitch_mm / radius_mm
    if np.any(np.abs(x) >= 1.0):
        raise DomainError(
            "pixel offset maps beyond the visible tangent limit "
            f"(|k| must stay below {radius_mm / pitch_mm:.1f} px)"
        )
    m = (radius_mm / pitch_mm) * np.arcsin(x)
    return float(m) if scalar else m


def arc_to_pixel(m, radius_mm: float, pitch_um: float):
    """Map corrected-plane column offset ``m`` back to the flat image.

    Inverse of :func:`pixel_to_arc`; result magnitude <= ``|m|``.
    """
    _check_remap_args(radius_mm, pitch_um)
    m_arr, scalar = _as_float_array(m)
    pitch_mm = pitch_um * 1e-3
    angle = m_arr * pitch_mm / radius_mm
    if np.any(np.abs(angle) > math.pi / 2.0):
        raise DomainError(
            "corrected offset exceeds a quarter turn of the bore "
            f"(|m| must stay within {(math.pi / 2) * radius_mm / pitch_mm:.1f} px)"
        )
    k = (radius_mm / pitch_mm) * np.sin(angle)
    return float(k) if scalar else k


def _check_remap_args(radius_mm: float, pitch_um: float) -> None:
    if radius_mm <= 0:
        raise DomainError(f"radius must be positive, got {radius_mm}")
    if pitch_um <= 0:
        raise DomainError(f"pixel pitch must be positive, got {pitch_um}")


def bilinear_sample(img: TileImage, x: float, y: float) -> float:
    """Intensity at fractional coordinates (x, y), standard bilinear weights.

    Exact at integer coordinates. Out-of-bounds points raise; padding policy
    is the caller's business.
    """
    if not (0.0 <= x <= img.width - 1) or not (0.0 <= y <= img.height - 1):
        raise DomainError(
            f"sample point ({x}, {y}) outside image {img.width}x{img.height}"
        )
    x0 = int(math.floor(x))
    y0 = int(math.floor(y))
    x1 = min(x0 + 1, img.width - 1)
    y1 = min(y0 + 1, img.height - 1)
    fx = x - x0
    fy = y - y0
    p = img.pixels
    return float(
        p[y0, x0] * (1 - fx) * (1 - fy)
        + p[y0, x1] * fx * (1 - fy)
        + p[y1, x0] * (1 - fx) * fy
        + p[y1, x1] * fx * fy
    )


def build_remap(width: int, radius_mm: float, pitch_um: float) -> RemapTable:
    """Build the per-column source table for a tile of the given width.

    The whole tile must sit inside the visible half-cylinder: the physical
    half-width ``(width/2) * pitch`` has to stay below the bore radius.
    """
    if width < 1:
        raise ConfigError(f"width must be >= 1, got {width}")
    _check_remap_args(radius_mm, pitch_um)
    pitch_mm = pitch_um * 1e-3
    if (width / 2.0) * pitch_mm >= radius_mm:
        raise ConfigError(
            f"tile width {width} px ({width * pitch_mm:.3f} mm) does not fit "
            f"the visible arc of a radius-{radius_mm} mm bore"
        )
    center = (width - 1) / 2.0
    m_rel = np.arange(width, dtype=np.float64) - center
    source = center + arc_to_pixel(m_rel, radius_mm, pitch_um)
    return RemapTable(width=width, center=center, source=source)


def _resample_columns(pixels: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample every row of ``pixels`` at fractional column positions ``cols``.

    Returns float64; caller handles masking and dtype restoration. Columns
    are clipped, so out-of-range requests must be masked by the caller.
    """
    last = pixels.shape[1] - 1
    clipped = np.clip(cols, 0.0, float(last))
    c0 = np.floor(clipped).astype(np.int64)
    c0 = np.minimum(c0, last - 1) if last > 0 else c0
    frac = clipped - c0
    c1 = np.minimum(c0 + 1, last)
    work = pixels.astype(np.float64)
    return work[:, c0] * (1.0 - frac) + work[:, c1] * frac


def correct_tile(img: TileImage, radius_mm: float) -> TileImage:
    """Resample a flat capture onto the equal-arc-length corrected plane.

    Output has the same shape, dtype, and pixel pitches; after correction
    every column step spans the same physical arc on the bore wall. All
    source coordinates fall inside the input (the flat image is a
    compressed view of the arc), so no fill is needed.
    """
    table = build_remap(img.width, radius_mm, img.pixel_pitch_x_um)
    resampled = _resample_columns(img.pixels, table.source)
    out = np.rint(resampled).astype(img.pixels.dtype)
    return TileImage(
        pixels=out,
        pixel_pitch_x_um=img.pixel_pitch_x_um,
        pixel_pitch_y_um=img.pixel_pitch_y_um,
        tile_index=img.tile_index,
        meta=dict(img.meta, corrected=True),
    )


def forward_project(texture_window: TileImage, radius_mm: float) -> TileImage:
    """Project an equal-arc-length texture window onto the flat image plane.

    Inverse of :func:`correct_tile`: flat column ``k`` samples the texture
    at ``m = pixel_to_arc(k)``. Near the tile edges ``|m|`` exceeds the
    window half-width; those columns have no source data and are written
    as 0 and listed in ``meta["sentinel_columns"]``.
    """
    img = texture_window
    table = build_remap(img.width, radius_mm, img.pixel_pitch_x_um)
    k_rel = np.arange(img.width, dtype=np.float64) - table.center
    m_abs = table.center + pixel_to_arc(k_rel, radius_mm, img.pixel_pitch_x_um)
    valid = (m_abs >= 0.0) & (m_abs <= img.width - 1)
    resampled = _resample_columns(img.pixels, m_abs)
    resampled[:, ~valid] = 0.0
    out = np.rint(resampled).astype(img.pixels.dtype)
    return TileImage(
        pixels=out,
        pixel_pitch_x_um=img.pixel_pitch_x_um,
        pixel_pitch_y_um=img.pixel_pitch_y_um,
        tile_index=img.tile_index,
        meta=dict(
            img.meta, sentinel_columns=[int(i) for i in np.nonzero(~valid)[0]]
        ),
    )
