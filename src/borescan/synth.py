"""Synthetic bore surfaces and camera-tile rendering.

Software stand-in for a machined test piece: defects of known size and
position become anti-aliased stamps on an unwrapped wall texture, and
per-tile captures are produced by the exact forward projection of the
imaging model, so every downstream measurement can be checked against
truth. Tiles are rendered strip by strip from the stamps that meet each
strip; the whole wall is rasterized only as a test oracle.

Texture geometry: the grid covers arc length u in [0, circumference) and
depth z' in [0, depth], z' measured from the hole bottom. The column count
is rounded so the 360-degree wrap is seamless; the per-column arc pitch
therefore differs from the nominal pitch by less than one part in the
width (see :attr:`SurfaceTexture.arc_pitch_um`).
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PlacementError
from .geometry import HoleSpec, OpticsConfig
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan
from .unwrap import (
    STRIP_ROWS,
    TileImage,
    _resample_columns,
    _wrapped_segments,
    pixel_to_arc,
)

__all__ = [
    "SurfaceTexture",
    "DefectSpec",
    "DEFAULT_CONTRAST",
    "build_texture",
    "render_tile",
    "add_noise",
    "render_stack",
    "tile_shape_for",
]

_SUPERSAMPLE = 4  # 4x4 subsamples per pixel for anti-aliased edges
DEFAULT_CONTRAST = -120  # DN at 8 bit; a dark defect on the bright wall


class Stamp(NamedTuple):
    """One defect's anti-aliased footprint, ready to add onto the wall.

    Covers texture rows ``row_lo`` to ``row_hi`` (exclusive) and the
    columns from ``col_lo`` on, unwrapped: they wrap at the texture width.
    ``coverage`` is the covered fraction of each pixel in that box.
    """

    row_lo: int
    row_hi: int
    col_lo: int
    coverage: np.ndarray
    contrast: int


@dataclass(eq=False)
class SurfaceTexture:
    """Unwrapped ground-truth intensity map of the bore wall.

    Row v lies at depth ``z' = v * pitch_um`` from the hole bottom, column
    u at angle ``u / width * 360`` degrees; columns wrap. The wall is the
    background with the defect ``stamps`` added in list order. No raster of
    the whole wall is held: :meth:`window` rasterizes any part of it.
    """

    pitch_um: float
    background: int
    radius_mm: float
    depth_mm: float
    width: int
    height: int
    bit_depth: int
    stamps: tuple[Stamp, ...]

    def __post_init__(self) -> None:
        if self.pitch_um <= 0:
            raise DomainError("texture pitch must be positive")
        if self.radius_mm <= 0 or self.depth_mm <= 0:
            raise DomainError("texture radius and depth must be positive")
        # one row per stamp: first row, end row, first column, column count
        self._boxes = np.array(
            [(s.row_lo, s.row_hi, s.col_lo, s.coverage.shape[1]) for s in self.stamps],
            dtype=np.int64,
        ).reshape(-1, 4)

    @property
    def dtype(self) -> type:
        return np.uint8 if self.bit_depth == 8 else np.uint16

    @property
    def max_value(self) -> int:
        return 255 if self.bit_depth == 8 else 65535

    @property
    def arc_pitch_um(self) -> float:
        """Exact arc length per column; the wrap at 360 degrees is seamless."""
        return 2.0 * math.pi * self.radius_mm * 1e3 / self.width

    @property
    def pixels(self) -> np.ndarray:
        """The whole wall as one raster: the test oracle for :meth:`window`.

        About 127 MB for the 4 mm x 47 mm reference bore; the render path
        never takes it.
        """
        return self.window(0, self.height, 0, self.width)

    def stamps_meeting(self, top: int, bottom: int, left: int, count: int) -> np.ndarray:
        """Indices, in list order, of the stamps that meet a window.

        The window is rows ``top`` to ``bottom`` (exclusive) and ``count``
        columns from ``left``, modulo the width.
        """
        row_lo, row_hi, col_lo, n_cols = self._boxes.T
        # each stamp's first column, counted from the window's along the wrap
        first = (col_lo - left) % self.width
        meets = (
            (row_lo < bottom)
            & (row_hi > top)
            & ((first < count) | (first + n_cols > self.width))
        )
        return np.flatnonzero(meets)

    def window(self, top: int, bottom: int, left: int, count: int) -> np.ndarray:
        """Pixels of rows ``top`` to ``bottom`` and ``count`` columns from ``left``.

        Columns wrap at the width. The window starts as the background,
        and each stamp that meets it is added in list order, clipped to the
        intensity range and rounded, as if the whole wall were rasterized.
        """
        pixels = np.full((bottom - top, count), self.background, dtype=self.dtype)
        for index in self.stamps_meeting(top, bottom, left, count):
            stamp = self.stamps[index]
            r_lo, r_hi = max(top, stamp.row_lo), min(bottom, stamp.row_hi)
            rows = slice(r_lo - top, r_hi - top)
            cover = stamp.coverage[r_lo - stamp.row_lo : r_hi - stamp.row_lo]
            # the stamp's columns counted from the window's first, along the wrap
            for dst, src in _wrapped_segments(
                stamp.col_lo - left, cover.shape[1], self.width
            ):
                cols = slice(dst.start, min(dst.stop, count))
                if cols.start >= cols.stop:
                    continue
                block = pixels[rows, cols].astype(np.float64)
                block += stamp.contrast * cover[:, src][:, : cols.stop - cols.start]
                pixels[rows, cols] = np.rint(
                    np.clip(block, 0, self.max_value)
                ).astype(self.dtype)
        return pixels


@dataclass(frozen=True)
class DefectSpec:
    """Prefabricated defect to stamp onto a texture.

    ``z_mm`` is the feature center measured from the hole bottom (the
    texture/scan frame; reports convert to nozzle distance). ``size_mm``
    is a disc diameter or a line width; lines run along the hole axis for
    ``length_mm``. ``contrast`` is a signed intensity offset, negative for
    the usual dark-on-bright appearance.
    """

    kind: str
    z_mm: float
    beta_deg: float
    size_mm: float
    length_mm: float | None = None
    contrast: int = DEFAULT_CONTRAST

    def __post_init__(self) -> None:
        if self.kind not in ("disc", "line"):
            raise DomainError(f"unknown defect kind {self.kind!r}")
        for name in ("z_mm", "size_mm", "length_mm"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"defect {name} must be finite, got {value}")
        if self.size_mm <= 0:
            raise DomainError("defect size must be positive")
        if not 0.0 <= self.beta_deg < 360.0:
            raise DomainError("beta must lie in [0, 360)")
        if self.kind == "line":
            if self.length_mm is None or self.length_mm <= 0:
                raise DomainError("line defects need a positive length")
        elif self.length_mm is not None:
            raise DomainError("disc defects take no length")
        if self.contrast == 0:
            raise DomainError("zero-contrast defect is invisible")

    def half_extent_mm(self) -> tuple[float, float]:
        """Half-extent of the footprint along (u, z)."""
        if self.kind == "disc":
            return self.size_mm / 2.0, self.size_mm / 2.0
        return self.size_mm / 2.0, self.length_mm / 2.0


def _subsample_offsets() -> np.ndarray:
    n = _SUPERSAMPLE
    return (np.arange(n) + 0.5) / n - 0.5


def _footprints_overlap(a: DefectSpec, b: DefectSpec, circumference_mm: float) -> bool:
    """Exact continuous-plane intersection test with circular u metric."""
    ua = a.beta_deg / 360.0 * circumference_mm
    ub = b.beta_deg / 360.0 * circumference_mm
    du = abs(ua - ub)
    du = min(du, circumference_mm - du)
    dz = abs(a.z_mm - b.z_mm)
    if a.kind == "disc" and b.kind == "disc":
        reach = (a.size_mm + b.size_mm) / 2.0
        return du * du + dz * dz < reach * reach
    if a.kind == "line" and b.kind == "line":
        (au, az), (bu, bz) = a.half_extent_mm(), b.half_extent_mm()
        return du < au + bu and dz < az + bz
    disc, line = (a, b) if a.kind == "disc" else (b, a)
    lu, lz = line.half_extent_mm()
    # distance from disc center to the rectangle
    gap_u = max(du - lu, 0.0)
    gap_z = max(dz - lz, 0.0)
    return gap_u * gap_u + gap_z * gap_z < (disc.size_mm / 2.0) ** 2


def build_texture(
    hole: HoleSpec,
    defects: list[DefectSpec],
    background: int = 180,
    pitch_um: float = 2.16,
    bit_depth: int = 8,
) -> SurfaceTexture:
    """Stamp anti-aliased defects onto a uniform wall texture.

    Every defect footprint must lie on the surface axially (columns wrap,
    rows do not). Overlapping defects are legal but warned about, since
    overlap makes the per-defect truth areas ambiguous. Only each defect's
    coverage is computed here; :meth:`SurfaceTexture.window` rasterizes.
    """
    if bit_depth not in (8, 16):
        raise DomainError("bit depth must be 8 or 16")
    max_value = 255 if bit_depth == 8 else 65535
    if not 0 <= background <= max_value:
        raise DomainError("background outside intensity range")
    circumference_mm = 2.0 * math.pi * hole.radius_mm
    width = int(round(circumference_mm * 1e3 / pitch_um))
    height = int(math.floor(hole.depth_mm * 1e3 / pitch_um)) + 1
    arc_pitch_mm = circumference_mm / width
    pitch_mm = pitch_um * 1e-3

    offsets = _subsample_offsets()
    placed: list[DefectSpec] = []
    stamps: list[Stamp] = []

    for spec in defects:
        half_u, half_z = spec.half_extent_mm()
        if spec.z_mm - half_z < 0.0 or spec.z_mm + half_z > hole.depth_mm:
            raise PlacementError(
                f"{spec.kind} at z'={spec.z_mm} mm spans outside the "
                f"0..{hole.depth_mm} mm surface"
            )
        for other in placed:
            if _footprints_overlap(spec, other, circumference_mm):
                warnings.warn(
                    f"defect at (z'={spec.z_mm}, beta={spec.beta_deg}) "
                    "overlaps an earlier one; truth areas are ambiguous",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
        placed.append(spec)

        u0_px = spec.beta_deg / 360.0 * width  # fractional column
        v0_px = spec.z_mm / pitch_mm
        c_lo = math.floor(u0_px - half_u / arc_pitch_mm) - 1
        c_hi = math.ceil(u0_px + half_u / arc_pitch_mm) + 1
        r_lo = max(0, math.floor(v0_px - half_z / pitch_mm) - 1)
        r_hi = min(height - 1, math.ceil(v0_px + half_z / pitch_mm) + 1)
        cols = np.arange(c_lo, c_hi + 1)  # unwrapped; wrapped on write
        rows = np.arange(r_lo, r_hi + 1)
        # physical subsample offsets from the defect center, mm
        du = (cols[None, :, None] + offsets[None, None, :] - u0_px) * arc_pitch_mm
        dv = (rows[:, None, None] + offsets[None, None, :] - v0_px) * pitch_mm
        if spec.kind == "disc":
            r2 = (spec.size_mm / 2.0) ** 2
            inside = dv[:, :, :, None] ** 2 + du[:, :, None, :] ** 2 <= r2
            coverage = inside.reshape(len(rows), len(cols), -1).mean(axis=2)
        else:
            cov_u = (np.abs(du) <= half_u).mean(axis=2)  # (1, C)
            cov_v = (np.abs(dv) <= half_z).mean(axis=2)  # (R, 1)
            coverage = cov_v.reshape(-1, 1) * cov_u.reshape(1, -1)
        stamps.append(Stamp(r_lo, r_hi + 1, c_lo, coverage, spec.contrast))

    return SurfaceTexture(
        pitch_um=pitch_um,
        background=background,
        radius_mm=hole.radius_mm,
        depth_mm=hole.depth_mm,
        width=width,
        height=height,
        bit_depth=bit_depth,
        stamps=tuple(stamps),
    )


def tile_shape_for(cfg: OpticsConfig, region: EffectiveRegion) -> tuple[int, int]:
    """Pixel (height, width) of one tile: region extent over pixel pitch.

    Rounded up so the imaged footprint is never smaller than the nominal
    effective region.
    """
    width = math.ceil(region.width_mm * 1e3 / cfg.pixel_pitch_x_um)
    height = math.ceil(region.height_mm * 1e3 / cfg.pixel_pitch_y_um)
    return height, width


def render_tile(
    texture: SurfaceTexture,
    event: CaptureEvent,
    cfg: OpticsConfig,
    region: EffectiveRegion,
) -> TileImage:
    """Render what the camera captures at one scheduled position.

    Flat-image column k samples the wall at arc offset
    ``pixel_to_arc(k) * p_x`` from the tile center: window extraction and
    forward projection are fused, so the 360-degree seam wraps exactly and
    no sentinel columns appear. Rows outside the surface (the bottom tile
    reaches below z'=0) read as the texture background. Each strip of rows
    rasterizes only the texture window under it, and a strip that no
    defect stamp meets is the background throughout.
    """
    height, width = tile_shape_for(cfg, region)
    half_width_mm = (width / 2.0) * cfg.pixel_pitch_x_um * 1e-3
    if half_width_mm >= texture.radius_mm:
        raise DomainError(
            f"tile width {width} px exceeds the visible arc of a "
            f"radius-{texture.radius_mm} mm bore"
        )
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0

    k_rel = np.arange(width, dtype=np.float64) - cx
    arc_um = (
        pixel_to_arc(k_rel, texture.radius_mm, cfg.pixel_pitch_x_um)
        * cfg.pixel_pitch_x_um
    )
    u = event.theta_deg / 360.0 * texture.width + arc_um / texture.arc_pitch_um

    n_rel = np.arange(height, dtype=np.float64) - cy
    v = (event.z_mm * 1e3 + n_rel * cfg.pixel_pitch_y_um) / texture.pitch_um
    on_surface = (v >= 0.0) & (v <= texture.height - 1)

    v_cl = np.clip(v, 0.0, float(texture.height - 1))
    v0 = np.floor(v_cl).astype(np.int64)
    v0 = np.minimum(v0, max(texture.height - 2, 0))
    fv = (v_cl - v0)[:, None]
    v1 = np.minimum(v0 + 1, texture.height - 1)

    # texture columns under the tile, unwrapped across the seam; rows blend first
    base = math.floor(u[0])
    count = math.floor(u[-1]) + 2 - base
    cols = u - base
    pixels = np.empty((height, width), dtype=texture.dtype)
    for lo in range(0, height, STRIP_ROWS):
        rows = slice(lo, lo + STRIP_ROWS)
        # v0 and v1 rise with the row, so the strip reads texture rows top..bottom
        top, bottom = int(v0[rows][0]), int(v1[rows][-1]) + 1
        if not texture.stamps_meeting(top, bottom, base, count).size:
            # a blend of equal integers rounds back to them
            pixels[rows] = texture.background
            continue
        tex = texture.window(top, bottom, base, count)
        blend = tex[v0[rows] - top] * (1.0 - fv[rows]) + tex[v1[rows] - top] * fv[rows]
        sampled = _resample_columns(blend, cols)
        sampled[~on_surface[rows], :] = float(texture.background)
        pixels[rows] = np.rint(sampled, out=sampled)
    return TileImage(
        pixels=pixels,
        pixel_pitch_x_um=cfg.pixel_pitch_x_um,
        pixel_pitch_y_um=cfg.pixel_pitch_y_um,
        tile_index=(event.depth_step, event.rotation_step),
    )


def add_noise(img: TileImage, sigma: float, seed: int) -> TileImage:
    """Additive zero-mean Gaussian noise, clamped to the intensity range.

    Deterministic for a given seed; ``sigma`` is in intensity levels of
    the image's own bit depth.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise DomainError(f"noise sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        pixels = img.pixels.copy()
    else:
        rng = np.random.default_rng(seed)
        pixels = np.empty_like(img.pixels)
        # strip by strip, the stream draws the same values in the same order
        for lo in range(0, img.height, STRIP_ROWS):
            rows = slice(lo, lo + STRIP_ROWS)
            noisy = rng.normal(0.0, sigma, size=pixels[rows].shape)
            noisy += img.pixels[rows]
            np.clip(noisy, 0, img.max_value, out=noisy)
            pixels[rows] = np.rint(noisy, out=noisy)
    return TileImage(
        pixels=pixels,
        pixel_pitch_x_um=img.pixel_pitch_x_um,
        pixel_pitch_y_um=img.pixel_pitch_y_um,
        tile_index=img.tile_index,
        meta=dict(img.meta),
    )


def tile_noise_seed(master_seed: int, order: int) -> int:
    """Per-tile noise seed: independent stream per capture event."""
    return int(np.random.SeedSequence([master_seed, order]).generate_state(1)[0])


def render_stack(
    texture: SurfaceTexture,
    plan: ScanPlan,
    cfg: OpticsConfig,
    region: EffectiveRegion,
    noise_sigma: float = 0.0,
    seed: int = 0,
    threads: int = 1,
):
    """Yield every scheduled tile, rendered and noisy, in plan order.

    Tiles render on ``threads`` worker threads; at most ``threads + 1``
    are in flight, counting the one the caller holds. Each tile gets an
    independent noise stream derived from the master seed and its order
    index, so the tiles are byte-identical for any thread count. An error
    raised for one tile is raised here in its place, after every tile
    before it.
    """

    # not underscore-named: the benchmark's tracer skips calls made from a
    # module's private helpers, and this is where render and noise spans start
    def render(event: CaptureEvent) -> TileImage:
        tile = render_tile(texture, event, cfg, region)
        return add_noise(tile, noise_sigma, tile_noise_seed(seed, event.order))

    yield from _map_in_order(render, plan.schedule, threads)


def _map_in_order(work, items, threads: int):
    """Yield ``work(item)`` for every item, in item order, from a thread pool.

    The one pool loop, shared by ``synth`` and ``inspect``. Items are
    submitted as results are taken, so at most ``threads + 1`` are started
    and not yet let go, counting the result the caller holds. An error
    raised for one item is raised here in its place, after every result
    before it; items not yet started are cancelled.
    """
    pool = ThreadPoolExecutor(max_workers=threads)
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(work, item))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
