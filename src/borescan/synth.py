"""Synthetic bore surfaces and camera-tile rendering.

Software stand-in for a machined test piece: defects of known size and
position are rasterized onto an unwrapped wall texture, and per-tile
captures are produced by the exact forward projection of the imaging
model, so every downstream measurement can be checked against truth.

Texture geometry: the grid covers arc length u in [0, circumference) and
depth z' in [0, depth], z' measured from the hole bottom. The column count
is rounded so the 360-degree wrap is seamless; the per-column arc pitch
therefore differs from the nominal pitch by less than one part in the
width (see :attr:`SurfaceTexture.arc_pitch_um`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PlacementError
from .geometry import HoleSpec, OpticsConfig
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan
from .unwrap import TileImage, pixel_to_arc

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


@dataclass(eq=False)
class SurfaceTexture:
    """Unwrapped ground-truth intensity map of the bore wall.

    ``pixels[v, u]``: row v at depth ``z' = v * pitch_um`` from the hole
    bottom, column u at angle ``u / width * 360`` degrees. Columns wrap.
    """

    pixels: np.ndarray
    pitch_um: float
    background: int
    radius_mm: float
    depth_mm: float

    def __post_init__(self) -> None:
        if self.pitch_um <= 0:
            raise DomainError("texture pitch must be positive")
        if self.radius_mm <= 0 or self.depth_mm <= 0:
            raise DomainError("texture radius and depth must be positive")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def arc_pitch_um(self) -> float:
        """Exact arc length per column; the wrap at 360 degrees is seamless."""
        return 2.0 * math.pi * self.radius_mm * 1e3 / self.width


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


def _wrapped_segments(start: int, count: int, width: int) -> list[tuple[int, slice]]:
    """Split [start, start+count) modulo width into contiguous chunks.

    Returns (texture column start, source slice into the unwrapped range).
    """
    start %= width
    if start + count <= width:
        return [(start, slice(0, count))]
    first = width - start
    return [(start, slice(0, first)), (0, slice(first, count))]


def build_texture(
    hole: HoleSpec,
    defects: list[DefectSpec],
    background: int = 180,
    pitch_um: float = 2.16,
    bit_depth: int = 8,
) -> SurfaceTexture:
    """Rasterize defects onto a uniform wall texture, anti-aliased.

    Every defect footprint must lie on the surface axially (columns wrap,
    rows do not). Overlapping defects are legal but warned about, since
    overlap makes the per-defect truth areas ambiguous.
    """
    if bit_depth not in (8, 16):
        raise DomainError("bit depth must be 8 or 16")
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    max_value = 255 if bit_depth == 8 else 65535
    if not 0 <= background <= max_value:
        raise DomainError("background outside intensity range")
    circumference_mm = 2.0 * math.pi * hole.radius_mm
    width = int(round(circumference_mm * 1e3 / pitch_um))
    height = int(math.floor(hole.depth_mm * 1e3 / pitch_um)) + 1
    arc_pitch_mm = circumference_mm / width
    pitch_mm = pitch_um * 1e-3

    pixels = np.full((height, width), background, dtype=dtype)
    offsets = _subsample_offsets()
    placed: list[DefectSpec] = []

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
        for col_start, chunk in _wrapped_segments(c_lo, len(cols), width):
            n_cols = chunk.stop - chunk.start
            window = pixels[r_lo : r_hi + 1, col_start : col_start + n_cols].astype(
                np.float64
            )
            window += spec.contrast * coverage[:, chunk]
            pixels[r_lo : r_hi + 1, col_start : col_start + n_cols] = np.rint(
                np.clip(window, 0, max_value)
            ).astype(dtype)

    return SurfaceTexture(
        pixels=pixels,
        pitch_um=pitch_um,
        background=background,
        radius_mm=hole.radius_mm,
        depth_mm=hole.depth_mm,
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
    reaches below z'=0) read as the texture background.
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

    u0 = np.floor(u)
    fu = u - u0
    c0 = u0.astype(np.int64) % texture.width
    c1 = (u0.astype(np.int64) + 1) % texture.width
    v_cl = np.clip(v, 0.0, float(texture.height - 1))
    v0 = np.floor(v_cl).astype(np.int64)
    v0 = np.minimum(v0, max(texture.height - 2, 0))
    fv = v_cl - v0
    v1 = np.minimum(v0 + 1, texture.height - 1)

    tex = texture.pixels
    top = tex[np.ix_(v0, c0)] * (1.0 - fu) + tex[np.ix_(v0, c1)] * fu
    bottom = tex[np.ix_(v1, c0)] * (1.0 - fu) + tex[np.ix_(v1, c1)] * fu
    sampled = top * (1.0 - fv[:, None]) + bottom * fv[:, None]
    sampled[~on_surface, :] = float(texture.background)

    pixels = np.rint(sampled).astype(tex.dtype)
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
    if sigma < 0:
        raise DomainError("noise sigma must be non-negative")
    if sigma == 0:
        pixels = img.pixels.copy()
    else:
        rng = np.random.default_rng(seed)
        noisy = img.pixels.astype(np.float64) + rng.normal(
            0.0, sigma, size=img.pixels.shape
        )
        pixels = np.rint(np.clip(noisy, 0, img.max_value)).astype(img.pixels.dtype)
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
    truth: list[DefectSpec] | None = None,
):
    """Render every scheduled tile; returns (tiles, manifest).

    Each tile gets an independent noise stream derived from the master
    seed and its order index, so re-renders are byte-identical no matter
    how the work is distributed.
    """
    from .manifest import RunManifest  # deferred: manifest also names our types

    tiles = []
    for event in plan.schedule:
        tile = render_tile(texture, event, cfg, region)
        tiles.append(add_noise(tile, noise_sigma, tile_noise_seed(seed, event.order)))
    manifest = RunManifest(
        hole=HoleSpec(radius_mm=texture.radius_mm, depth_mm=texture.depth_mm),
        optics=cfg,
        region=region,
        plan=plan,
        images=[],
        truth=list(truth) if truth else [],
        seed=seed,
        noise_sigma=noise_sigma,
    )
    return tiles, manifest
