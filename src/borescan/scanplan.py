"""Capture scheduling for full inner-surface scans.

The stage motion follows a move-rotate-move cycle: start at the hole
bottom, capture while stepping up a column, rotate by a fixed angle,
return to the bottom, repeat until the wall is covered. Tiles are indexed
``(depth step j, rotation step k)`` and centered at ``z' = j * step``
(measured from the bottom) and ``theta = k * alpha``.

:func:`_placements` puts tiles on the panorama's :class:`WallGrid`, as
``inspect`` stitches them; :func:`plan_uncovered_px` counts the pixels a
plan leaves bare. Nothing here needs numpy, so ``plan`` runs without it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .geometry import HoleSpec, OpticsConfig

__all__ = [
    "EffectiveRegion",
    "CaptureEvent",
    "WallGrid",
    "ScanPlan",
    "shot_counts",
    "plan_scan",
    "tile_shape_for",
    "plan_uncovered_px",
]

# Far above the 416 tiles of a 6 mm x 47 mm bore, the largest the probe
# reaches, and far below a schedule that would exhaust memory.
MAX_TILES = 100_000


@dataclass(frozen=True)
class EffectiveRegion:
    """Physical extent of the usable central crop of one capture, mm.

    ``width_mm`` runs along the circumference, ``height_mm`` along the
    bore axis. Default 1.5 x 1.5 (the sight-pipe boundary spoils the
    outer part of the raw frame).
    """

    width_mm: float = 1.5
    height_mm: float = 1.5

    def __post_init__(self) -> None:
        for name, value in (("width", self.width_mm), ("height", self.height_mm)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"effective region {name} must be finite and > 0, got {value}"
                )


@dataclass(frozen=True)
class CaptureEvent:
    """One scheduled exposure."""

    order: int
    depth_step: int
    rotation_step: int
    z_mm: float
    theta_deg: float


@dataclass(frozen=True)
class ScanPlan:
    """Complete capture schedule for one bore.

    ``alpha_deg`` is the rotation between columns (``360 / n_rot``),
    ``step_mm`` the depth increment within a column. The schedule is
    ordered by (rotation step, then depth step): captures happen on the
    ascent, the descent is a return stroke.
    """

    n_rot: int
    n_depth: int
    alpha_deg: float
    step_mm: float
    schedule: tuple[CaptureEvent, ...]


def shot_counts(hole: HoleSpec, region: EffectiveRegion) -> tuple[int, int]:
    """Shots needed circumferentially and axially: (n_rot, n_depth).

    Circumferential count rounds up so ``n_rot`` tiles of width
    ``region.width_mm`` close the full circumference; the axial count is
    ``floor(depth / height) + 1``, which may duplicate an overlap row when
    the depth divides exactly. A plan of more than ``MAX_TILES`` tiles is
    refused before any schedule is built.
    """
    if region.width_mm >= math.pi * hole.radius_mm:
        raise ConfigError(
            f"effective width {region.width_mm} mm reaches half the "
            f"circumference of a radius-{hole.radius_mm} mm bore; "
            "plan would be degenerate"
        )
    circumference = 2.0 * math.pi * hole.radius_mm
    rotations = circumference / region.width_mm
    depths = hole.depth_mm / region.height_mm
    if not (math.isfinite(rotations) and math.isfinite(depths)):
        raise ConfigError(
            f"a radius-{hole.radius_mm} mm, {hole.depth_mm} mm deep bore needs "
            "more tiles than can be counted"
        )
    n_rot, n_depth = math.ceil(rotations), math.floor(depths) + 1
    if n_rot * n_depth > MAX_TILES:
        raise ConfigError(
            f"a radius-{hole.radius_mm} mm, {hole.depth_mm} mm deep bore needs "
            f"{n_rot} x {n_depth} tiles, more than the {MAX_TILES} a plan may hold"
        )
    return n_rot, n_depth


def plan_scan(hole: HoleSpec, region: EffectiveRegion) -> ScanPlan:
    """Build the full move-rotate-move schedule for one bore."""
    n_rot, n_depth = shot_counts(hole, region)
    alpha = 360.0 / n_rot
    step = region.height_mm
    schedule = tuple(
        CaptureEvent(
            order=k * n_depth + j,
            depth_step=j,
            rotation_step=k,
            z_mm=j * step,
            theta_deg=k * alpha,
        )
        for k in range(n_rot)
        for j in range(n_depth)
    )
    return ScanPlan(n_rot, n_depth, alpha, step, schedule)


def tile_shape_for(cfg: OpticsConfig, region: EffectiveRegion) -> tuple[int, int]:
    """Pixel (height, width) of one tile: region extent over pixel pitch.

    Rounded up so the imaged footprint is never smaller than the nominal
    effective region.
    """
    width = math.ceil(region.width_mm * 1e3 / cfg.pixel_pitch_x_um)
    height = math.ceil(region.height_mm * 1e3 / cfg.pixel_pitch_y_um)
    return height, width


@dataclass(frozen=True)
class WallGrid:
    """The unwrapped bore wall as a raster: the synthetic texture, the
    tiles rendered from it, their places on the panorama and its records.

    Row ``n`` lies ``n * pitch_y_um`` up the axis from the hole bottom and
    column ``m`` at ``m / width`` of a turn. The width is rounded so the
    wrap is seamless: a column spans ``arc_pitch_um``, within one part in
    the width of ``pitch_x_um``. numpy arrays pass through the maps.
    """

    radius_mm: float
    depth_mm: float
    pitch_x_um: float
    pitch_y_um: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"wall grid {name} must be finite and > 0, got {value}")
        if self.width < 1:
            raise DomainError(
                f"the wall grid of a radius-{self.radius_mm} mm bore at "
                f"{self.pitch_x_um} um/pixel is narrower than one column"
            )

    @classmethod
    def of(cls, hole: HoleSpec, optics: OpticsConfig) -> WallGrid:
        """The grid of a bore at a rig's pixel pitches."""
        return cls(
            hole.radius_mm, hole.depth_mm, optics.pixel_pitch_x_um, optics.pixel_pitch_y_um
        )

    @property
    def width(self) -> int:
        return round(2.0 * math.pi * self.radius_mm * 1e3 / self.pitch_x_um)

    @property
    def height(self) -> int:
        return math.floor(self.depth_mm * 1e3 / self.pitch_y_um) + 1

    @property
    def arc_pitch_um(self) -> float:
        """Exact arc length per column."""
        return 2.0 * math.pi * self.radius_mm * 1e3 / self.width

    def column(self, theta_deg, arc_um=0.0):
        """Fractional column of angle ``theta_deg`` plus ``arc_um`` of arc."""
        return theta_deg / 360.0 * self.width + arc_um / self.arc_pitch_um

    def row(self, z_mm, offset_um=0.0):
        """Fractional row ``z_mm`` above the bottom plus ``offset_um``."""
        return (z_mm * 1e3 + offset_um) / self.pitch_y_um

    def bore_z_mm(self, row):
        """Axial distance of ``row`` from the nozzle plane, mm."""
        return self.depth_mm - row * (self.pitch_y_um * 1e-3)


def _wrapped_segments(start: int, count: int, width: int) -> list[tuple[slice, slice]]:
    """Split columns [start, start+count) modulo ``width`` at the 360-degree seam.

    The one seam helper, shared by synth's stamps and the panorama
    placements. Returns (wrapped columns, slice of the unwrapped range)
    pairs: at most two, for ``count <= width``.
    """
    start %= width
    if start + count <= width:
        return [(slice(start, start + count), slice(0, count))]
    first = width - start
    return [
        (slice(start, width), slice(0, first)),
        (slice(0, count - first), slice(first, count)),
    ]


@dataclass(frozen=True)
class _Place:
    """Where one plan tile lands: canvas rows ``start``..``stop`` from tile
    rows ``tile_rows``, and the (canvas columns, tile columns) pairs of the
    seam split."""

    start: int
    stop: int
    tile_rows: slice
    segments: list[tuple[slice, slice]]


def _placements(plan: ScanPlan, hole: HoleSpec, cfg: OpticsConfig, tile_shape):
    """The panorama canvas (height, width) and where each plan tile lands
    on it, as :func:`borescan.locate.stitch_panorama` pastes them.

    The canvas is the :class:`WallGrid` of the hole and the pixel pitches,
    whatever the plan ordering. A tile's middle pixel lands on the grid's
    row of ``z_mm`` and column of ``theta_deg``, rounded.
    """
    grid = WallGrid.of(hole, cfg)
    height, width = grid.height, grid.width
    h, w = tile_shape
    places = {}
    for event in plan.schedule:
        row0 = round(grid.row(event.z_mm)) - (h - 1) // 2
        col0 = round(grid.column(event.theta_deg)) - (w - 1) // 2
        r_lo, r_hi = max(0, -row0), min(h, height - row0)
        places[(event.depth_step, event.rotation_step)] = _Place(
            row0 + r_lo, row0 + r_hi, slice(r_lo, r_hi),
            _wrapped_segments(col0, w, width),
        )
    return height, width, places


def _rectangles(places: dict, indices: Iterable[tuple[int, int]]):
    """The canvas rectangles of the plan positions ``indices``, one per seam
    segment: their owners, and their (first row, stop row, first column,
    stop column). A place off the canvas has none."""
    owners, rects = [], []
    for index in indices:
        place = places[index]
        if place.start < place.stop:
            for cols, _ in place.segments:
                owners.append(index)
                rects.append((place.start, place.stop, cols.start, cols.stop))
    return owners, rects


def _union_area(rects: list[tuple[int, int, int, int]]) -> int:
    """Pixels covered by a union of :func:`_rectangles` rectangles.

    Exact, by coordinate compression: the rectangle edges cut the plane
    into cells that each lie wholly inside or outside every rectangle.
    """
    row_edges = sorted({edge for rect in rects for edge in rect[:2]})
    col_edges = sorted({edge for rect in rects for edge in rect[2:]})
    row_at = {edge: i for i, edge in enumerate(row_edges)}
    col_at = {edge: i for i, edge in enumerate(col_edges)}
    inside = [[False] * len(col_edges) for _ in row_edges]
    for r0, r1, c0, c1 in rects:
        first, stop = col_at[c0], col_at[c1]
        for cells in inside[row_at[r0] : row_at[r1]]:
            cells[first:stop] = [True] * (stop - first)
    return sum(
        (bottom - top) * (right - left)
        for top, bottom, cells in zip(row_edges, row_edges[1:], inside)
        for left, right, covered in zip(col_edges, col_edges[1:], cells)
        if covered
    )


def plan_uncovered_px(
    plan: ScanPlan, hole: HoleSpec, cfg: OpticsConfig, tile_shape: tuple[int, int]
) -> int:
    """Canvas pixels that no tile of ``plan`` covers, before any is taken.

    The tiles are placed as :func:`borescan.locate.stitch_panorama` places
    them, so this is its ``uncovered_px`` when every tile of the plan is
    given.
    """
    height, width, places = _placements(plan, hole, cfg, tile_shape)
    return height * width - _union_area(_rectangles(places, places)[1])
