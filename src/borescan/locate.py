"""Mapping detections into bore coordinates and reconciling duplicates.

Tile pixel coordinates go to (z, beta): z is the axial distance from the
nozzle reference plane (so it shrinks toward the bottom of the hole) and
beta is the circumferential angle in degrees. Features that straddle tile
boundaries come back as several records; :func:`merge_duplicates` reunifies
them by interval overlap, which keeps genuinely distinct neighbors apart
while stitching split detections back together.

:func:`inspect_tile` and :func:`inspect_stack` are the inspect pipeline:
correct, segment and measure each tile, then stitch the panorama, which
:func:`stitch_panorama` writes out in row bands as they become final, and
merge the records. The ``inspect`` command runs them over tiles read from
disk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .detect import (
    DEFAULT_MIN_AREA,
    BlobRecord,
    RunLabels,
    binarize,
    connected_components,
    label_mask,
    line_width,
)
from .errors import DomainError, PlanIndexError, ThresholdError
from .geometry import HoleSpec, OpticsConfig
from .pgm import write_pgm_header, write_pgm_rows
from .scanplan import ScanPlan
from .unwrap import TileImage, _wrapped_segments, correct_tile

__all__ = [
    "DefectRecord",
    "defect_location",
    "record_from_blob",
    "merge_duplicates",
    "Panorama",
    "stitch_panorama",
    "inspect_tile",
    "inspect_stack",
    "circular_delta_deg",
]

LINE_ASPECT = 3.0  # axial:arc extent ratio at which a blob counts as a line
MERGE_TOL_Z_MM = 0.05  # axial gap across which split records still merge
MERGE_TOL_ARC_MM = 0.05  # arc gap across which split records still merge


@dataclass(frozen=True)
class DefectRecord:
    """One defect in bore coordinates.

    ``z_mm`` measures from the nozzle plane down the axis; ``beta_deg`` is
    the centroid angle. The axial interval (``z_min_mm``..``z_max_mm``) and
    the arc interval (``arc_center_deg`` +- ``arc_half_deg``) describe the
    footprint and drive duplicate merging. ``size_mm`` is an equivalent
    diameter for discs and a mean width for lines.
    """

    kind: str
    z_mm: float
    beta_deg: float
    size_mm: float
    area_mm2: float
    z_min_mm: float
    z_max_mm: float
    arc_center_deg: float
    arc_half_deg: float
    source_tiles: tuple[tuple[int, int], ...]
    id: int = -1


def circular_delta_deg(a: float, b: float) -> float:
    """Smallest angular separation of two angles, degrees in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def defect_location(
    j: int,
    k: int,
    m: float,
    n: float,
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
    tile_shape: tuple[int, int],
) -> tuple[float, float]:
    """Bore coordinates (z_mm, beta_deg) of pixel (m, n) in tile (j, k).

    Columns of a corrected tile are uniform in arc length, so the offset
    from the tile center scales directly by the pixel pitch. Half a pixel
    of slack is allowed at the edges so bounding-box corners map cleanly.
    """
    if not (0 <= j < plan.n_depth and 0 <= k < plan.n_rot):
        raise PlanIndexError(
            f"tile ({j}, {k}) outside plan of {plan.n_depth} x {plan.n_rot} tiles"
        )
    rows, cols = tile_shape
    if not (-0.5 <= m <= cols - 0.5 and -0.5 <= n <= rows - 0.5):
        raise DomainError(f"pixel ({m}, {n}) outside a {rows} x {cols} tile")
    z_axis = plan.step_mm * j + (n - (rows - 1) / 2.0) * cfg.pixel_pitch_y_um * 1e-3
    z = hole.depth_mm - z_axis
    arc_mm = (m - (cols - 1) / 2.0) * cfg.pixel_pitch_x_um * 1e-3
    beta = (plan.alpha_deg * k + math.degrees(arc_mm / hole.radius_mm)) % 360.0
    return z, beta


def record_from_blob(
    blob: BlobRecord,
    labels: RunLabels,
    j: int,
    k: int,
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
) -> DefectRecord:
    """Classify and locate one blob from tile (j, k).

    ``labels`` are the tile's labelled row runs that ``blob`` was read
    from. A blob at least 3x taller than wide is a line (scratches run
    along the axis); its size is the segment-averaged width of its own
    runs, counted row by row over its bounding box. Anything else is a
    disc sized by equivalent diameter.
    """
    tile_shape = labels.shape
    z, beta = defect_location(
        j, k, blob.centroid[0], blob.centroid[1], plan, hole, cfg, tile_shape
    )
    col_min, row_min, col_max, row_max = blob.bbox
    # pixel footprints extend half a pixel past their centers
    z_hi, beta_lo = defect_location(
        j, k, col_min - 0.5, row_min - 0.5, plan, hole, cfg, tile_shape
    )
    z_lo, beta_hi = defect_location(
        j, k, col_max + 0.5, row_max + 0.5, plan, hole, cfg, tile_shape
    )
    arc_half = circular_delta_deg(beta_hi, beta_lo) / 2.0
    arc_center = (beta_lo + arc_half) % 360.0
    axial_px = row_max - row_min + 1
    arc_px = col_max - col_min + 1
    area = blob.pixel_area * cfg.pixel_pitch_x_um * cfg.pixel_pitch_y_um * 1e-6
    if axial_px >= LINE_ASPECT * arc_px:
        kind = "line"
        # runs are in raster order, so the blob's rows are one slice of them
        lo, hi = np.searchsorted(labels.row, (row_min, row_max + 1))
        own = labels.label[lo:hi] == blob.label
        per_row = np.bincount(
            labels.row[lo:hi][own] - row_min,
            weights=(labels.stop[lo:hi] - labels.start[lo:hi])[own],
            minlength=axial_px,
        )
        size = line_width(per_row, cfg.pixel_pitch_x_um)
    else:
        kind = "disc"
        size = 2.0 * math.sqrt(area / math.pi)
    return DefectRecord(
        kind=kind,
        z_mm=z,
        beta_deg=beta,
        size_mm=size,
        area_mm2=area,
        z_min_mm=z_lo,
        z_max_mm=z_hi,
        arc_center_deg=arc_center,
        arc_half_deg=arc_half,
        source_tiles=((j, k),),
    )


def _arc_gap_deg(a: DefectRecord, b: DefectRecord) -> float:
    gap = (
        circular_delta_deg(a.arc_center_deg, b.arc_center_deg)
        - a.arc_half_deg
        - b.arc_half_deg
    )
    return max(0.0, gap)


def _z_gap_mm(a: DefectRecord, b: DefectRecord) -> float:
    return max(0.0, max(a.z_min_mm, b.z_min_mm) - min(a.z_max_mm, b.z_max_mm))


def _arc_hull(members: list[DefectRecord]) -> tuple[float, float]:
    """Smallest circular interval covering all member arc intervals."""
    ref = members[0].arc_center_deg
    lo = hi = 0.0
    for rec in members:
        d = (rec.arc_center_deg - ref + 180.0) % 360.0 - 180.0
        lo = min(lo, d - rec.arc_half_deg)
        hi = max(hi, d + rec.arc_half_deg)
    half = min((hi - lo) / 2.0, 180.0)
    return (ref + (lo + hi) / 2.0) % 360.0, half


def _weighted_circular_mean_deg(angles, weights) -> float:
    rad = np.radians(np.asarray(angles, dtype=float))
    w = np.asarray(weights, dtype=float)
    mean = math.atan2(float((w * np.sin(rad)).sum()), float((w * np.cos(rad)).sum()))
    return math.degrees(mean) % 360.0


def _merge_cluster(members: list[DefectRecord], radius_mm: float) -> DefectRecord:
    weights = [rec.area_mm2 for rec in members]
    total = sum(weights)
    if total <= 0:
        weights = [1.0] * len(members)
        total = float(len(members))
    beta = _weighted_circular_mean_deg([rec.beta_deg for rec in members], weights)
    z_min = min(rec.z_min_mm for rec in members)
    z_max = max(rec.z_max_mm for rec in members)
    arc_center, arc_half = _arc_hull(members)
    largest = max(members, key=lambda rec: rec.area_mm2)
    arc_extent = 2.0 * math.radians(arc_half) * radius_mm
    lines = [rec for rec in members if rec.kind == "line"]
    if lines or (z_max - z_min) >= LINE_ASPECT * arc_extent:
        kind = "line"
        z = (z_min + z_max) / 2.0
        if lines:
            line_weight = sum(rec.area_mm2 for rec in lines)
            size = sum(rec.size_mm * rec.area_mm2 for rec in lines) / line_weight
        else:
            size = arc_extent
    else:
        kind = "disc"
        z = sum(rec.z_mm * w for rec, w in zip(members, weights)) / total
        size = largest.size_mm
    return DefectRecord(
        kind=kind,
        z_mm=z,
        beta_deg=beta,
        size_mm=size,
        area_mm2=largest.area_mm2,
        z_min_mm=z_min,
        z_max_mm=z_max,
        arc_center_deg=arc_center,
        arc_half_deg=arc_half,
        source_tiles=tuple(sorted(set(t for rec in members for t in rec.source_tiles))),
    )


def merge_duplicates(records: list[DefectRecord], radius_mm: float) -> list[DefectRecord]:
    """Collapse split detections of one physical feature into one record.

    Two records merge when their axial intervals come within
    ``MERGE_TOL_Z_MM`` AND their arc intervals come within
    ``MERGE_TOL_ARC_MM`` on a bore of ``radius_mm``. Merging repeats until
    stable, so the result is a fixed point: merging the output again
    changes nothing. Records that merge keep the largest member's area
    estimate; positions are area-weighted.
    """
    if not radius_mm > 0:
        raise DomainError(f"radius_mm must be positive, got {radius_mm}")
    arc_tol_deg = math.degrees(MERGE_TOL_ARC_MM / radius_mm)
    merged = list(records)
    while True:
        parent = list(range(len(merged)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                if _z_gap_mm(merged[i], merged[j]) > MERGE_TOL_Z_MM:
                    continue
                if _arc_gap_deg(merged[i], merged[j]) > arc_tol_deg:
                    continue
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
        clusters: dict[int, list[DefectRecord]] = {}
        for i, rec in enumerate(merged):
            clusters.setdefault(find(i), []).append(rec)
        if len(clusters) == len(merged):
            break
        merged = [
            members[0] if len(members) == 1 else _merge_cluster(members, radius_mm)
            for members in clusters.values()
        ]
    merged.sort(key=lambda rec: (rec.z_mm, rec.beta_deg))
    return [replace(rec, id=i) for i, rec in enumerate(merged)]


@dataclass(frozen=True)
class Panorama:
    """What :func:`stitch_panorama` wrote: the raster's (height, width), and
    in ``meta`` the plan positions that had no tile (``missing_tiles``) and
    the canvas pixels no tile covered (``uncovered_px``)."""

    shape: tuple[int, int]
    meta: dict


@dataclass(frozen=True)
class _Place:
    """Where one plan tile lands: canvas rows ``start``..``stop`` from tile
    rows ``tile_rows``, and the (canvas columns, tile columns) pairs of the
    seam split. ``priority`` is the tile's position in the schedule."""

    priority: int
    start: int
    stop: int
    tile_rows: slice
    segments: list[tuple[slice, slice]]


class _RowBand:
    """The open rows of a panorama canvas, written to a PGM once final.

    Rows are held in blocks of ``BLOCK``, made when a tile first reaches
    them, so the band grows without copying and a row no tile reaches
    costs nothing until it is written. Rows above ``top`` are in the sink
    and gone.
    """

    BLOCK = 128

    def __init__(self, sink, height: int, width: int) -> None:
        self.sink, self.height, self.width = sink, height, width
        self.blocks = {}
        self.blank = None  # stands in for blocks no tile reached; set by open
        self.top = 0

    def open(self, dtype) -> None:
        write_pgm_header(self.sink, self.height, self.width, dtype)
        self.blank = np.zeros((self.BLOCK, self.width), dtype)

    def pieces(self, start: int, stop: int, make: bool = True):
        """(block, its rows, the matching rows counted from ``start``) for
        canvas rows ``start``..``stop``."""
        size = self.BLOCK
        for b in range(start // size, -(-stop // size)):
            lo, hi = max(start, b * size), min(stop, b * size + size)
            block = self.blocks.get(b)
            if block is None and make:
                block = self.blocks[b] = self.blank.copy()
            yield (
                self.blank if block is None else block,
                slice(lo - b * size, hi - b * size),
                slice(lo - start, hi - start),
            )

    def flush(self, stop: int) -> None:
        """Write the rows above ``stop``, which no tile still to come reaches."""
        for block, rows, _ in self.pieces(self.top, stop, make=False):
            write_pgm_rows(self.sink, block[rows])
        for b in range(self.top // self.BLOCK, stop // self.BLOCK):
            self.blocks.pop(b, None)
        self.top = max(self.top, stop)


def _overlaps(place: _Place, other: _Place):
    """(first row, stop row, columns) of the canvas that both places cover."""
    start, stop = max(place.start, other.start), min(place.stop, other.stop)
    if start >= stop:
        return
    for cols, _ in place.segments:
        for other_cols, _ in other.segments:
            lo = max(cols.start, other_cols.start)
            hi = min(cols.stop, other_cols.stop)
            if lo < hi:
                yield start, stop, slice(lo, hi)


def stitch_panorama(
    tiles: Iterable[TileImage],
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
    tile_shape: tuple[int, int],
    sink,
) -> Panorama:
    """Paste corrected tiles into an unwrapped panorama of the bore wall,
    written to ``sink`` (a binary file) as a PGM in row bands.

    ``tiles`` may come in any order, from a generator too: each tile is
    pasted as it arrives and not kept. Where tiles overlap, a pixel keeps
    the value of the covering tile latest in the plan's schedule, so the
    bytes written do not depend on the arrival order. Only the open band
    of rows is held: the rows a tile not yet seen can still reach. Rows
    above it are final; they are written and dropped. Tiles in plan-row
    order, ``(depth_step, rotation_step)``, close the canvas one depth row
    at a time; in schedule order every rotation reaches back to the top, so
    the whole canvas stays open until the last one.

    Every tile must be ``tile_shape`` px, so that the rows of every tile
    still to come are known. Canvas dimensions depend only on the hole and
    the pixel pitch, never on the plan ordering. The result names any plan
    positions that had no tile and counts the canvas pixels nothing
    covered.
    """
    width = round(
        2.0 * math.pi * hole.radius_mm * 1e3 / cfg.pixel_pitch_x_um
    )
    height = math.floor(hole.depth_mm * 1e3 / cfg.pixel_pitch_y_um) + 1
    h, w = tile_shape
    places = {}
    for priority, event in enumerate(plan.schedule):
        row0 = round(event.z_mm * 1e3 / cfg.pixel_pitch_y_um) - (h - 1) // 2
        col0 = round(event.theta_deg / 360.0 * width) - (w - 1) // 2
        r_lo, r_hi = max(0, -row0), min(h, height - row0)
        places[(event.depth_step, event.rotation_step)] = _Place(
            priority, row0 + r_lo, row0 + r_hi, slice(r_lo, r_hi),
            _wrapped_segments(col0, w, width),
        )
    # first rows of the places that show on the canvas, top first
    starts = sorted(
        (place.start, index) for index, place in places.items()
        if place.start < place.stop
    )
    band = _RowBand(sink, height, width)
    seen = set()
    live = []  # pasted places with rows still in the band
    unseen = 0  # index into starts of the topmost place still to come
    for img in tiles:
        if img.tile_index is None:
            raise DomainError("tiles must carry a (depth_step, rotation_step) index")
        place = places.get(img.tile_index)
        if place is None:
            raise DomainError(f"tile {img.tile_index} is not in the plan")
        if img.tile_index in seen:
            raise DomainError(f"tile {img.tile_index} was given twice")
        if img.pixels.shape != tile_shape:
            raise DomainError(
                f"tile {img.tile_index} is {img.pixels.shape[0]}x"
                f"{img.pixels.shape[1]} px, not the run's {h}x{w}"
            )
        if band.blank is None:
            band.open(img.pixels.dtype)
        elif img.pixels.dtype != band.blank.dtype:
            raise DomainError(
                f"tiles mix bit depths: tile {img.tile_index} is "
                f"{img.pixels.dtype}, the tiles before it {band.blank.dtype}"
            )
        seen.add(img.tile_index)
        if place.start < place.stop:
            # what tiles later in the schedule pasted here stays on top
            kept = [
                (block, rows, cols, block[rows, cols].copy())
                for other in live if other.priority > place.priority
                for start, stop, cols in _overlaps(place, other)
                for block, rows, _ in band.pieces(start, stop)
            ]
            pixels = img.pixels[place.tile_rows]
            for block, rows, src_rows in band.pieces(place.start, place.stop):
                for cols, src in place.segments:
                    block[rows, cols] = pixels[src_rows, src]
            for block, rows, cols, saved in kept:
                block[rows, cols] = saved
            live.append(place)
        while unseen < len(starts) and starts[unseen][1] in seen:
            unseen += 1
        if unseen < len(starts):
            band.flush(starts[unseen][0])
            live = [other for other in live if other.stop > band.top]
    if band.blank is None:
        band.open(np.uint8)
    band.flush(height)
    pasted = [
        (slice(place.start, place.stop), cols)
        for index, place in places.items()
        if index in seen and place.start < place.stop
        for cols, _ in place.segments
    ]
    return Panorama(
        (height, width),
        {
            "missing_tiles": [index for index in places if index not in seen],
            "uncovered_px": height * width - _union_area(pasted),
        },
    )


def _union_area(rects: list[tuple[slice, slice]]) -> int:
    """Pixels covered by a union of (row slice, column slice) rectangles.

    Exact, by coordinate compression: the rectangle edges cut the plane
    into cells that each lie wholly inside or outside every rectangle.
    """
    if not rects:
        return 0
    row_edges = np.unique([e for rows, _ in rects for e in (rows.start, rows.stop)])
    col_edges = np.unique([e for _, cols in rects for e in (cols.start, cols.stop)])
    inside = np.zeros((len(row_edges) - 1, len(col_edges) - 1), dtype=bool)
    for rows, cols in rects:
        r0, r1 = np.searchsorted(row_edges, (rows.start, rows.stop))
        c0, c1 = np.searchsorted(col_edges, (cols.start, cols.stop))
        inside[r0:r1, c0:c1] = True
    cells = np.outer(np.diff(row_edges), np.diff(col_edges))
    return int(cells[inside].sum())


def inspect_tile(
    tile: TileImage,
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
    method: str = "fixed",
    threshold: float = 0.5,
    min_area: int = DEFAULT_MIN_AREA,
) -> tuple[TileImage, list[DefectRecord]]:
    """Correct one raw tile and measure its defects.

    The tile is segmented by :func:`binarize` with ``method`` and
    ``threshold`` (which ``otsu`` ignores) and labelled 8-connected; each
    blob of at least ``min_area`` px becomes a record of the tile's plan
    position. A tile the threshold finds featureless has no records.
    Returns the corrected tile and its records.
    """
    if tile.tile_index is None:
        raise DomainError("tiles must carry a (depth_step, rotation_step) index")
    j, k = tile.tile_index
    corrected = correct_tile(tile, hole.radius_mm)
    try:
        mask = binarize(corrected, method, threshold)
    except ThresholdError:
        return corrected, []
    labels = label_mask(mask, 8)
    records = [
        record_from_blob(blob, labels, j, k, plan, hole, cfg)
        for blob in connected_components(labels, min_area)
    ]
    return corrected, records


def inspect_stack(
    inspected: Iterable[tuple[TileImage, list[DefectRecord]]],
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
    tile_shape: tuple[int, int],
    sink,
) -> tuple[list[DefectRecord], Panorama]:
    """Stitch and reconcile a run's inspected tiles.

    ``inspected`` yields :func:`inspect_tile` results in any order, from a
    generator if need be: each corrected tile is pasted into the panorama,
    which :func:`stitch_panorama` writes to ``sink`` in row bands, and not
    kept. Plan-row order keeps the fewest rows open. The records are merged
    in schedule order whatever the arrival order, so neither the report
    nor the panorama depends on it. Returns the merged records of every
    tile and the stitch's :class:`Panorama`.
    """
    records = []

    def corrected_tiles():
        for corrected, tile_records in inspected:
            records.extend(tile_records)
            yield corrected

    panorama = stitch_panorama(corrected_tiles(), plan, hole, cfg, tile_shape, sink)
    position = {
        (event.depth_step, event.rotation_step): n
        for n, event in enumerate(plan.schedule)
    }
    records.sort(key=lambda rec: position[rec.source_tiles[0]])  # stable
    return merge_duplicates(records, hole.radius_mm), panorama
