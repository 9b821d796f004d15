"""Mapping detections into bore coordinates and reconciling duplicates.

Tile pixel coordinates go to (z, beta): z is the axial distance from the
nozzle reference plane (so it shrinks toward the bottom of the hole) and
beta is the circumferential angle in degrees. Features that straddle tile
boundaries come back as several records; :func:`merge_duplicates` reunifies
them by interval overlap, which keeps genuinely distinct neighbors apart
while stitching split detections back together.

:func:`inspect_tile` and :func:`inspect_stack` are the inspect pipeline:
correct, segment and measure each tile, then stitch the panorama and merge
the records. The ``inspect`` command runs them over tiles read from disk.
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
from .scanplan import ScanPlan
from .unwrap import TileImage, _wrapped_segments, correct_tile

__all__ = [
    "DefectRecord",
    "defect_location",
    "record_from_blob",
    "merge_duplicates",
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


def stitch_panorama(
    tiles: Iterable[TileImage],
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
) -> TileImage:
    """Paste corrected tiles into one unwrapped panorama of the bore wall.

    ``tiles`` may be any iterable, a generator included: each tile is
    pasted as it arrives and not kept, so give them in schedule order for
    overlaps to resolve last-writer in schedule order. Canvas dimensions
    depend only on the hole and the pixel pitch, never on the plan
    ordering. The metadata records any plan positions that had no tile and
    any canvas pixels nothing covered.
    """
    width = round(
        2.0 * math.pi * hole.radius_mm * 1e3 / cfg.pixel_pitch_x_um
    )
    height = math.floor(hole.depth_mm * 1e3 / cfg.pixel_pitch_y_um) + 1
    events = {(e.depth_step, e.rotation_step): e for e in plan.schedule}
    canvas = None
    seen = set()
    pasted = []  # (row slice, column slice) of every paste, after the seam split
    for img in tiles:
        if img.tile_index is None:
            raise DomainError("tiles must carry a (depth_step, rotation_step) index")
        event = events.get(img.tile_index)
        if event is None:
            raise DomainError(f"tile {img.tile_index} is not in the plan")
        if canvas is None:
            canvas = np.zeros((height, width), dtype=img.pixels.dtype)
        elif img.pixels.dtype != canvas.dtype:
            raise DomainError("tiles mix bit depths")
        seen.add(img.tile_index)
        h, w = img.pixels.shape
        row0 = round(event.z_mm * 1e3 / cfg.pixel_pitch_y_um) - (h - 1) // 2
        col0 = round(event.theta_deg / 360.0 * width) - (w - 1) // 2
        r_lo = max(0, -row0)
        r_hi = min(h, height - row0)
        if r_lo >= r_hi:
            continue
        rows = slice(row0 + r_lo, row0 + r_hi)
        for cols, src in _wrapped_segments(col0, w, width):
            canvas[rows, cols] = img.pixels[r_lo:r_hi, src]
            pasted.append((rows, cols))
    if canvas is None:
        canvas = np.zeros((height, width), dtype=np.uint8)
    return TileImage(
        canvas,
        cfg.pixel_pitch_x_um,
        cfg.pixel_pitch_y_um,
        meta={
            "missing_tiles": [index for index in events if index not in seen],
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
) -> tuple[list[DefectRecord], TileImage]:
    """Stitch and reconcile a run's inspected tiles.

    ``inspected`` yields :func:`inspect_tile` results in schedule order,
    from a generator if need be: each corrected tile is pasted into the
    panorama as it arrives and not kept. Returns the merged records of
    every tile and the panorama.
    """
    records = []

    def corrected_tiles():
        for corrected, tile_records in inspected:
            records.extend(tile_records)
            yield corrected

    panorama = stitch_panorama(corrected_tiles(), plan, hole, cfg)
    return merge_duplicates(records, hole.radius_mm), panorama
