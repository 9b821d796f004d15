"""Stitching the bore wall and mapping its defects into bore coordinates.

:func:`stitch_panorama` pastes corrected tiles, taken in plan-row order,
into an unwrapped panorama of the wall and writes it out in row bands as
they become final.
:func:`inspect_stack` is the inspect pipeline built on it: it binarises
each final 128-row block of the panorama once, keeps the block's
foreground row runs, labels all of them in one pass round the bore once
the last row is written, and maps each blob to (z, beta) from its row and
column. z is the axial distance from the nozzle reference plane (so it
shrinks toward the bottom of the hole) and beta is the circumferential
angle in degrees. A defect that tile edges, depth steps or the 360-degree
seam cut apart is still one blob, so no record needs merging. The
``inspect`` command runs the pipeline over tiles read from disk, and
:func:`plan_uncovered_px` counts, from the same tile placements, the
canvas pixels a plan leaves uncovered before any tile is taken.
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
    row_runs,
)
from .errors import DomainError, PlanIndexError, ThresholdError
from .geometry import HoleSpec, OpticsConfig
from .pgm import write_pgm_header, write_pgm_rows
from .scanplan import ScanPlan
from .unwrap import TileImage, _wrapped_segments

__all__ = [
    "DefectRecord",
    "record_from_blob",
    "Panorama",
    "stitch_panorama",
    "plan_uncovered_px",
    "inspect_stack",
    "circular_delta_deg",
]

LINE_ASPECT = 3.0  # axial:arc extent ratio at which a blob counts as a line


@dataclass(frozen=True)
class DefectRecord:
    """One defect in bore coordinates.

    ``z_mm`` measures from the nozzle plane down the axis; ``beta_deg`` is
    the centroid angle. ``z_min_mm``..``z_max_mm`` is the footprint's
    axial extent. ``size_mm`` is an equivalent diameter for discs and a
    mean width for lines. ``source_tiles`` are the plan positions of the
    pasted tiles that the footprint's bounding box meets.
    """

    kind: str
    z_mm: float
    beta_deg: float
    size_mm: float
    area_mm2: float
    z_min_mm: float
    z_max_mm: float
    source_tiles: tuple[tuple[int, int], ...]
    id: int = -1


def circular_delta_deg(a: float, b: float) -> float:
    """Smallest angular separation of two angles, degrees in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def record_from_blob(
    blob: BlobRecord,
    labels: RunLabels,
    hole: HoleSpec,
    cfg: OpticsConfig,
    tiles: Iterable[tuple[int, int]],
) -> DefectRecord:
    """Classify and locate one blob of the panorama.

    ``labels`` are the panorama's labelled row runs that ``blob`` was read
    from, and ``tiles`` the plan positions it came from. As
    :func:`stitch_panorama` places them, canvas row ``n`` lies ``n`` pixel
    pitches down the axis from the nozzle plane and column ``m`` at
    ``m / width`` of a turn. A blob at least 3x taller than wide is a line
    (scratches run along the axis); its size is its mean width, its pixel
    area over the rows of its bounding box, so every row weighs the same.
    Anything else is a disc sized by equivalent diameter.
    """
    pitch_z_mm = cfg.pixel_pitch_y_um * 1e-3
    col, row = blob.centroid
    col_min, row_min, col_max, row_max = blob.bbox
    axial_px = row_max - row_min + 1
    arc_px = col_max - col_min + 1
    area = blob.pixel_area * cfg.pixel_pitch_x_um * cfg.pixel_pitch_y_um * 1e-6
    if axial_px >= LINE_ASPECT * arc_px:
        kind = "line"
        size = blob.pixel_area / axial_px * cfg.pixel_pitch_x_um * 1e-3
    else:
        kind = "disc"
        size = 2.0 * math.sqrt(area / math.pi)
    return DefectRecord(
        kind=kind,
        z_mm=hole.depth_mm - row * pitch_z_mm,
        beta_deg=(col * 360.0 / labels.shape[1]) % 360.0,
        size_mm=size,
        area_mm2=area,
        # pixel footprints extend half a pixel past their centers
        z_min_mm=hole.depth_mm - (row_max + 0.5) * pitch_z_mm,
        z_max_mm=hole.depth_mm - (row_min - 0.5) * pitch_z_mm,
        source_tiles=tuple(tiles),
    )


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
    seam split."""

    start: int
    stop: int
    tile_rows: slice
    segments: list[tuple[slice, slice]]


class _RowBand:
    """The open rows of a panorama canvas, written to a PGM once final.

    Rows are held in blocks of ``BLOCK``, made when a tile first reaches
    them, so the band grows without copying and a row no tile reaches
    costs nothing until it is written. A block is written whole once its
    last row is final; rows above ``top`` are in the sink and gone.
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

    def pieces(self, start: int, stop: int):
        """(block, its rows, the matching rows counted from ``start``) for
        canvas rows ``start``..``stop``."""
        size = self.BLOCK
        for b in range(start // size, -(-stop // size)):
            lo, hi = max(start, b * size), min(stop, b * size + size)
            block = self.blocks.get(b)
            if block is None:
                block = self.blocks[b] = self.blank.copy()
            yield (
                block,
                slice(lo - b * size, hi - b * size),
                slice(lo - start, hi - start),
            )

    def flush(self, stop: int) -> list[tuple[int, np.ndarray]]:
        """Write the blocks above ``stop``, which no tile still to come
        reaches; returns (first row, rows) of those a tile reached."""
        size = self.BLOCK
        end = stop if stop >= self.height else stop - stop % size
        reached = []
        for first in range(self.top, end, size):
            block = self.blocks.pop(first // size, None)
            rows = (self.blank if block is None else block)[: self.height - first]
            write_pgm_rows(self.sink, rows)
            if block is not None:
                reached.append((first, rows))
        self.top = max(self.top, end)
        return reached


def _placements(plan: ScanPlan, hole: HoleSpec, cfg: OpticsConfig, tile_shape):
    """The canvas (height, width) and where each plan tile lands on it.

    Canvas dimensions depend only on the hole and the pixel pitch, never on
    the plan ordering. A tile's middle pixel lands on canvas row
    ``z_mm / pitch`` and column ``theta_deg / 360`` of the width.
    """
    width = round(2.0 * math.pi * hole.radius_mm * 1e3 / cfg.pixel_pitch_x_um)
    height = math.floor(hole.depth_mm * 1e3 / cfg.pixel_pitch_y_um) + 1
    h, w = tile_shape
    places = {}
    for event in plan.schedule:
        row0 = round(event.z_mm * 1e3 / cfg.pixel_pitch_y_um) - (h - 1) // 2
        col0 = round(event.theta_deg / 360.0 * width) - (w - 1) // 2
        r_lo, r_hi = max(0, -row0), min(h, height - row0)
        places[(event.depth_step, event.rotation_step)] = _Place(
            row0 + r_lo, row0 + r_hi, slice(r_lo, r_hi),
            _wrapped_segments(col0, w, width),
        )
    return height, width, places


def stitch_panorama(
    tiles: Iterable[TileImage],
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
    tile_shape: tuple[int, int],
    sink,
    on_block,
) -> Panorama:
    """Paste corrected tiles into an unwrapped panorama of the bore wall,
    written to ``sink`` (a binary file) as a PGM in row bands.

    ``tiles`` come in plan-row order, ``(depth_step, rotation_step)``, each
    plan position at most once, from a generator too: each tile is pasted
    whole as it arrives and not kept, so where tiles overlap, the one later
    in plan-row order wins. In a :func:`~borescan.scanplan.plan_scan` plan
    a tile's rows follow its depth step and its columns its rotation step,
    so that tile is also the one latest in the schedule. Only the open band
    of rows is held: the 128-row blocks that a tile still to come can
    reach, about one depth row of tiles. Blocks above it are final; they
    are written and dropped.

    ``on_block(first_row, pixels, covered)`` sees each final block that a
    tile reached, top to bottom, with the mask of its pixels that some
    tile covered. Every tile must be ``tile_shape`` px, so that
    the rows of every tile still to come are known. The result names any
    plan positions that had no tile and counts the canvas pixels nothing
    covered.
    """
    height, width, places = _placements(plan, hole, cfg, tile_shape)
    h, w = tile_shape
    # the first row that a place after each one in plan-row order reaches;
    # a library plan's starts need not rise with that order
    following, reach = {}, height
    for index in sorted(places, reverse=True):
        following[index] = reach
        if places[index].start < places[index].stop:
            reach = min(reach, places[index].start)
    band = _RowBand(sink, height, width)
    pasted = []  # plan positions, in plan-row order
    live = []  # pasted places with rows still in the band

    def finish(blocks):
        for first, pixels in blocks:
            # every place that reaches a block not yet written is live
            covered = np.zeros(pixels.shape, dtype=bool)
            for place in live:
                lo = max(place.start - first, 0)
                hi = min(place.stop - first, len(pixels))
                if lo < hi:
                    for cols, _ in place.segments:
                        covered[lo:hi, cols] = True
            on_block(first, pixels, covered)

    for img in tiles:
        if img.tile_index is None:
            raise DomainError("tiles must carry a (depth_step, rotation_step) index")
        place = places.get(img.tile_index)
        if place is None:
            raise PlanIndexError(f"tile {img.tile_index} is not in the plan")
        if pasted and img.tile_index <= pasted[-1]:
            raise DomainError(
                f"tile {img.tile_index} came after tile {pasted[-1]}: tiles must "
                "come in plan-row order, (depth_step, rotation_step), each once"
            )
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
        pasted.append(img.tile_index)
        if place.start < place.stop:
            pixels = img.pixels[place.tile_rows]
            for block, rows, src_rows in band.pieces(place.start, place.stop):
                for cols, src in place.segments:
                    block[rows, cols] = pixels[src_rows, src]
            live.append(place)
        finish(band.flush(following[img.tile_index]))
        live = [other for other in live if other.stop > band.top]
    if band.blank is None:
        band.open(np.uint8)
    finish(band.flush(height))
    given = set(pasted)
    return Panorama(
        (height, width),
        {
            "missing_tiles": [index for index in places if index not in given],
            "uncovered_px": height * width - _union_area(_rectangles(places, given)[1]),
        },
    )


def _rectangles(places: dict, indices: Iterable[tuple[int, int]]):
    """The canvas rectangles of the plan positions ``indices``, one per seam
    segment: their owners, and a (4, n) array of their first rows, stop
    rows, first columns and stop columns. A place off the canvas has none."""
    owners, rects = [], []
    for index in indices:
        place = places[index]
        if place.start < place.stop:
            for cols, _ in place.segments:
                owners.append(index)
                rects.append((place.start, place.stop, cols.start, cols.stop))
    return owners, np.array(rects, dtype=np.intp).reshape(-1, 4).T


def _union_area(rects: np.ndarray) -> int:
    """Pixels covered by a union of :func:`_rectangles` rectangles.

    Exact, by coordinate compression: the rectangle edges cut the plane
    into cells that each lie wholly inside or outside every rectangle.
    """
    if not rects.size:
        return 0
    # each edge's index among the distinct edges; asking for it also spares
    # plan numpy's lazy import of numpy.ma (about 10 ms on a first call)
    row_edges, rows = np.unique(rects[:2], return_inverse=True)
    col_edges, cols = np.unique(rects[2:], return_inverse=True)
    inside = np.zeros((len(row_edges) - 1, len(col_edges) - 1), dtype=bool)
    for r0, r1, c0, c1 in zip(*rows.reshape(2, -1), *cols.reshape(2, -1)):
        inside[r0:r1, c0:c1] = True
    cells = np.outer(np.diff(row_edges), np.diff(col_edges))
    return int(cells[inside].sum())


def plan_uncovered_px(
    plan: ScanPlan, hole: HoleSpec, cfg: OpticsConfig, tile_shape: tuple[int, int]
) -> int:
    """Canvas pixels that no tile of ``plan`` covers, before any is taken.

    The tiles are placed as :func:`stitch_panorama` places them, so this
    is its ``uncovered_px`` when every tile of the plan is given.
    """
    height, width, places = _placements(plan, hole, cfg, tile_shape)
    return height * width - _union_area(_rectangles(places, places)[1])


def inspect_stack(
    corrected_tiles: Iterable[TileImage],
    plan: ScanPlan,
    hole: HoleSpec,
    cfg: OpticsConfig,
    tile_shape: tuple[int, int],
    sink,
    method: str = "fixed",
    threshold: float = 0.5,
    min_area: int = DEFAULT_MIN_AREA,
) -> tuple[list[DefectRecord], Panorama]:
    """Stitch a run's corrected tiles and measure the defects on the panorama.

    ``corrected_tiles`` come in plan-row order, from a generator if need
    be: :func:`stitch_panorama` pastes each one and writes the panorama to
    ``sink`` in row bands. Each final 128-row block is binarised once by
    :func:`binarize` with ``method`` and ``threshold`` (which ``otsu``
    ignores), over the pixels some tile covered only, so ``otsu`` takes
    one cut per block, and a block it finds featureless has no
    foreground. The blocks' foreground runs are kept, and once the last
    row is written they are labelled in one pass round the bore. Each blob
    of at least ``min_area`` px becomes a record; its tiles are the pasted
    plan tiles its bounding box meets.

    Returns the records, ordered by (z, beta) and numbered, and the
    stitch's :class:`Panorama`.
    """
    pitch = (cfg.pixel_pitch_x_um, cfg.pixel_pitch_y_um)
    runs = [(np.zeros(0, dtype=np.intp),) * 3]

    def segment(first_row, pixels, covered):
        whole = covered.all()
        try:
            found = binarize(
                TileImage(pixels if whole else pixels[covered][None], *pitch),
                method,
                threshold,
            )
        except ThresholdError:
            return  # featureless
        if not whole:
            mask = np.zeros_like(covered)
            mask[covered] = found[0]
            found = mask
        row, start, stop = row_runs(found)
        runs.append((row + first_row, start, stop))

    panorama = stitch_panorama(
        corrected_tiles, plan, hole, cfg, tile_shape, sink, segment
    )
    labels = label_mask(panorama.shape, *(np.concatenate(part) for part in zip(*runs)))
    _, width, places = _placements(plan, hole, cfg, tile_shape)
    pasted = places.keys() - set(panorama.meta["missing_tiles"])
    owners, (top, bottom, left, right) = _rectangles(places, pasted)

    def tiles_of(blob):
        col_min, row_min, col_max, row_max = blob.bbox
        # the bounding box's columns may run one width past the seam
        meets = (top <= row_max) & (bottom > row_min) & (
            ((left <= col_max) & (right > col_min))
            | ((left <= col_max - width) & (right > col_min - width))
        )
        return sorted({owners[i] for i in meets.nonzero()[0]})

    records = sorted(
        (
            record_from_blob(blob, labels, hole, cfg, tiles_of(blob))
            for blob in connected_components(labels, min_area)
        ),
        key=lambda rec: (rec.z_mm, rec.beta_deg),
    )
    return [replace(rec, id=i) for i, rec in enumerate(records)], panorama
