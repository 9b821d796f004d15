"""Defect extraction and measurement on the unwrapped bore wall.

Binarization (fixed or Otsu threshold) and 8-connected blob labeling round
the bore. Labeling works on the row runs of the mask (maximal horizontal
stretches of foreground), not on pixels: defects are small and sparse, so
even the 127 million pixels of the reference bore's wall hold only
thousands of runs. The panorama is labelled once; the blob records all
read those labelled runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ThresholdError
from .geometry import DEFAULT_MIN_AREA
from .pgm import SAMPLE_DTYPES

__all__ = [
    "BlobRecord",
    "RunLabels",
    "binarize",
    "otsu_threshold",
    "row_runs",
    "label_mask",
    "connected_components",
]


_END = np.full(1, np.iinfo(np.intp).max)  # a sentinel key, past every run


@dataclass(frozen=True)
class BlobRecord:
    """One connected foreground region.

    ``label`` is the region's label in the :class:`RunLabels` it came
    from; ``centroid`` is (column m, row n) in fractional pixels; ``bbox``
    is (col_min, row_min, col_max, row_max), inclusive.
    """

    label: int
    pixel_area: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]


@dataclass(frozen=True, eq=False)
class RunLabels:
    """The foreground runs of a mask, each labelled with its region.

    Run ``i`` covers columns ``start[i]`` to ``stop[i] - 1`` of row
    ``row[i]``; rows ascend. ``label[i]`` runs from 1 to ``count``,
    numbered by each region's first pixel in raster order, as a label
    image is numbered by a raster scan. ``shape`` is the mask's. A region
    across the 360-degree seam has columns up to twice the width (see
    :func:`label_mask`).
    """

    shape: tuple[int, int]
    row: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    label: np.ndarray
    count: int


def otsu_threshold(pixels: np.ndarray) -> float:
    """Threshold maximizing between-class variance of the histogram of
    ``pixels``, of any shape and one of :data:`~borescan.pgm.SAMPLE_DTYPES`,
    over the levels from 0 to their dtype's maximum.

    Ties (the variance is flat over empty histogram spans) resolve to the
    middle of the plateau, so a two-level image is cut midway between its
    levels. A single-valued histogram has no two classes to separate.
    """
    full_scale = np.iinfo(pixels.dtype).max
    counts = np.bincount(pixels.ravel(), minlength=full_scale + 1).astype(np.float64)
    total = counts.sum()
    levels = np.arange(counts.size, dtype=np.float64)
    w0 = np.cumsum(counts)
    moment0 = np.cumsum(counts * levels)
    w1 = total - w0
    # candidate cut c puts [0..c] in the dark class, (c..max] in the bright
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = moment0 / w0
        mu1 = (moment0[-1] - moment0) / w1
        var_between = w0 * w1 * (mu0 - mu1) ** 2
    valid = (w0 > 0) & (w1 > 0)
    if not np.any(valid):
        raise ThresholdError("histogram has a single level; no threshold exists")
    var_between[~valid] = -np.inf
    best = var_between.max()
    plateau = np.nonzero(var_between == best)[0]
    return float(plateau.mean())


def binarize(
    pixels: np.ndarray,
    method: str = "fixed",
    threshold: float = 0.5,
) -> np.ndarray:
    """Boolean foreground mask of the dark (defect) pixels of ``pixels``.

    ``pixels`` may have any shape, which the mask keeps; their dtype is one
    of :data:`~borescan.pgm.SAMPLE_DTYPES`, whose maximum is full scale.
    ``fixed`` cuts at ``threshold`` as a fraction of full scale (bit-depth
    agnostic); ``otsu`` picks the cut from the histogram
    (:func:`otsu_threshold`) and raises :class:`ThresholdError` on
    degenerate input, which the inspect pipeline reads as a featureless
    block. The mask selects the pixels at or below the cut.
    """
    if pixels.dtype not in SAMPLE_DTYPES:
        raise DomainError(f"unsupported dtype {pixels.dtype}; expected uint8 or uint16")
    if method == "fixed":
        if not 0.0 <= threshold <= 1.0:
            raise DomainError("fixed threshold is a fraction of full scale")
        cut = threshold * np.iinfo(pixels.dtype).max
    elif method == "otsu":
        cut = otsu_threshold(pixels)
    else:
        raise DomainError(f"unknown threshold method {method!r}")
    # pixels are integers, so the cut rounds to one without moving it; an
    # integer cut compares in the pixels' own dtype, not in float64
    return pixels <= math.floor(cut)


def row_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The foreground runs of ``mask`` in raster order: run ``i`` covers
    columns ``start[i]`` to ``stop[i] - 1`` of row ``row[i]``.

    Only rows with foreground are scanned. A background column on each
    side makes every run start and stop within its row, so the flips of a
    scanned row alternate start, stop; the flip at ``i * (width + 1) + c``
    is column ``c`` of scanned row ``i``.
    """
    mask = np.asarray(mask, dtype=bool)
    rows = np.logical_or.reduce(mask, axis=1).nonzero()[0]
    padded = np.zeros((rows.size, mask.shape[1] + 2), dtype=bool)
    padded[:, 1:-1] = mask[rows]
    flips = (padded[:, 1:] != padded[:, :-1]).ravel().nonzero()[0]
    scanned, start = np.divmod(flips[0::2], mask.shape[1] + 1)
    return rows[scanned], start, flips[1::2] - scanned * (mask.shape[1] + 1)


def _first_touching(starts, stops, shift):
    """First run ``shift`` keys away that touches each run, and whether one does.

    ``starts`` and ``stops`` are the runs' keys, ``row * (width + 1)`` plus
    the column, each ending in a sentinel past every key; ``shift`` is the
    key distance to the adjacent row. Runs touch when their column spans,
    widened by one column, overlap, so one ``searchsorted`` finds for every
    run the first run of the adjacent row that ends after it begins.
    """
    first = stops.searchsorted(starts[:-1] + (shift - 1), side="right")
    return first, starts[first] < stops[:-1] + (shift + 1)


def _seam_links(row, start, stop, width):
    """(run in column 0, run in the last column) pairs of runs that touch
    across the seam, in the same row or in rows beside each other."""
    left = (start == 0).nonzero()[0]
    right = (stop == width).nonzero()[0]
    if not (left.size and right.size):
        return left[:0], right[:0]
    right_rows = row[right]  # ascending, one run at most per row
    pairs = []
    for step in (-1, 0, 1):
        want = row[left] + step
        at = np.minimum(right_rows.searchsorted(want), right.size - 1)
        meets = right_rows[at] == want
        pairs.append((left[meets], right[at[meets]]))
    return tuple(np.concatenate(side) for side in zip(*pairs))


def _compress(parent: np.ndarray) -> np.ndarray:
    """Point every run straight at its tree's root, by pointer jumping."""
    while True:
        up = parent[parent]
        if not np.count_nonzero(up != parent):
            return parent
        parent = up


def label_mask(shape, row, start, stop) -> RunLabels:
    """Label the connected regions of a mask wrapped round the bore, run by run.

    The mask is ``shape`` px and given by its foreground runs in raster
    order, as :func:`row_runs` gives them. Regions are 8-connected, so
    thin diagonal cracks stay in one piece, and the first and last columns
    are neighbours: the mask is the unwrapped wall, so a defect across the
    360-degree seam is one region. Such a region has its runs in the left
    half of the mask moved one width right, so that its columns, and with
    them its centroid, bounding box and rows, are unwrapped. Regions are
    numbered by their first pixel in raster order.
    """
    width = shape[1]
    row, start, stop = (np.asarray(a, dtype=np.intp) for a in (row, start, stop))
    if row.size == 0:
        return RunLabels(tuple(shape), row, start, stop, np.zeros_like(row), 0)
    pitch = width + 1  # a key in one row never reaches the next
    starts = np.concatenate((row * pitch + start, _END))
    stops = np.concatenate((row * pitch + stop, _END))
    index = np.arange(row.size)
    # Every link between runs of adjacent rows joins a run to the first
    # run that touches it from one side or the other: two links that
    # skipped their first would cross, and runs in one row do not overlap.
    # Each run first hooks to its first touching run above (always a
    # lower index), so parents only ever point back in raster order ...
    above, has_above = _first_touching(starts, stops, -pitch)
    parent = _compress(np.where(has_above, above, index))
    # ... then the links to the first run below and across the seam merge
    # trees: each root hooks to the smallest root it meets, until every
    # link lies within one tree.
    below, has_below = _first_touching(starts, stops, pitch)
    seam_left, seam_right = _seam_links(row, start, stop, width)
    upper = np.concatenate((index[has_below], seam_left))
    lower = np.concatenate((below[has_below], seam_right))
    while True:
        root_u, root_l = parent[upper], parent[lower]
        if not np.count_nonzero(root_u != root_l):
            break
        np.minimum.at(parent, np.maximum(root_u, root_l), np.minimum(root_u, root_l))
        parent = _compress(parent)
    # each root is its region's first run, so counting roots in raster
    # order numbers the regions by their first pixel
    numbers = (parent == index).cumsum()
    label = numbers[parent]
    count = int(numbers[-1])
    if seam_left.size:
        across = np.zeros(count + 1, dtype=bool)
        across[label[seam_left]] = True
        moved = np.where(across[label] & (2 * stop <= width), width, 0)
        start, stop = start + moved, stop + moved
    return RunLabels(tuple(shape), row, start, stop, label, count)


def connected_components(
    labels: RunLabels, min_area: int = DEFAULT_MIN_AREA
) -> list[BlobRecord]:
    """Blob records for each region of ``labels`` of at least ``min_area`` px.

    ``labels`` comes from :func:`label_mask`, so a region across the seam
    is measured on unwrapped columns. Records come out in label (scan)
    order.
    Area, centroid sums and bounding boxes add up whole runs; the column
    sum of a run is the integer ``(start + stop - 1) * length / 2``, so the
    centroids are the exact per-pixel means.
    """
    count = labels.count
    if count == 0:
        return []
    label, row, start, stop = labels.label, labels.row, labels.start, labels.stop
    length = stop - start
    areas = np.bincount(label, weights=length, minlength=count + 1)
    sum_c = np.bincount(
        label, weights=(start + stop - 1) * length // 2, minlength=count + 1
    )
    sum_r = np.bincount(label, weights=row * length, minlength=count + 1)
    col_min = np.full(count + 1, 2 * labels.shape[1])
    np.minimum.at(col_min, label, start)
    col_max = np.zeros(count + 1, dtype=stop.dtype)
    np.maximum.at(col_max, label, stop - 1)
    row_min = np.full(count + 1, labels.shape[0])
    np.minimum.at(row_min, label, row)
    row_max = np.zeros(count + 1, dtype=row.dtype)
    np.maximum.at(row_max, label, row)
    kept = (areas[1:] >= min_area).nonzero()[0] + 1
    areas = areas[kept].astype(np.int64)
    return [
        BlobRecord(
            label=label_id,
            pixel_area=area,
            centroid=(c / area, r / area),
            bbox=box,
        )
        for label_id, area, c, r, box in zip(
            kept.tolist(),
            areas.tolist(),
            sum_c[kept].tolist(),
            sum_r[kept].tolist(),
            zip(
                col_min[kept].tolist(),
                row_min[kept].tolist(),
                col_max[kept].tolist(),
                row_max[kept].tolist(),
            ),
        )
    ]

