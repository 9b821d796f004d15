"""Defect extraction and measurement on corrected tiles.

Binarization (fixed or Otsu threshold), 8-connected blob labeling, and
line widths in mm via the pixel pitch. Labeling works on the row runs of
the mask (maximal horizontal stretches of foreground), not on pixels:
defects are small and sparse, so a tile holds a few hundred runs against
half a million pixels. Each tile is labelled once; the blob records and
the line widths all read those labelled runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ThresholdError
from .unwrap import TileImage

__all__ = [
    "BlobRecord",
    "RunLabels",
    "binarize",
    "otsu_threshold",
    "label_mask",
    "connected_components",
    "line_width",
    "DEFAULT_MIN_AREA",
    "DEFAULT_SEGMENT_LEN",
]

DEFAULT_MIN_AREA = 9  # px; ~13 um equivalent diameter at 2.16 um/pixel
DEFAULT_SEGMENT_LEN = 64  # px per line-width segment

_END = np.full(2, np.iinfo(np.intp).max)  # a sentinel run, past every key


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
    ``row[i]``; runs are in raster order. ``label[i]`` runs from 1 to
    ``count``, numbered by each region's first pixel in raster order, as
    a label image is numbered by a raster scan. ``shape`` is the mask's.
    """

    shape: tuple[int, int]
    row: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    label: np.ndarray
    count: int


def otsu_threshold(img: TileImage) -> float:
    """Threshold maximizing between-class variance of the histogram.

    Ties (the variance is flat over empty histogram spans) resolve to the
    middle of the plateau, so a two-level image is cut midway between its
    levels. A single-valued histogram has no two classes to separate.
    """
    counts = np.bincount(img.pixels.ravel(), minlength=img.max_value + 1).astype(
        np.float64
    )
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
    img: TileImage,
    method: str = "fixed",
    threshold: float = 0.5,
    polarity: str = "dark",
) -> np.ndarray:
    """Boolean foreground mask of defect-polarity pixels.

    ``fixed`` cuts at ``threshold`` as a fraction of full scale (bit-depth
    agnostic); ``otsu`` picks the cut from the histogram and raises
    :class:`ThresholdError` on degenerate input, which the inspect
    pipeline reads as a featureless tile. Dark polarity (the default)
    selects pixels at or below the cut.
    """
    if polarity not in ("dark", "bright"):
        raise DomainError(f"unknown polarity {polarity!r}")
    if method == "fixed":
        if not 0.0 <= threshold <= 1.0:
            raise DomainError("fixed threshold is a fraction of full scale")
        cut = threshold * img.max_value
    elif method == "otsu":
        cut = otsu_threshold(img)
    else:
        raise DomainError(f"unknown threshold method {method!r}")
    if polarity == "dark":
        return img.pixels <= cut
    return img.pixels >= cut


def _run_keys(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and stop keys of every foreground run, in raster order.

    Only rows with foreground are scanned, each followed by one blank row
    when the next row has none, so two runs lie in adjacent rows of the
    mask exactly when they lie in adjacent scanned rows. A run in scanned
    row ``i`` over columns ``start`` to ``stop - 1`` has the keys
    ``i * (width + 1) + start`` and ``i * (width + 1) + stop``, so keys
    order all runs at once, and a key in one row never reaches the next.
    Both key arrays end in a sentinel past every key. Also returns the
    mask row of each scanned row.
    """
    has_run = np.logical_or.reduce(mask, axis=1)
    scanned = has_run.copy()
    scanned[1:] |= has_run[:-1]
    rows = scanned.nonzero()[0]
    # a background column on each side makes every run start and stop
    # within its row, so the flips alternate start, stop in raster order
    padded = np.zeros((rows.size, mask.shape[1] + 2), dtype=bool)
    padded[:, 1:-1] = mask[rows]
    flips = (padded[:, 1:] != padded[:, :-1]).ravel().nonzero()[0]
    flips = np.concatenate((flips, _END))
    return flips[0::2], flips[1::2], rows


def _first_touching(starts, stops, shift, reach):
    """First run ``shift`` keys away that touches each run, and whether one does.

    ``starts`` and ``stops`` are :func:`_run_keys`; ``shift`` is the key
    distance to the adjacent row. Runs touch when their column spans,
    widened by ``reach``, overlap, so one ``searchsorted`` finds for every
    run the first run of the adjacent row that ends after it begins.
    """
    first = stops.searchsorted(starts[:-1] + (shift - reach), side="right")
    return first, starts[first] < stops[:-1] + (shift + reach)


def _compress(parent: np.ndarray) -> np.ndarray:
    """Point every run straight at its tree's root, by pointer jumping."""
    while True:
        up = parent[parent]
        if not np.count_nonzero(up != parent):
            return parent
        parent = up


def label_mask(mask: np.ndarray, connectivity: int = 8) -> RunLabels:
    """Label the connected foreground regions of ``mask``, run by run.

    8-connectivity by default so thin diagonal cracks stay in one piece;
    under 4-connectivity, runs in adjacent rows join only where they share
    a column. Regions are numbered by their first pixel in raster order.
    """
    if connectivity not in (4, 8):
        raise DomainError("connectivity must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    starts, stops, rows = _run_keys(mask)
    width = mask.shape[1] + 1
    scanned_row = starts[:-1] // width
    offset = scanned_row * width
    row, start, stop = rows[scanned_row], starts[:-1] - offset, stops[:-1] - offset
    if row.size == 0:
        return RunLabels(mask.shape, row, start, stop, np.zeros_like(row), 0)
    reach = 1 if connectivity == 8 else 0
    index = np.arange(row.size)
    # Every link between runs of adjacent rows joins a run to the first
    # run that touches it from one side or the other: two links that
    # skipped their first would cross, and runs in one row do not overlap.
    # Each run first hooks to its first touching run above (always a
    # lower index), so parents only ever point back in raster order ...
    above, has_above = _first_touching(starts, stops, -width, reach)
    parent = _compress(np.where(has_above, above, index))
    # ... then the links to the first run below merge trees: each root
    # hooks to the smallest root it meets, until every link lies within
    # one tree.
    below, has_below = _first_touching(starts, stops, width, reach)
    upper = index[has_below]
    lower = below[has_below]
    while True:
        root_u, root_l = parent[upper], parent[lower]
        if not np.count_nonzero(root_u != root_l):
            break
        np.minimum.at(parent, np.maximum(root_u, root_l), np.minimum(root_u, root_l))
        parent = _compress(parent)
    # each root is its region's first run, so counting roots in raster
    # order numbers the regions by their first pixel
    numbers = (parent == index).cumsum()
    return RunLabels(mask.shape, row, start, stop, numbers[parent], int(numbers[-1]))


def connected_components(
    labels: RunLabels, min_area: int = DEFAULT_MIN_AREA
) -> list[BlobRecord]:
    """Blob records for each region of ``labels`` of at least ``min_area`` px.

    ``labels`` comes from :func:`label_mask`, so the connectivity is the
    one it was labelled with. Records come out in label (scan) order.
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
    col_min = np.full(count + 1, labels.shape[1])
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


def line_width(per_row: np.ndarray, pitch_x_um: float) -> float:
    """Mean width in mm of a line running along the bore axis.

    ``per_row`` holds one connected blob's pixel count in each row of its
    bounding box, top to bottom, so every row holds part of the line. The
    rows are cut into ``DEFAULT_SEGMENT_LEN``-row segments; each segment's
    width is its mean count per row times the column pitch, and the
    result is the mean over segments, so a short last segment weighs as
    much as a full one.
    """
    widths = [
        float(per_row[start : start + DEFAULT_SEGMENT_LEN].mean()) * pitch_x_um * 1e-3
        for start in range(0, per_row.size, DEFAULT_SEGMENT_LEN)
    ]
    return float(np.mean(widths))
