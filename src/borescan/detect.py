"""Defect extraction and measurement on corrected tiles.

Binarization (fixed or Otsu threshold), 8-connected blob labeling, and
line widths in mm via the pixel pitch. Each tile is labelled once; the
blob records and the line-width crops all read that one label image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ThresholdError
from .unwrap import TileImage

__all__ = [
    "BlobRecord",
    "LineMeasurement",
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

_EIGHT = np.ones((3, 3), dtype=int)
_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)


@dataclass(frozen=True)
class BlobRecord:
    """One connected foreground region.

    ``label`` is the region's value in the label image it came from;
    ``centroid`` is (column m, row n) in fractional pixels; ``bbox`` is
    (col_min, row_min, col_max, row_max), inclusive.
    """

    label: int
    pixel_area: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]


@dataclass(frozen=True)
class LineMeasurement:
    """Per-segment widths of a line-like feature."""

    segment_widths_mm: tuple[float, ...]
    mean_width_mm: float
    segment_count: int


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
    :class:`ThresholdError` on degenerate input so the caller can fall
    back to a fixed cut. Dark polarity (the default) selects pixels at or
    below the cut.
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


def label_mask(mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Integer label image of connected foreground regions (0 = background).

    8-connectivity by default so thin diagonal cracks stay in one piece.
    """
    if connectivity not in (4, 8):
        raise DomainError("connectivity must be 4 or 8")
    # scipy loads here, not at import: plan and synth never label
    from scipy import ndimage

    structure = _EIGHT if connectivity == 8 else _FOUR
    labels, _ = ndimage.label(np.asarray(mask, dtype=bool), structure=structure)
    return labels


def connected_components(
    labels: np.ndarray, min_area: int = DEFAULT_MIN_AREA
) -> list[BlobRecord]:
    """Blob records for each region of ``labels`` of at least ``min_area`` px.

    ``labels`` is a :func:`label_mask` image, so the connectivity is the
    one it was labelled with. Records come out in label (scan) order.
    """
    count = labels.max()
    if count == 0:
        return []
    from scipy import ndimage

    rows, cols = np.nonzero(labels)
    ids = labels[rows, cols]
    areas = np.bincount(ids, minlength=count + 1)
    sum_c = np.bincount(ids, weights=cols, minlength=count + 1)
    sum_r = np.bincount(ids, weights=rows, minlength=count + 1)
    boxes = ndimage.find_objects(labels)
    records = []
    for label in range(1, count + 1):
        area = int(areas[label])
        if area < min_area:
            continue
        row_slice, col_slice = boxes[label - 1]
        records.append(
            BlobRecord(
                label=label,
                pixel_area=area,
                centroid=(sum_c[label] / area, sum_r[label] / area),
                bbox=(
                    col_slice.start,
                    row_slice.start,
                    col_slice.stop - 1,
                    row_slice.stop - 1,
                ),
            )
        )
    return records


def line_width(blob_crop: np.ndarray, pitch_x_um: float) -> LineMeasurement:
    """Width of a line running along the bore axis, segment by segment.

    ``blob_crop`` is the boolean mask of one connected blob cut to its
    bounding box, so every row holds part of the line. The rows are cut
    into ``DEFAULT_SEGMENT_LEN``-row segments; each segment's width is its
    mean foreground count per row times the column pitch, and the
    headline number is the mean over segments.
    """
    per_row = blob_crop.sum(axis=1)
    widths = [
        float(per_row[start : start + DEFAULT_SEGMENT_LEN].mean()) * pitch_x_um * 1e-3
        for start in range(0, per_row.size, DEFAULT_SEGMENT_LEN)
    ]
    return LineMeasurement(
        segment_widths_mm=tuple(widths),
        mean_width_mm=float(np.mean(widths)),
        segment_count=len(widths),
    )
