"""Run labelling checked against ``scipy.ndimage.label`` as a test oracle.

scipy is a test dependency only: the package labels from row runs with
numpy. A mask is the unwrapped bore wall, so its first and last columns
are neighbours. scipy gets the seam by labelling the mask with its first
column repeated after its last, and each pixel of that copy is then
joined to the pixel it copies. The reference blob records are built from
scipy's label image by the per-pixel method the run labeller replaced.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from borescan.detect import (
    BlobRecord,
    connected_components,
    label_mask,
    row_runs,
)
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.locate import LINE_ASPECT, record_from_blob
from borescan.scanplan import WallGrid


def labelled(mask):
    return label_mask(mask.shape, *row_runs(mask))


def scipy_label(mask):
    """scipy's 8-connected label image of ``mask`` round the cylinder,
    numbered by each region's first pixel in raster order, and the count."""
    width = mask.shape[1]
    padded, count = ndimage.label(
        np.concatenate((mask, mask[:, :1]), axis=1), structure=np.ones((3, 3), int)
    )
    root = list(range(count + 1))

    def find(label):
        while root[label] != label:
            label = root[label]
        return label

    for label, copy in zip(padded[:, 0].tolist(), padded[:, width].tolist()):
        root[find(label)] = find(copy)
    labels = np.array([find(label) for label in range(count + 1)])[padded[:, :width]]
    ids, first = np.unique(labels[labels > 0], return_index=True)
    number = np.zeros(count + 1, dtype=int)
    number[ids[np.argsort(first)]] = np.arange(1, ids.size + 1)
    return number[labels], ids.size


def unwrapped(labels):
    """``labels`` on a canvas twice as wide, with each region across the
    seam (a pixel in column 0 beside one of its own in the last column)
    moved as the package moves it: its runs in the left half go one width
    right."""
    height, width = labels.shape
    across = {
        int(labels[row, 0])
        for row in range(height)
        for beside in range(max(row - 1, 0), min(row + 2, height))
        if labels[row, 0] and labels[beside, width - 1]
    }
    out = np.zeros((height, 2 * width), dtype=labels.dtype)
    for row in range(height):
        edges = np.flatnonzero(np.diff(np.concatenate(([0], labels[row] > 0, [0]))))
        for start, stop in zip(edges[0::2].tolist(), edges[1::2].tolist()):
            label = int(labels[row, start])
            shift = width if label in across and 2 * stop <= width else 0
            out[row, start + shift : stop + shift] = label
    return out


def paint(runs):
    """The unwrapped label image of labelled runs: each run's label over its
    columns."""
    labels = np.zeros((runs.shape[0], 2 * runs.shape[1]), dtype=int)
    for row, start, stop, label in zip(runs.row, runs.start, runs.stop, runs.label):
        labels[row, start:stop] = label
    return labels


def reference_components(labels, min_area):
    """Blob records from a label image, per pixel (the former method)."""
    count = labels.max()
    if count == 0:
        return []
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


def assert_matches_scipy(mask, min_area=1):
    want, count = scipy_label(mask)
    runs = labelled(mask)
    assert runs.shape == mask.shape
    assert runs.count == count
    np.testing.assert_array_equal(paint(runs), unwrapped(want))
    assert np.all(np.diff(runs.row) >= 0)
    assert np.all(runs.start < runs.stop)
    assert connected_components(runs, min_area) == reference_components(
        unwrapped(want), min_area
    )


@st.composite
def masks(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    fill = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((rows, cols)) < fill


class TestAgainstScipy:
    @settings(max_examples=300, deadline=None)
    @given(mask=masks(), min_area=st.integers(0, 12))
    def test_random_masks(self, mask, min_area):
        assert_matches_scipy(mask, min_area)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 300),
        vertical=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_row_and_single_column(self, length, vertical, seed):
        mask = np.random.default_rng(seed).random((1, length)) < 0.5
        assert_matches_scipy(mask.T if vertical else mask)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (13, 9), (695, 695)])
    def test_empty_and_full(self, shape):
        assert_matches_scipy(np.zeros(shape, dtype=bool))
        assert_matches_scipy(np.ones(shape, dtype=bool))
        assert labelled(np.zeros(shape, dtype=bool)).count == 0
        assert labelled(np.ones(shape, dtype=bool)).count == 1


def comb(size=695):
    """1-px columns, each joined to the next alternately at top and bottom."""
    mask = np.zeros((size, size), dtype=bool)
    mask[1:-1, ::2] = True
    for j, col in enumerate(range(0, size - 2, 2)):
        mask[0 if j % 2 == 0 else -1, col : col + 3] = True
    return mask


def serpentine(size=695):
    """1-px rows, each joined to the next alternately at the right and left."""
    return comb(size).T.copy()


def noise(size=695):
    return np.random.default_rng(695).random((size, size)) < 0.5


@pytest.mark.parametrize("build", [comb, serpentine, noise])
def test_adversarial_tile_masks(build):
    mask = build()
    start = time.perf_counter()
    runs = labelled(mask)
    blobs = connected_components(runs, 1)
    elapsed = time.perf_counter() - start
    want, count = scipy_label(mask)
    assert runs.count == count
    np.testing.assert_array_equal(paint(runs), unwrapped(want))
    assert blobs == reference_components(unwrapped(want), 1)
    if build is not noise:
        assert count == 1  # one winding component of about 241k runs
    assert elapsed < 0.5


class TestRecordFromBlob:
    """Line widths from runs equal the label-image crop's pixels of the
    blob over the crop's rows."""

    OPTICS = OpticsConfig()
    GRID = WallGrid.of(HoleSpec(2.0, 47.0), OPTICS)

    @settings(max_examples=100, deadline=None)
    @given(mask=masks())
    def test_line_sizes_match_label_image_crop(self, mask):
        want = unwrapped(scipy_label(mask)[0])
        runs = labelled(mask)
        for blob in connected_components(runs, 1):
            rec = record_from_blob(blob, self.GRID, ())
            col_min, row_min, col_max, row_max = blob.bbox
            if row_max - row_min + 1 < LINE_ASPECT * (col_max - col_min + 1):
                assert rec.kind == "disc"
                continue
            crop = want[row_min : row_max + 1, col_min : col_max + 1] == blob.label
            expected = crop.sum() / crop.shape[0] * self.OPTICS.pixel_pitch_x_um * 1e-3
            assert rec.kind == "line"
            assert rec.size_mm == expected
