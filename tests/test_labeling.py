"""Run labelling checked against ``scipy.ndimage.label`` as a test oracle.

scipy is a test dependency only: the package labels from row runs with
numpy. The reference blob records are built from scipy's label image by
the per-pixel method the run labeller replaced, kept here verbatim.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from borescan.detect import BlobRecord, connected_components, label_mask, line_width
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.locate import LINE_ASPECT, record_from_blob
from borescan.scanplan import EffectiveRegion, plan_scan

STRUCTURE = {
    8: np.ones((3, 3), dtype=int),
    4: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int),
}


def scipy_label(mask, connectivity):
    labels, count = ndimage.label(mask, structure=STRUCTURE[connectivity])
    return labels, count


def paint(runs):
    """The label image of labelled runs: each run's label over its columns."""
    labels = np.zeros(runs.shape, dtype=int)
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


def assert_matches_scipy(mask, connectivity, min_area=1):
    want, count = scipy_label(mask, connectivity)
    runs = label_mask(mask, connectivity)
    assert runs.shape == mask.shape
    assert runs.count == count
    np.testing.assert_array_equal(paint(runs), want)
    # raster order: rows ascend, runs in a row ascend and do not touch
    order = runs.row * (mask.shape[1] + 1) + runs.start
    assert np.all(np.diff(order) > 0)
    assert np.all(runs.start < runs.stop)
    assert connected_components(runs, min_area) == reference_components(want, min_area)


@st.composite
def masks(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    fill = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((rows, cols)) < fill


@pytest.mark.parametrize("connectivity", [4, 8])
class TestAgainstScipy:
    @settings(max_examples=300, deadline=None)
    @given(mask=masks(), min_area=st.integers(0, 12))
    def test_random_masks(self, connectivity, mask, min_area):
        assert_matches_scipy(mask, connectivity, min_area)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 300),
        vertical=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_row_and_single_column(self, connectivity, length, vertical, seed):
        mask = np.random.default_rng(seed).random((1, length)) < 0.5
        assert_matches_scipy(mask.T if vertical else mask, connectivity)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (13, 9), (695, 695)])
    def test_empty_and_full(self, connectivity, shape):
        assert_matches_scipy(np.zeros(shape, dtype=bool), connectivity)
        assert_matches_scipy(np.ones(shape, dtype=bool), connectivity)
        assert label_mask(np.zeros(shape, dtype=bool), connectivity).count == 0
        assert label_mask(np.ones(shape, dtype=bool), connectivity).count == 1


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


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("build", [comb, serpentine, noise])
def test_adversarial_tile_masks(connectivity, build):
    mask = build()
    start = time.perf_counter()
    runs = label_mask(mask, connectivity)
    blobs = connected_components(runs, 1)
    elapsed = time.perf_counter() - start
    want, count = scipy_label(mask, connectivity)
    assert runs.count == count
    np.testing.assert_array_equal(paint(runs), want)
    assert blobs == reference_components(want, 1)
    if build is not noise:
        assert count == 1  # one winding component of about 241k runs
    assert elapsed < 0.5


class TestRecordFromBlob:
    """Line widths from runs equal the widths of the label-image crop."""

    HOLE = HoleSpec(2.0, 47.0)
    PLAN = plan_scan(HOLE, EffectiveRegion())
    OPTICS = OpticsConfig()

    @settings(max_examples=100, deadline=None)
    @given(mask=masks())
    def test_line_sizes_match_label_image_crop(self, mask):
        want, _ = scipy_label(mask, 8)
        runs = label_mask(mask, 8)
        for blob in connected_components(runs, 1):
            rec = record_from_blob(blob, runs, 0, 0, self.PLAN, self.HOLE, self.OPTICS)
            col_min, row_min, col_max, row_max = blob.bbox
            if row_max - row_min + 1 < LINE_ASPECT * (col_max - col_min + 1):
                assert rec.kind == "disc"
                continue
            crop = want[row_min : row_max + 1, col_min : col_max + 1] == blob.label
            expected = line_width(crop.sum(axis=1), self.OPTICS.pixel_pitch_x_um)
            assert rec.kind == "line"
            assert rec.size_mm == expected
