"""Thresholding, labeling, blob sizing in mm, and line widths."""

import collections
import math

import numpy as np
import pytest

from borescan.detect import (
    BlobRecord,
    binarize,
    connected_components,
    label_mask,
    otsu_threshold,
    row_runs,
)
from borescan.errors import ConfigError, DomainError, ThresholdError
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.locate import record_from_blob
from borescan.scanplan import WallGrid
from borescan.synth import DefectSpec, build_texture

PITCH = 2.16


def flood_fill_labels(mask):
    """Reference labeling by breadth-first flood fill, 8-connected, with the
    first and last columns neighbours."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    labels = np.zeros((h, w), dtype=int)
    next_label = 0
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or labels[r, c]:
                continue
            next_label += 1
            queue = collections.deque([(r, c)])
            labels[r, c] = next_label
            while queue:
                cr, cc = queue.popleft()
                for dr, dc in steps:
                    nr, nc = cr + dr, (cc + dc) % w
                    if 0 <= nr < h and mask[nr, nc] and not labels[nr, nc]:
                        labels[nr, nc] = next_label
                        queue.append((nr, nc))
    return labels


def labelled(mask):
    return label_mask(mask.shape, *row_runs(mask))


def blobs_of(mask, min_area=1):
    return connected_components(labelled(mask), min_area)


def paint(runs):
    """The label image of labelled runs: each run's label over its columns,
    round the cylinder."""
    labels = np.zeros(runs.shape, dtype=int)
    width = runs.shape[1]
    for row, start, stop, label in zip(runs.row, runs.start, runs.stop, runs.label):
        labels[row, np.arange(start, stop) % width] = label
    return labels


def partition(labels):
    """Canonical form of a labeling: the set of per-label pixel sets."""
    groups = collections.defaultdict(set)
    for r, c in zip(*np.nonzero(labels)):
        groups[labels[r, c]].add((int(r), int(c)))
    return frozenset(frozenset(g) for g in groups.values())


class TestBinarize:
    def test_fixed_dark_selects_at_or_below_cut(self):
        img = np.array([[0, 127, 128, 255]], dtype=np.uint8)
        mask = binarize(img, method="fixed", threshold=0.5)
        assert mask.tolist() == [[True, True, False, False]]

    def test_fixed_cut_scales_with_bit_depth(self):
        img8 = np.full((4, 4), 100, dtype=np.uint8)
        img16 = np.full((4, 4), 100 * 257, dtype=np.uint16)
        assert binarize(img8, threshold=0.5).all()
        assert binarize(img16, threshold=0.5).all()
        assert not binarize(img8, threshold=0.3).any()
        assert not binarize(img16, threshold=0.3).any()

    def test_threshold_must_be_fraction(self):
        img = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(DomainError):
            binarize(img, threshold=128.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.int16, np.uint32])
    @pytest.mark.parametrize("method", ["fixed", "otsu"])
    def test_pixels_of_another_sample_dtype_are_refused(self, dtype, method):
        # a uint32 histogram would take 2**32 bins
        with pytest.raises(DomainError, match="unsupported dtype"):
            binarize(np.zeros((2, 2), dtype=dtype), method=method)

    def test_unknown_method_rejected(self):
        img = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(DomainError):
            binarize(img, method="adaptive")


class TestOtsu:
    def test_two_level_histogram_cuts_midway(self):
        pixels = np.full((20, 20), 200, dtype=np.uint8)
        pixels[:5, :5] = 50
        # between-class variance is flat over the empty span 50..199,
        # so the plateau rule must land in the middle
        assert otsu_threshold(pixels) == pytest.approx(124.5)

    def test_two_level_mask_separates_classes(self):
        pixels = np.full((20, 20), 200, dtype=np.uint8)
        pixels[:5, :5] = 50
        mask = binarize(pixels, method="otsu")
        assert mask.sum() == 25
        assert mask[:5, :5].all()

    def test_flat_histogram_raises(self):
        img = np.full((8, 8), 77, dtype=np.uint8)
        with pytest.raises(ThresholdError):
            binarize(img, method="otsu")

    def test_noisy_disc_foreground_count_close_to_clean(self):
        hole = HoleSpec(0.9, 2.0)
        spot = DefectSpec("disc", z_mm=1.0, beta_deg=180.0, size_mm=0.2)
        texture = build_texture(hole, [spot], background=180)
        truth_count = int(binarize(texture.pixels, threshold=0.5).sum())
        rng = np.random.default_rng(11)
        noisy = np.clip(
            np.rint(texture.pixels.astype(np.float64) + rng.normal(0, 5, texture.pixels.shape)),
            0,
            255,
        ).astype(np.uint8)
        count = int(binarize(noisy, method="otsu").sum())
        assert abs(count - truth_count) / truth_count < 0.03


class TestConnectedComponents:
    def test_empty_mask_yields_no_blobs(self):
        assert blobs_of(np.zeros((16, 16), dtype=bool)) == []

    def test_two_separate_squares(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[2:6, 2:6] = True
        mask[10:14, 10:14] = True
        blobs = blobs_of(mask)
        assert len(blobs) == 2
        assert all(b.pixel_area == 16 for b in blobs)
        assert blobs[0].centroid == (3.5, 3.5)
        assert blobs[0].bbox == (2, 2, 5, 5)

    def test_diagonal_touch_joins(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 1:3] = True
        mask[3:6, 3:6] = True
        assert len(blobs_of(mask)) == 1

    @pytest.mark.parametrize("row", [0, 3])
    def test_region_across_the_seam_is_one_blob_on_unwrapped_columns(self, row):
        # columns 0..2 and 13..15 of a 16-column wall, the right part one
        # row lower: 8-connected across the seam, centred on column 15.5
        mask = np.zeros((8, 16), dtype=bool)
        mask[row : row + 4, 0:3] = True
        mask[row + 1 : row + 5, 13:16] = True
        [blob] = blobs_of(mask)
        assert blob.pixel_area == 24
        assert blob.bbox == (13, row, 18, row + 4)
        assert blob.centroid == (15.5, row + 2.0)

    def test_min_area_drops_specks(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[1, 1] = True  # 1 px speck
        mask[8:12, 8:12] = True  # 16 px blob
        blobs = blobs_of(mask, min_area=9)
        assert len(blobs) == 1
        assert blobs[0].pixel_area == 16

    def test_areas_sum_to_foreground_count(self):
        rng = np.random.default_rng(3)
        mask = rng.random((64, 64)) < 0.3
        blobs = blobs_of(mask)
        assert sum(b.pixel_area for b in blobs) == int(mask.sum())

    def test_translation_moves_centroid_only(self):
        mask = np.zeros((32, 32), dtype=bool)
        mask[4:9, 6:10] = True
        shifted = np.roll(np.roll(mask, 7, axis=0), 5, axis=1)
        a = blobs_of(mask)[0]
        b = blobs_of(shifted)[0]
        assert b.pixel_area == a.pixel_area
        assert b.centroid == (a.centroid[0] + 5, a.centroid[1] + 7)

    def test_matches_flood_fill_on_random_masks(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            mask = rng.random((32, 32)) < rng.uniform(0.2, 0.7)
            got = partition(paint(labelled(mask)))
            want = partition(flood_fill_labels(mask))
            assert got == want


class TestBlobMetrics:
    """Blob sizes in mm, as :func:`record_from_blob` reports them."""

    HOLE = HoleSpec(0.9, 2.0)

    def record(self, blob, pitch_x_um=PITCH, pitch_y_um=PITCH):
        cfg = OpticsConfig(pixel_pitch_x_um=pitch_x_um, pixel_pitch_y_um=pitch_y_um)
        return record_from_blob(blob, WallGrid.of(self.HOLE, cfg), ())

    def test_single_pixel_area(self):
        rec = self.record(BlobRecord(1, 1, (5.0, 5.0), (5, 5, 5, 5)))
        # one 2.16 x 2.16 um cell
        assert rec.area_mm2 == pytest.approx(4.6656e-6)
        assert rec.size_mm == pytest.approx(2 * math.sqrt(4.6656e-6 / math.pi))

    def test_rejects_bad_pitch(self):
        # sizing trusts the pitch: the optics config refuses a zero one
        with pytest.raises(ConfigError):
            OpticsConfig(pixel_pitch_x_um=0.0)

    def rasterized_diameter(self, size_mm, pitch_um):
        spot = DefectSpec("disc", z_mm=1.0, beta_deg=180.0, size_mm=size_mm)
        texture = build_texture(self.HOLE, [spot], pitch_um=pitch_um)
        labels = labelled(binarize(texture.pixels, threshold=0.5))
        blobs = connected_components(labels)
        assert len(blobs) == 1
        rec = self.record(blobs[0], texture.grid.arc_pitch_um, pitch_um)
        assert rec.kind == "disc"
        return rec.size_mm

    @pytest.mark.parametrize("size_mm", [0.1, 0.2])
    def test_equivalent_diameter_of_rasterized_disc(self, size_mm):
        assert self.rasterized_diameter(size_mm, PITCH) == pytest.approx(
            size_mm, abs=0.005
        )

    def test_diameter_error_shrinks_with_finer_pitch(self):
        coarse = abs(self.rasterized_diameter(0.1, 12.0) - 0.1)
        fine = abs(self.rasterized_diameter(0.1, PITCH) - 0.1)
        assert fine < coarse

