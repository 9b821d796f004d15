"""Bore-coordinate mapping, duplicate merging, and panorama stitching."""

import dataclasses
import math

import numpy as np
import pytest

from borescan.detect import BlobRecord, binarize, connected_components, label_mask
from borescan.errors import ConfigError, DomainError, PlanIndexError
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.locate import (
    DefectRecord,
    circular_delta_deg,
    defect_location,
    merge_duplicates,
    record_from_blob,
    stitch_panorama,
)
from borescan.scanplan import EffectiveRegion, plan_scan
from borescan.synth import DefectSpec, build_texture, render_stack, tile_shape_for
from borescan.unwrap import TileImage, correct_tile

CFG = OpticsConfig(
    mirror_diameter_mm=1.0,
    image_diameter_mm=2.0,
    image_to_eyepiece_mm=4.0,
    lens_length_mm=150.0,
    lens_to_mirror_mm=1.0,
    pixel_pitch_x_um=2.16,
    pixel_pitch_y_um=2.16,
)
REGION = EffectiveRegion()
HOLE = HoleSpec(2.0, 47.0)
PLAN = plan_scan(HOLE, REGION)  # 32 depths x 9 rotations
TILE_SHAPE = (695, 695)


def make_record(
    beta,
    z,
    kind="disc",
    area=0.01,
    arc_half=1.0,
    z_half=0.1,
    size=0.1,
    tiles=((0, 0),),
):
    return DefectRecord(
        kind=kind,
        z_mm=z,
        beta_deg=beta % 360.0,
        size_mm=size,
        area_mm2=area,
        z_min_mm=z - z_half,
        z_max_mm=z + z_half,
        arc_center_deg=beta % 360.0,
        arc_half_deg=arc_half,
        source_tiles=tuple(tiles),
        centroids_px=((0.0, 0.0),),
    )


class TestCircularDelta:
    def test_plain_and_wrapped(self):
        assert circular_delta_deg(10.0, 30.0) == pytest.approx(20.0)
        assert circular_delta_deg(359.0, 1.0) == pytest.approx(2.0)
        assert circular_delta_deg(0.0, 180.0) == pytest.approx(180.0)


class TestDefectLocation:
    def test_tile_center_maps_to_event_position(self):
        z, beta = defect_location(0, 0, 347.0, 347.0, PLAN, HOLE, CFG, TILE_SHAPE)
        assert z == pytest.approx(47.0)
        assert beta == pytest.approx(0.0)

    def test_depth_and_rotation_steps(self):
        z, beta = defect_location(10, 3, 347.0, 347.0, PLAN, HOLE, CFG, TILE_SHAPE)
        assert z == pytest.approx(47.0 - 15.0)
        assert beta == pytest.approx(120.0)

    def test_column_offset_adds_arc_angle(self):
        _, beta = defect_location(0, 0, 447.0, 347.0, PLAN, HOLE, CFG, TILE_SHAPE)
        # 100 px * 2.16 um at r = 2 mm
        assert beta == pytest.approx(6.18794418741, abs=1e-9)

    def test_row_offset_subtracts_axial_travel(self):
        z, _ = defect_location(0, 0, 347.0, 447.0, PLAN, HOLE, CFG, TILE_SHAPE)
        assert z == pytest.approx(47.0 - 0.216)

    def test_angle_wraps_below_zero(self):
        _, beta = defect_location(0, 0, 100.0, 347.0, PLAN, HOLE, CFG, TILE_SHAPE)
        assert 340.0 < beta < 360.0

    def test_out_of_plan_indices_rejected(self):
        with pytest.raises(PlanIndexError):
            defect_location(32, 0, 347.0, 347.0, PLAN, HOLE, CFG, TILE_SHAPE)
        with pytest.raises(PlanIndexError):
            defect_location(0, 9, 347.0, 347.0, PLAN, HOLE, CFG, TILE_SHAPE)

    def test_pixel_outside_tile_rejected(self):
        with pytest.raises(DomainError):
            defect_location(0, 0, -1.0, 347.0, PLAN, HOLE, CFG, TILE_SHAPE)
        with pytest.raises(DomainError):
            defect_location(0, 0, 347.0, 695.0, PLAN, HOLE, CFG, TILE_SHAPE)

    def test_half_pixel_slack_for_bbox_corners(self):
        defect_location(0, 0, -0.5, 694.5, PLAN, HOLE, CFG, TILE_SHAPE)


class TestDefectArea:
    """``record_from_blob(...).area_mm2``: pixel count times both pitches."""

    def area(self, pixel_count):
        # a square bbox keeps the blob a disc; its area needs only the count
        blob = BlobRecord(1, pixel_count, (347.0, 347.0), (337, 337, 357, 357))
        labels = np.zeros(TILE_SHAPE, dtype=int)
        return record_from_blob(blob, labels, 0, 0, PLAN, HOLE, CFG).area_mm2

    def test_zero_and_reference_count(self):
        assert self.area(0) == 0.0
        assert self.area(1684) == pytest.approx(0.0078568704)

    def test_linear_in_count(self):
        assert self.area(500) == pytest.approx(500 * self.area(1))

    def test_validation(self):
        # the product trusts the pitches: the optics config refuses bad ones
        with pytest.raises(ConfigError):
            dataclasses.replace(CFG, pixel_pitch_y_um=-2.16)


class TestRecordFromBlob:
    def blob_from(self, labels):
        blobs = connected_components(label_mask(labels > 0), min_area=1)
        assert len(blobs) == 1
        return blobs[0]

    def test_square_blob_is_disc_with_equivalent_diameter(self):
        labels = np.zeros(TILE_SHAPE, dtype=int)
        labels[337:357, 337:357] = 1
        rec = record_from_blob(self.blob_from(labels), labels, 0, 0, PLAN, HOLE, CFG)
        assert rec.kind == "disc"
        assert rec.area_mm2 == pytest.approx(400 * 4.6656e-6)
        assert rec.size_mm == pytest.approx(2 * math.sqrt(rec.area_mm2 / math.pi))
        assert rec.z_mm == pytest.approx(47.0 + 0.5 * 2.16e-3)
        assert rec.beta_deg == pytest.approx(360.0 - 0.0309397, abs=1e-4)
        assert rec.source_tiles == ((0, 0),)

    def test_tall_blob_is_line_with_measured_width(self):
        labels = np.zeros(TILE_SHAPE, dtype=int)
        labels[:, 278:417] = 1  # 139 px wide, full height
        rec = record_from_blob(self.blob_from(labels), labels, 1, 2, PLAN, HOLE, CFG)
        assert rec.kind == "line"
        assert rec.size_mm == pytest.approx(0.30024)
        assert rec.beta_deg == pytest.approx(80.0)
        # 695 rows cover 695 * 2.16 um of axis
        assert rec.axial_extent_mm == pytest.approx(0.69500 * 2.16)
        assert rec.z_min_mm == pytest.approx(47.0 - 1.5 - 347.5 * 2.16e-3)
        assert rec.z_max_mm == pytest.approx(47.0 - 1.5 + 347.5 * 2.16e-3)

    def test_line_width_counts_only_its_own_label(self):
        mask = np.zeros(TILE_SHAPE, dtype=bool)
        mask[100:400, 300:310] = True  # 10 px wide line, 300 rows
        mask[100:164, 304:310] = False  # 4 px wide over its first segment
        mask[110:116, 306:310] = True  # disc pixels inside the line's bbox
        labels = label_mask(mask)
        line = max(connected_components(labels, min_area=1), key=lambda b: b.pixel_area)
        assert line.bbox == (300, 100, 309, 399)
        rec = record_from_blob(line, labels, 0, 0, PLAN, HOLE, CFG)
        assert rec.kind == "line"
        # segments of 4, 10, 10, 10 and 10 px; the disc adds nothing
        assert rec.size_mm == pytest.approx(8.8 * 2.16e-3)

    def test_interval_halves_cover_bbox(self):
        labels = np.zeros(TILE_SHAPE, dtype=int)
        labels[100:120, 600:640] = 1
        rec = record_from_blob(self.blob_from(labels), labels, 0, 0, PLAN, HOLE, CFG)
        arc_px = 40 * 2.16e-3
        assert rec.arc_extent_mm(2.0) == pytest.approx(arc_px)
        assert rec.axial_extent_mm == pytest.approx(20 * 2.16e-3)


class TestMergeDuplicates:
    def test_empty_and_singleton(self):
        assert merge_duplicates([], radius_mm=2.0) == []
        rec = make_record(100.0, 30.0)
        out = merge_duplicates([rec], radius_mm=2.0)
        assert len(out) == 1
        assert out[0].id == 0
        assert out[0].beta_deg == rec.beta_deg
        assert out[0].size_mm == rec.size_mm

    def test_radius_required(self):
        with pytest.raises(DomainError):
            merge_duplicates([make_record(0.0, 1.0)])

    def test_overlapping_duplicates_merge_with_weighted_position(self):
        a = make_record(100.0, 30.0, area=0.03, arc_half=2.0)
        b = make_record(101.0, 30.05, area=0.01, arc_half=2.0)
        out = merge_duplicates([a, b], radius_mm=2.0)
        assert len(out) == 1
        rec = out[0]
        assert rec.beta_deg == pytest.approx(100.25)
        assert rec.z_mm == pytest.approx((30.0 * 3 + 30.05) / 4)
        assert rec.area_mm2 == 0.03  # keeps the largest estimate
        assert rec.z_min_mm == pytest.approx(29.9)
        assert rec.z_max_mm == pytest.approx(30.15)
        assert rec.source_tiles == ((0, 0),)

    def test_seam_wraparound_merges(self):
        a = make_record(359.5, 10.0, arc_half=1.5)
        b = make_record(0.5, 10.0, arc_half=1.5)
        out = merge_duplicates([a, b], radius_mm=2.0)
        assert len(out) == 1
        assert min(out[0].beta_deg, 360.0 - out[0].beta_deg) == pytest.approx(
            0.0, abs=1e-9
        )
        assert out[0].arc_half_deg == pytest.approx(2.0)

    def test_distinct_pair_stays_separate(self):
        # two 0.2 mm discs 0.4 mm apart on a 4 mm bore
        half = math.degrees(0.05 / 2.0)
        a = make_record(154.27, 30.0, arc_half=half)
        b = make_record(165.73, 30.0, arc_half=half)
        out = merge_duplicates([a, b], radius_mm=2.0)
        assert len(out) == 2

    def test_merge_is_transitive_through_a_bridge(self):
        a = make_record(10.0, 10.0, z_half=0.5)  # [9.5, 10.5]
        b = make_record(10.0, 11.7, z_half=0.5)  # [11.2, 12.2]; gap 0.7 from a
        c = make_record(10.0, 10.85, z_half=0.32)  # touches both
        assert len(merge_duplicates([a, b], radius_mm=2.0)) == 2
        assert len(merge_duplicates([a, b, c], radius_mm=2.0)) == 1

    def test_merging_twice_changes_nothing(self):
        records = [
            make_record(10.0, 10.0, z_half=0.5),
            make_record(10.4, 10.9, z_half=0.45, area=0.02),
            make_record(11.0, 11.6, z_half=0.3),
            make_record(200.0, 10.0),
        ]
        once = merge_duplicates(records, radius_mm=2.0)
        twice = merge_duplicates(once, radius_mm=2.0)
        assert once == twice

    def test_line_absorbs_disc_stub(self):
        stub = make_record(240.0, 46.5, kind="disc", z_half=0.15, area=0.005)
        body = make_record(
            240.0, 45.0, kind="line", z_half=1.4, area=0.05, size=0.3, tiles=((1, 6),)
        )
        out = merge_duplicates([stub, body], radius_mm=2.0)
        assert len(out) == 1
        rec = out[0]
        assert rec.kind == "line"
        assert rec.size_mm == pytest.approx(0.3)  # width from the line member only
        assert rec.z_mm == pytest.approx((46.65 + 43.6) / 2)
        assert rec.source_tiles == ((0, 0), (1, 6))

    def test_tall_merged_cluster_promotes_to_line(self):
        pieces = [
            make_record(50.0, 20.0 + 0.18 * i, z_half=0.1, arc_half=0.9)
            for i in range(10)
        ]
        out = merge_duplicates(pieces, radius_mm=2.0)
        assert len(out) == 1
        assert out[0].kind == "line"

    def test_beta_tolerance_override(self):
        a = make_record(10.0, 10.0, arc_half=0.1)
        b = make_record(30.0, 10.0, arc_half=0.1)
        assert len(merge_duplicates([a, b], radius_mm=2.0)) == 2
        assert len(merge_duplicates([a, b], tol_beta_deg=25.0, radius_mm=2.0)) == 1


class TestStitchPanorama:
    HOLE = HoleSpec(0.9, 2.0)
    PLAN = plan_scan(HoleSpec(0.9, 2.0), REGION)  # 2 depths x 4 rotations

    def uniform_tiles(self):
        tiles = []
        for event in self.PLAN.schedule:
            tiles.append(
                TileImage(
                    np.full((695, 695), 180, dtype=np.uint8),
                    2.16,
                    2.16,
                    tile_index=(event.depth_step, event.rotation_step),
                )
            )
        return tiles

    def test_full_plan_covers_whole_canvas(self):
        pano = stitch_panorama(self.uniform_tiles(), self.PLAN, self.HOLE, CFG)
        assert pano.pixels.shape == (926, 2618)
        assert pano.meta["uncovered_px"] == 0
        assert pano.meta["missing_tiles"] == []
        assert (pano.pixels == 180).all()

    def test_dimensions_ignore_plan_order(self):
        reordered = dataclasses.replace(
            self.PLAN, schedule=tuple(reversed(self.PLAN.schedule))
        )
        pano = stitch_panorama(self.uniform_tiles(), reordered, self.HOLE, CFG)
        assert pano.pixels.shape == (926, 2618)
        assert pano.meta["uncovered_px"] == 0

    def test_missing_tile_reported_and_leaves_gap(self):
        tiles = [t for t in self.uniform_tiles() if t.tile_index != (1, 2)]
        pano = stitch_panorama(tiles, self.PLAN, self.HOLE, CFG)
        assert pano.meta["missing_tiles"] == [(1, 2)]
        assert pano.meta["uncovered_px"] > 0

    def test_unindexed_tile_rejected(self):
        tiles = self.uniform_tiles()
        tiles[0] = TileImage(tiles[0].pixels, 2.16, 2.16)
        with pytest.raises(DomainError):
            stitch_panorama(tiles, self.PLAN, self.HOLE, CFG)

    def test_planted_disc_lands_at_its_bore_position(self):
        spot = DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2)
        texture = build_texture(self.HOLE, [spot])
        tiles, _ = render_stack(texture, self.PLAN, CFG, REGION)
        corrected = [correct_tile(t, self.HOLE.radius_mm) for t in tiles]
        pano = stitch_panorama(corrected, self.PLAN, self.HOLE, CFG)
        blobs = connected_components(label_mask(binarize(pano, threshold=0.5)))
        assert len(blobs) == 1
        u, v = blobs[0].centroid
        assert u == pytest.approx(100.0 / 360.0 * 2618, abs=3.0)
        # rows count down from the nozzle: z' = 1.0 mm above the bottom
        assert v == pytest.approx(1000.0 / 2.16, abs=3.0)
        assert blobs[0].pixel_area == pytest.approx(6733.5, rel=0.03)
