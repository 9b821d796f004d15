"""Bore-coordinate mapping, duplicate merging, panorama stitching, and the
inspect pipeline that runs them."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from borescan.detect import BlobRecord, binarize, connected_components, label_mask
from borescan.errors import ConfigError, DomainError, PlanIndexError
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.locate import (
    DefectRecord,
    circular_delta_deg,
    defect_location,
    inspect_stack,
    inspect_tile,
    merge_duplicates,
    record_from_blob,
    stitch_panorama,
)
from borescan.pgm import read_pgm
from borescan.scanplan import CaptureEvent, EffectiveRegion, ScanPlan, plan_scan
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
        labels = label_mask(np.zeros(TILE_SHAPE, dtype=bool))
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
    def blob_from(self, mask):
        labels = label_mask(mask)
        blobs = connected_components(labels, min_area=1)
        assert len(blobs) == 1
        return blobs[0], labels

    def test_square_blob_is_disc_with_equivalent_diameter(self):
        mask = np.zeros(TILE_SHAPE, dtype=bool)
        mask[337:357, 337:357] = True
        rec = record_from_blob(*self.blob_from(mask), 0, 0, PLAN, HOLE, CFG)
        assert rec.kind == "disc"
        assert rec.area_mm2 == pytest.approx(400 * 4.6656e-6)
        assert rec.size_mm == pytest.approx(2 * math.sqrt(rec.area_mm2 / math.pi))
        assert rec.z_mm == pytest.approx(47.0 + 0.5 * 2.16e-3)
        assert rec.beta_deg == pytest.approx(360.0 - 0.0309397, abs=1e-4)
        assert rec.source_tiles == ((0, 0),)

    def test_tall_blob_is_line_with_measured_width(self):
        mask = np.zeros(TILE_SHAPE, dtype=bool)
        mask[:, 278:417] = True  # 139 px wide, full height
        rec = record_from_blob(*self.blob_from(mask), 1, 2, PLAN, HOLE, CFG)
        assert rec.kind == "line"
        assert rec.size_mm == pytest.approx(0.30024)
        assert rec.beta_deg == pytest.approx(80.0)
        # 695 rows cover 695 * 2.16 um of axis
        assert rec.z_max_mm - rec.z_min_mm == pytest.approx(0.69500 * 2.16)
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
        mask = np.zeros(TILE_SHAPE, dtype=bool)
        mask[100:120, 600:640] = True
        rec = record_from_blob(*self.blob_from(mask), 0, 0, PLAN, HOLE, CFG)
        arc_px = 40 * 2.16e-3
        assert 2.0 * math.radians(rec.arc_half_deg) * 2.0 == pytest.approx(arc_px)
        assert rec.z_max_mm - rec.z_min_mm == pytest.approx(20 * 2.16e-3)


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
            merge_duplicates([make_record(0.0, 1.0)], radius_mm=0)

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


def stitched(tiles, plan, hole, tile_shape, path):
    """Stitch ``tiles`` into the PGM at ``path``; returns what the file holds
    and the stitch's result."""
    with open(path, "wb") as sink:
        pano = stitch_panorama(tiles, plan, hole, CFG, tile_shape, sink)
    return read_pgm(path), pano


def pasted_in_schedule_order(tiles, plan, shape):
    """Oracle canvas: every tile pasted whole, modulo the width, in schedule
    order, so that the tile latest in the schedule wins each pixel."""
    height, width = shape
    canvas = np.zeros(shape, dtype=np.uint8)
    by_index = {tile.tile_index: tile.pixels for tile in tiles}
    for event in plan.schedule:
        pixels = by_index.get((event.depth_step, event.rotation_step))
        if pixels is None:
            continue
        h, w = pixels.shape
        row0 = round(event.z_mm * 1e3 / CFG.pixel_pitch_y_um) - (h - 1) // 2
        col0 = round(event.theta_deg / 360.0 * width) - (w - 1) // 2
        rows = np.arange(row0, row0 + h)
        inside = (rows >= 0) & (rows < height)
        cols = (col0 + np.arange(w)) % width
        canvas[np.ix_(rows[inside], cols)] = pixels[inside]
    return canvas


class TestStitchPanorama:
    HOLE = HoleSpec(0.9, 2.0)
    PLAN = plan_scan(HoleSpec(0.9, 2.0), REGION)  # 2 depths x 4 rotations
    # 3 depths x 4 rotations of 40 x 60 px tiles: neighbours overlap by 17
    # rows and 20 columns, so tiles of adjacent depth rows meet diagonally,
    # and rotation 0 wraps the 360-degree seam
    DENSE = ScanPlan(
        4, 3, 5.5, 0.05,
        tuple(
            CaptureEvent(3 * k + j, j, k, 0.5 + 0.05 * j, (358.5 + 5.5 * k) % 360.0)
            for k in range(4)
            for j in range(3)
        ),
    )

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

    def test_full_plan_covers_whole_canvas(self, tmp_path):
        pixels, pano = stitched(
            self.uniform_tiles(), self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm"
        )
        assert pixels.shape == pano.shape == (926, 2618)
        assert pano.meta["uncovered_px"] == 0
        assert pano.meta["missing_tiles"] == []
        assert (pixels == 180).all()

    def test_dimensions_ignore_plan_order(self, tmp_path):
        reordered = dataclasses.replace(
            self.PLAN, schedule=tuple(reversed(self.PLAN.schedule))
        )
        pixels, pano = stitched(
            self.uniform_tiles(), reordered, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm"
        )
        assert pixels.shape == (926, 2618)
        assert pano.meta["uncovered_px"] == 0

    def test_missing_tile_reported_and_leaves_gap(self, tmp_path):
        tiles = [t for t in self.uniform_tiles() if t.tile_index != (1, 2)]
        pixels, pano = stitched(tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")
        assert pano.meta["missing_tiles"] == [(1, 2)]
        assert pano.meta["uncovered_px"] == np.count_nonzero(pixels == 0) > 0

    def test_generator_gives_the_same_panorama_as_a_list(self, tmp_path):
        # distinct random tiles, so any change in paste order shows in the overlaps
        rng = np.random.default_rng(3)
        tiles = [
            TileImage(
                rng.integers(1, 256, (695, 695), dtype=np.uint8), 2.16, 2.16,
                tile_index=(event.depth_step, event.rotation_step),
            )
            for event in self.PLAN.schedule
            if (event.depth_step, event.rotation_step) != (0, 3)
        ]
        listed, listed_pano = stitched(
            tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "listed.pgm"
        )
        streamed, streamed_pano = stitched(
            (tile for tile in tiles), self.PLAN, self.HOLE, TILE_SHAPE,
            tmp_path / "streamed.pgm",
        )
        assert np.array_equal(streamed, listed)
        assert streamed_pano == listed_pano
        assert listed_pano.meta["missing_tiles"] == [(0, 3)]

    @pytest.mark.parametrize("plan_name", ["PLAN", "DENSE"])
    def test_arrival_order_does_not_change_the_bytes(self, tmp_path, plan_name):
        # distinct random tiles, so any change in the overlap rule shows
        plan = getattr(self, plan_name)
        shape = TILE_SHAPE if plan is self.PLAN else (40, 60)
        rng = np.random.default_rng(3)
        tiles = [
            TileImage(
                rng.integers(1, 256, shape, dtype=np.uint8), 2.16, 2.16,
                tile_index=(event.depth_step, event.rotation_step),
            )
            for event in plan.schedule
        ]
        orders = {
            "schedule": tiles,
            "plan-row": sorted(tiles, key=lambda tile: tile.tile_index),
            "reversed": tiles[::-1],
            "shuffled": [tiles[i] for i in rng.permutation(len(tiles))],
        }
        written, results = set(), []
        for name, order in orders.items():
            path = tmp_path / f"{name}.pgm"
            _, pano = stitched((tile for tile in order), plan, self.HOLE, shape, path)
            written.add(path.read_bytes())
            results.append(pano)
        assert len(written) == 1
        assert all(pano == results[0] for pano in results)
        expected = pasted_in_schedule_order(tiles, plan, (926, 2618))
        np.testing.assert_array_equal(read_pgm(tmp_path / "shuffled.pgm"), expected)
        assert pano.meta == {
            "missing_tiles": [], "uncovered_px": np.count_nonzero(expected == 0)
        }

    def test_out_of_plan_tile_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        tiles[3] = TileImage(tiles[3].pixels, 2.16, 2.16, tile_index=(5, 0))
        with pytest.raises(DomainError, match=r"\(5, 0\)"):
            stitched(iter(tiles), self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_unindexed_tile_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        tiles[0] = TileImage(tiles[0].pixels, 2.16, 2.16)
        with pytest.raises(DomainError):
            stitched(tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_tile_of_another_shape_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        tiles[5] = TileImage(tiles[5].pixels[:-1], 2.16, 2.16, tile_index=tiles[5].tile_index)
        with pytest.raises(DomainError, match="694x695 px, not the run's 695x695"):
            stitched(tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_tile_given_twice_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        with pytest.raises(DomainError, match=r"\(0, 0\) was given twice"):
            stitched(tiles + tiles[:1], self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_no_tiles_give_a_blank_canvas(self, tmp_path):
        pixels, pano = stitched([], self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")
        assert pixels.dtype == np.uint8 and pixels.shape == (926, 2618)
        assert not pixels.any()
        assert pano.meta["uncovered_px"] == pixels.size
        assert len(pano.meta["missing_tiles"]) == 8

    def test_sixteen_bit_tiles_give_a_sixteen_bit_panorama(self, tmp_path):
        tiles = [
            TileImage(tile.pixels.astype(np.uint16) * 257, 2.16, 2.16,
                      tile_index=tile.tile_index)
            for tile in self.uniform_tiles()
        ]
        pixels, _ = stitched(tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")
        assert pixels.dtype == np.uint16 and (pixels == 180 * 257).all()

    def test_seam_tile_splits_across_first_and_last_columns(self, tmp_path):
        h, w = 4, 9
        gradient = np.tile(np.arange(1, w + 1, dtype=np.uint8), (h, 1))
        plan = ScanPlan(1, 1, 360.0, 1.5, (CaptureEvent(0, 0, 0, 1.0, 0.0),))
        tile = TileImage(gradient, 2.16, 2.16, tile_index=(0, 0))
        pixels, pano = stitched([tile], plan, self.HOLE, (h, w), tmp_path / "p.pgm")
        row0 = round(1000.0 / 2.16) - (h - 1) // 2
        unwrapped = np.zeros((926, 2618), dtype=np.uint8)
        unwrapped[row0 : row0 + h, :w] = gradient
        expected = np.roll(unwrapped, -((w - 1) // 2), axis=1)
        assert np.array_equal(pixels, expected)
        assert pixels[row0, 0] == 5 and pixels[row0, -1] == 4
        assert pano.meta["uncovered_px"] == 926 * 2618 - h * w

    # (z_mm, theta_deg, has a tile) per event; canvas 926 x 2618 px
    LAYOUTS = {
        "overlapping": [(1.0, 100.0, True), (1.05, 101.0, True), (0.98, 99.5, True)],
        "seam-wrapping": [(1.0, 0.0, True), (1.0, 359.8, True), (1.01, 0.3, True)],
        "missing-tile": [(0.5, 40.0, True), (0.55, 41.0, False), (1.5, 200.0, True)],
        "clipped-rows": [(0.0, 10.0, True), (2.0, 10.05, True), (9.0, 50.0, True)],
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_uncovered_px_matches_mask_oracle(self, tmp_path, layout):
        events, tiles = [], []
        shape = (57, 91)  # every tile of a run has the run's shape
        for order, (z_mm, theta_deg, has_tile) in enumerate(self.LAYOUTS[layout]):
            events.append(CaptureEvent(order, 0, order, z_mm, theta_deg))
            if has_tile:
                ones = np.ones(shape, dtype=np.uint8)
                tiles.append(TileImage(ones, 2.16, 2.16, tile_index=(0, order)))
        plan = ScanPlan(len(events), 1, 1.0, 1.5, tuple(events))
        pixels, pano = stitched(tiles, plan, self.HOLE, shape, tmp_path / "p.pgm")
        uncovered = pixels == 0  # every tile pixel is 1
        assert 0 < np.count_nonzero(uncovered) < uncovered.size
        assert pano.meta["uncovered_px"] == np.count_nonzero(uncovered)

    def test_planted_disc_lands_at_its_bore_position(self, tmp_path):
        spot = DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2)
        texture = build_texture(self.HOLE, [spot])
        tiles = list(render_stack(texture, self.PLAN, CFG, REGION))
        corrected = [correct_tile(t, self.HOLE.radius_mm) for t in tiles]
        pixels, _ = stitched(corrected, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")
        pano = TileImage(pixels, 2.16, 2.16)
        blobs = connected_components(label_mask(binarize(pano, threshold=0.5)))
        assert len(blobs) == 1
        u, v = blobs[0].centroid
        assert u == pytest.approx(100.0 / 360.0 * 2618, abs=3.0)
        # rows count down from the nozzle: z' = 1.0 mm above the bottom
        assert v == pytest.approx(1000.0 / 2.16, abs=3.0)
        assert blobs[0].pixel_area == pytest.approx(6733.5, rel=0.03)

    def test_reference_plan_in_plan_rows_holds_a_fraction_of_the_canvas(self):
        # the 47 mm reference bore, 288 tiles: its canvas is 21,760 x 5,818 px
        pixels = np.full(TILE_SHAPE, 180, dtype=np.uint8)
        tiles = (
            TileImage(pixels, 2.16, 2.16, tile_index=(event.depth_step, event.rotation_step))
            for event in sorted(PLAN.schedule, key=lambda e: (e.depth_step, e.rotation_step))
        )
        tracemalloc.start()
        try:
            with open(os.devnull, "wb") as sink:
                pano = stitch_panorama(tiles, PLAN, HOLE, CFG, TILE_SHAPE, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pano.shape == (21760, 5818)
        assert pano.meta == {"missing_tiles": [], "uncovered_px": 0}
        assert peak < 21760 * 5818 / 4


class TestInspectPipeline:
    HOLE = TestStitchPanorama.HOLE
    PLAN = TestStitchPanorama.PLAN

    def test_otsu_on_a_featureless_tile_gives_no_records(self):
        tile = TileImage(
            np.full(TILE_SHAPE, 128, dtype=np.uint8), 2.16, 2.16, tile_index=(0, 0)
        )
        corrected, records = inspect_tile(tile, PLAN, HOLE, CFG, method="otsu")
        assert records == []
        assert corrected.tile_index == (0, 0)
        np.testing.assert_array_equal(
            corrected.pixels, correct_tile(tile, HOLE.radius_mm).pixels
        )

    def test_unindexed_tile_rejected(self):
        tile = TileImage(np.full(TILE_SHAPE, 128, dtype=np.uint8), 2.16, 2.16)
        with pytest.raises(DomainError, match="index"):
            inspect_tile(tile, PLAN, HOLE, CFG)

    def test_stack_stitches_and_merges_a_planted_disc(self, tmp_path):
        spot = DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2)
        texture = build_texture(self.HOLE, [spot])
        tiles = list(render_stack(texture, self.PLAN, CFG, REGION))
        with open(tmp_path / "stack.pgm", "wb") as sink:
            records, pano = inspect_stack(
                (inspect_tile(t, self.PLAN, self.HOLE, CFG) for t in tiles),
                self.PLAN, self.HOLE, CFG, TILE_SHAPE, sink,
            )
        [record] = records
        assert (record.kind, record.id) == ("disc", 0)
        assert record.size_mm == pytest.approx(0.2, abs=0.002)
        assert record.beta_deg == pytest.approx(100.0, abs=0.05)
        corrected = [correct_tile(t, self.HOLE.radius_mm) for t in tiles]
        _, expected = stitched(
            corrected, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "tiles.pgm"
        )
        assert (tmp_path / "stack.pgm").read_bytes() == (tmp_path / "tiles.pgm").read_bytes()
        assert pano == expected

    def test_stack_merges_in_schedule_order_whatever_the_arrival_order(self, tmp_path):
        # three split records of one feature: the merge's float sums see
        # them in schedule order, and (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        rng = np.random.default_rng(5)
        split = {(0, 0): 0.1, (1, 0): 0.2, (0, 1): 0.3}
        inspected = [
            (
                TileImage(
                    rng.integers(1, 256, TILE_SHAPE, dtype=np.uint8), 2.16, 2.16,
                    tile_index=(event.depth_step, event.rotation_step),
                ),
                [
                    make_record(0.0, split[event.depth_step, event.rotation_step],
                                area=1.0, z_half=0.1, arc_half=20.0,
                                tiles=((event.depth_step, event.rotation_step),))
                ] if (event.depth_step, event.rotation_step) in split else [],
            )
            for event in self.PLAN.schedule
        ]
        results = []
        for name, order in [("schedule", inspected), ("reversed", inspected[::-1])]:
            with open(tmp_path / f"{name}.pgm", "wb") as sink:
                results.append(
                    inspect_stack(iter(order), self.PLAN, self.HOLE, CFG, TILE_SHAPE, sink)
                )
        [record] = results[0][0]
        assert record.z_mm == (0.1 + 0.2 + 0.3) / 3
        assert results[0] == results[1]
        assert (tmp_path / "schedule.pgm").read_bytes() == (
            tmp_path / "reversed.pgm"
        ).read_bytes()
