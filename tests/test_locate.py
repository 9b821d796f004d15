"""Panorama stitching, the inspect pipeline that detects on it, and the
mapping of its blobs into bore coordinates."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borescan.detect import (
    BlobRecord,
    binarize,
    connected_components,
    label_mask,
    row_runs,
)
from borescan.errors import ConfigError, DomainError, PlanIndexError
from borescan.geometry import DefectSpec, HoleSpec, OpticsConfig, circular_delta_deg
from borescan.locate import inspect_stack, record_from_blob, stitch_panorama
from borescan.pgm import read_pgm
from borescan.scanplan import (
    CaptureEvent,
    EffectiveRegion,
    ScanPlan,
    WallGrid,
    plan_scan,
    plan_uncovered_px,
    tile_shape_for,
)
from borescan.synth import TileBuffers, build_texture, noisy_tile
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
GRID = WallGrid.of(HOLE, CFG)  # the reference bore's panorama, 21760 x 5818 px


def in_plan_rows(plan):
    """The plan's events in plan-row order, ``(depth_step, rotation_step)``,
    the order the stitch takes tiles in."""
    return sorted(plan.schedule, key=lambda e: (e.depth_step, e.rotation_step))


def corrected_tiles(texture, plan, radius_mm, noise_sigma=0.0, seed=0, cfg=CFG):
    """Every scheduled tile in plan-row order, made in one set of buffers and
    arc-corrected."""
    buffers = TileBuffers.empty(tile_shape_for(cfg, REGION), texture.dtype)
    for event in in_plan_rows(plan):
        tile = noisy_tile(texture, event, cfg, REGION, noise_sigma, seed, buffers)
        yield correct_tile(tile, radius_mm, cfg.pixel_pitch_x_um)


def labelled(mask):
    return label_mask(mask.shape, *row_runs(mask))


def canvas_record(col, row, bbox=None, area=1, tiles=()):
    """The record of a blob centred on (column, row) of the reference canvas."""
    col_min, row_min = math.floor(col), math.floor(row)
    blob = BlobRecord(1, area, (col, row), bbox or (col_min, row_min, col_min, row_min))
    return record_from_blob(blob, GRID, tiles)


class TestCircularDelta:
    def test_plain_and_wrapped(self):
        assert circular_delta_deg(10.0, 30.0) == pytest.approx(20.0)
        assert circular_delta_deg(359.0, 1.0) == pytest.approx(2.0)
        assert circular_delta_deg(0.0, 180.0) == pytest.approx(180.0)


class TestDefectLocation:
    """Canvas row and column to (z, beta), as the stitch places tiles."""

    def test_tile_center_maps_to_event_position(self):
        # a dark square on the middle of tile (1, 2) of a 0.9 x 2 mm bore,
        # whose canvas is 926 x 2618 px
        hole = HoleSpec(0.9, 2.0)
        plan = plan_scan(hole, REGION)
        tiles = []
        for event in in_plan_rows(plan):
            pixels = np.full(TILE_SHAPE, 180, dtype=np.uint8)
            if (event.depth_step, event.rotation_step) == (1, 2):
                pixels[345:350, 345:350] = 20
                z_mm, theta_deg = event.z_mm, event.theta_deg
            index = (event.depth_step, event.rotation_step)
            tiles.append(TileImage(pixels, tile_index=index))
        with open(os.devnull, "wb") as sink:
            [rec], _ = inspect_stack(tiles, plan, hole, CFG, TILE_SHAPE, sink)
        # to the rounding of the tile's placement: half a pixel each way
        assert rec.z_mm == pytest.approx(2.0 - z_mm, abs=1.08e-3)
        assert circular_delta_deg(rec.beta_deg, theta_deg) <= 180.0 / 2618
        assert rec.source_tiles == ((1, 2),)

    def test_depth_and_rotation_steps(self):
        # tile (10, 3): 15 mm down the axis, 120 degrees round
        event = next(
            e for e in PLAN.schedule if (e.depth_step, e.rotation_step) == (10, 3)
        )
        rec = canvas_record(event.theta_deg / 360.0 * GRID.width, event.z_mm / 2.16e-3)
        assert rec.z_mm == pytest.approx(47.0 - 15.0)
        assert rec.beta_deg == pytest.approx(120.0)

    def test_column_offset_adds_arc_angle(self):
        rec = canvas_record(100.0, 347.0)
        # 100 of the canvas's 5818 columns
        assert rec.beta_deg == pytest.approx(100 * 360.0 / 5818)
        # which is 100 px * 2.16 um at r = 2 mm, to the rounding of the width
        assert rec.beta_deg == pytest.approx(6.18794418741, rel=1e-4)

    def test_row_offset_subtracts_axial_travel(self):
        z0 = canvas_record(347.0, 347.0).z_mm
        assert canvas_record(347.0, 447.0).z_mm == pytest.approx(z0 - 0.216)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 360.0, exclude_max=True))
    def test_blob_on_a_grid_column_reads_its_angle(self, theta_deg):
        rec = canvas_record(GRID.column(theta_deg), 347.0)
        assert circular_delta_deg(rec.beta_deg, theta_deg) <= 1e-9

    def test_angle_wraps_below_zero(self):
        # a blob across the seam has unwrapped columns past the last one
        rec = canvas_record(5818.0 - 247.0, 347.0)
        assert 340.0 < rec.beta_deg < 360.0
        assert canvas_record(5818.0 + 10.0, 347.0).beta_deg == pytest.approx(
            10 * 360.0 / 5818
        )

    def test_half_pixel_slack_for_bbox_corners(self):
        rec = canvas_record(5.0, 10.0, bbox=(5, 10, 5, 10))
        assert rec.z_max_mm == pytest.approx(47.0 - 9.5 * 2.16e-3)
        assert rec.z_min_mm == pytest.approx(47.0 - 10.5 * 2.16e-3)


class TestDefectArea:
    """``record_from_blob(...).area_mm2``: pixel count times both pitches."""

    def area(self, pixel_count):
        # a square bbox keeps the blob a disc; its area needs only the count
        return canvas_record(347.0, 347.0, (337, 337, 357, 357), pixel_count).area_mm2

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
    def record(self, mask, tiles=()):
        """The record of the one blob of ``mask``, rows and columns of GRID."""
        blobs = connected_components(labelled(mask), min_area=1)
        assert len(blobs) == 1
        return record_from_blob(blobs[0], GRID, tiles)

    def test_square_blob_is_disc_with_equivalent_diameter(self):
        mask = np.zeros((100, 360), dtype=bool)
        mask[40:60, 90:110] = True
        rec = self.record(mask, [(0, 2), (1, 2)])
        assert rec.kind == "disc"
        assert rec.area_mm2 == pytest.approx(400 * 4.6656e-6)
        assert rec.size_mm == pytest.approx(2 * math.sqrt(rec.area_mm2 / math.pi))
        assert rec.z_mm == pytest.approx(47.0 - 49.5 * 2.16e-3)
        assert rec.beta_deg == pytest.approx(99.5 * 360.0 / GRID.width)
        assert rec.source_tiles == ((0, 2), (1, 2))

    def test_tall_blob_is_line_with_measured_width(self):
        mask = np.zeros(TILE_SHAPE, dtype=bool)
        mask[:, 278:417] = True  # 139 px wide, full height
        rec = self.record(mask)
        assert rec.kind == "line"
        assert rec.size_mm == pytest.approx(0.30024)
        assert rec.beta_deg == pytest.approx(347.0 * 360.0 / GRID.width)
        # 695 rows cover 695 * 2.16 um of axis
        assert rec.z_max_mm - rec.z_min_mm == pytest.approx(0.69500 * 2.16)
        assert rec.z_min_mm == pytest.approx(47.0 - 694.5 * 2.16e-3)
        assert rec.z_max_mm == pytest.approx(47.0 + 0.5 * 2.16e-3)

    def test_line_width_counts_only_its_own_label(self):
        mask = np.zeros(TILE_SHAPE, dtype=bool)
        mask[100:400, 300:310] = True  # 10 px wide line, 300 rows
        mask[100:164, 304:310] = False  # 4 px wide over its first 64 rows
        mask[110:116, 306:310] = True  # disc pixels inside the line's bbox
        labels = labelled(mask)
        line = max(connected_components(labels, min_area=1), key=lambda b: b.pixel_area)
        assert line.bbox == (300, 100, 309, 399)
        rec = record_from_blob(line, GRID, ())
        assert rec.kind == "line"
        # 2,616 px over 300 rows, 8.72 px; the disc adds nothing
        assert rec.size_mm == pytest.approx(8.72 * 2.16e-3)

    def test_interval_halves_cover_bbox(self):
        mask = np.zeros(TILE_SHAPE, dtype=bool)
        mask[100:120, 600:640] = True
        rec = self.record(mask)
        assert rec.z_max_mm - rec.z_min_mm == pytest.approx(20 * 2.16e-3)
        assert rec.z_min_mm < rec.z_mm < rec.z_max_mm

    def test_line_across_the_seam_is_measured_on_unwrapped_columns(self):
        # 6 columns each side of the seam, 200 rows: one 12 px wide line
        mask = np.zeros((300, GRID.width), dtype=bool)
        mask[50:250, :6] = True
        mask[50:250, -6:] = True
        rec = self.record(mask)
        assert rec.kind == "line"
        assert rec.size_mm == pytest.approx(12 * 2.16e-3)
        # centred between the last column and the first
        assert rec.beta_deg == pytest.approx((GRID.width - 0.5) * 360.0 / GRID.width)


def ignore_blocks(first_row, pixels, covered):
    pass


def stitched(tiles, plan, hole, tile_shape, path):
    """Stitch ``tiles`` into the PGM at ``path``; returns what the file holds
    and the stitch's result."""
    with open(path, "wb") as sink:
        pano = stitch_panorama(tiles, plan, hole, CFG, tile_shape, sink, ignore_blocks)
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
        for event in in_plan_rows(self.PLAN):
            tiles.append(
                TileImage(
                    np.full((695, 695), 180, dtype=np.uint8),
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
                rng.integers(1, 256, (695, 695), dtype=np.uint8),
                tile_index=(event.depth_step, event.rotation_step),
            )
            for event in in_plan_rows(self.PLAN)
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
        # distinct random tiles, so any change in the overlap rule shows:
        # plan-row order gives the schedule's bytes, and any other order
        # is refused before it could write different ones
        plan = getattr(self, plan_name)
        shape = TILE_SHAPE if plan is self.PLAN else (40, 60)
        rng = np.random.default_rng(3)
        tiles = [
            TileImage(
                rng.integers(1, 256, shape, dtype=np.uint8),
                tile_index=(event.depth_step, event.rotation_step),
            )
            for event in plan.schedule
        ]
        in_rows = sorted(tiles, key=lambda tile: tile.tile_index)
        expected = pasted_in_schedule_order(tiles, plan, (926, 2618))
        for method in ("fixed", "otsu"):
            path = tmp_path / f"{method}.pgm"
            with open(path, "wb") as sink:
                records, pano = inspect_stack(
                    (tile for tile in in_rows), plan, self.HOLE, CFG, shape, sink,
                    method,
                )
            assert len(records) > 1
            np.testing.assert_array_equal(read_pgm(path), expected)
            assert pano.meta == {
                "missing_tiles": [], "uncovered_px": np.count_nonzero(expected == 0)
            }
        _, stitched_pano = stitched(in_rows, plan, self.HOLE, shape, tmp_path / "p.pgm")
        assert (tmp_path / "p.pgm").read_bytes() == path.read_bytes()
        assert stitched_pano == pano
        # schedule, reversed and shuffled orders
        for order in (tiles, in_rows[::-1], [tiles[i] for i in rng.permutation(len(tiles))]):
            assert [t.tile_index for t in order] != [t.tile_index for t in in_rows]
            with pytest.raises(DomainError, match="plan-row order"):
                stitched(order, plan, self.HOLE, shape, tmp_path / "q.pgm")

    def test_out_of_plan_tile_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        tiles[3] = TileImage(tiles[3].pixels, tile_index=(5, 0))
        with pytest.raises(PlanIndexError, match=r"\(5, 0\)"):
            stitched(iter(tiles), self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_unindexed_tile_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        tiles[0] = TileImage(tiles[0].pixels)
        with pytest.raises(DomainError):
            stitched(tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_tile_of_another_shape_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        tiles[5] = TileImage(tiles[5].pixels[:-1], tile_index=tiles[5].tile_index)
        with pytest.raises(DomainError, match="694x695 px, not the run's 695x695"):
            stitched(tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_tile_given_twice_rejected(self, tmp_path):
        tiles = self.uniform_tiles()
        with pytest.raises(DomainError, match=r"tile \(0, 0\) came after tile \(1, 3\)"):
            stitched(tiles + tiles[:1], self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")

    def test_no_tiles_give_a_blank_canvas(self, tmp_path):
        pixels, pano = stitched([], self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")
        assert pixels.dtype == np.uint8 and pixels.shape == (926, 2618)
        assert not pixels.any()
        assert pano.meta["uncovered_px"] == pixels.size
        assert len(pano.meta["missing_tiles"]) == 8

    def test_sixteen_bit_tiles_give_a_sixteen_bit_panorama(self, tmp_path):
        tiles = [
            TileImage(tile.pixels.astype(np.uint16) * 257,
                      tile_index=tile.tile_index)
            for tile in self.uniform_tiles()
        ]
        pixels, _ = stitched(tiles, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")
        assert pixels.dtype == np.uint16 and (pixels == 180 * 257).all()

    def test_seam_tile_splits_across_first_and_last_columns(self, tmp_path):
        h, w = 4, 9
        gradient = np.tile(np.arange(1, w + 1, dtype=np.uint8), (h, 1))
        plan = ScanPlan(1, 1, 360.0, 1.5, (CaptureEvent(0, 0, 0, 1.0, 0.0),))
        tile = TileImage(gradient, tile_index=(0, 0))
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
                tiles.append(TileImage(ones, tile_index=(0, order)))
        plan = ScanPlan(len(events), 1, 1.0, 1.5, tuple(events))
        pixels, pano = stitched(tiles, plan, self.HOLE, shape, tmp_path / "p.pgm")
        uncovered = pixels == 0  # every tile pixel is 1
        assert 0 < np.count_nonzero(uncovered) < uncovered.size
        assert pano.meta["uncovered_px"] == np.count_nonzero(uncovered)
        # the plan of the tiles given leaves the same pixels uncovered
        taken = dataclasses.replace(plan, schedule=tuple(
            event for event, (*_, has_tile) in zip(events, self.LAYOUTS[layout])
            if has_tile
        ))
        assert plan_uncovered_px(taken, self.HOLE, CFG, shape) == pano.meta["uncovered_px"]

    @pytest.mark.parametrize("plan_name", ["PLAN", "DENSE", "reference"])
    def test_plan_count_is_the_stitch_count_of_every_tile(self, plan_name):
        if plan_name == "reference":
            plan, hole, shape = PLAN, HOLE, TILE_SHAPE
        else:
            plan, hole = getattr(self, plan_name), self.HOLE
            shape = TILE_SHAPE if plan is self.PLAN else (40, 60)
        pixels = np.ones(shape, dtype=np.uint8)
        tiles = (
            TileImage(pixels, tile_index=(event.depth_step, event.rotation_step))
            for event in in_plan_rows(plan)
        )
        with open(os.devnull, "wb") as sink:
            pano = stitch_panorama(tiles, plan, hole, CFG, shape, sink, ignore_blocks)
        assert pano.meta["missing_tiles"] == []
        count = plan_uncovered_px(plan, hole, CFG, shape)
        assert count == pano.meta["uncovered_px"]
        # the dense plan's 12 tiles leave most of its canvas bare
        assert (count > 0) == (plan_name == "DENSE")

    def test_planted_disc_lands_at_its_bore_position(self, tmp_path):
        spot = DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2)
        texture = build_texture(self.HOLE, [spot])
        corrected = list(corrected_tiles(texture, self.PLAN, self.HOLE.radius_mm))
        pixels, _ = stitched(corrected, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "p.pgm")
        blobs = connected_components(labelled(binarize(pixels, threshold=0.5)))
        assert len(blobs) == 1
        u, v = blobs[0].centroid
        assert u == pytest.approx(100.0 / 360.0 * 2618, abs=3.0)
        # rows count down from the nozzle: z' = 1.0 mm above the bottom
        assert v == pytest.approx(1000.0 / 2.16, abs=3.0)
        assert blobs[0].pixel_area == pytest.approx(6733.5, rel=0.03)

    def reference_stitch_peak(self, missing=None):
        """The stitch of the reference plan's tiles in plan-row order, less
        ``missing``, and its traced peak in bytes."""
        pixels = np.full(TILE_SHAPE, 180, dtype=np.uint8)
        tiles = (
            TileImage(pixels, tile_index=(event.depth_step, event.rotation_step))
            for event in in_plan_rows(PLAN)
            if (event.depth_step, event.rotation_step) != missing
        )
        tracemalloc.start()
        try:
            with open(os.devnull, "wb") as sink:
                pano = stitch_panorama(
                    tiles, PLAN, HOLE, CFG, TILE_SHAPE, sink, ignore_blocks
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return pano, peak

    def test_reference_plan_in_plan_rows_holds_a_fraction_of_the_canvas(self):
        # the 47 mm reference bore, 288 tiles: its canvas is 21,760 x 5,818 px
        pano, peak = self.reference_stitch_peak()
        assert pano.shape == (21760, 5818)
        assert pano.meta == {"missing_tiles": [], "uncovered_px": 0}
        assert peak < 21760 * 5818 / 4

    def test_missing_tile_does_not_hold_the_canvas_open(self):
        # no tile after (0, 0) in plan-row order reaches its rows, so a
        # stack without it still closes the canvas one depth row at a time
        pano, peak = self.reference_stitch_peak(missing=(0, 0))
        assert pano.meta["missing_tiles"] == [(0, 0)]
        assert peak < 21760 * 5818 / 4


class TestInspectPipeline:
    HOLE = TestStitchPanorama.HOLE
    PLAN = TestStitchPanorama.PLAN

    def flat_tiles(self, level=128):
        return [
            TileImage(
                np.full(TILE_SHAPE, level, dtype=np.uint8),
                tile_index=(event.depth_step, event.rotation_step),
            )
            for event in in_plan_rows(self.PLAN)
        ]

    def test_otsu_on_a_featureless_tile_gives_no_records(self):
        with open(os.devnull, "wb") as sink:
            records, pano = inspect_stack(
                self.flat_tiles(), self.PLAN, self.HOLE, CFG, TILE_SHAPE, sink, "otsu"
            )
        assert records == []
        assert pano.meta == {"missing_tiles": [], "uncovered_px": 0}

    def test_unindexed_tile_rejected(self):
        tiles = self.flat_tiles()
        tiles[2] = TileImage(tiles[2].pixels)
        with open(os.devnull, "wb") as sink, pytest.raises(DomainError, match="index"):
            inspect_stack(tiles, self.PLAN, self.HOLE, CFG, TILE_SHAPE, sink)

    @pytest.mark.parametrize("method", ["fixed", "otsu"])
    def test_missing_tile_gives_no_record_from_its_gap(self, method):
        # the gap is zero-filled, darker than any cut, but no tile covered it
        tiles = [tile for tile in self.flat_tiles(180) if tile.tile_index != (1, 2)]
        tiles[0].pixels[400:410, 300:310] = 20  # real defects, on the canvas
        # one where tile (1, 1)'s last 41 columns meet the missing tile's place
        [beside] = [tile for tile in tiles if tile.tile_index == (1, 1)]
        beside.pixels[100:110, 675:685] = 20
        with open(os.devnull, "wb") as sink:
            records, pano = inspect_stack(
                tiles, self.PLAN, self.HOLE, CFG, TILE_SHAPE, sink, method
            )
        assert pano.meta["missing_tiles"] == [(1, 2)]
        assert pano.meta["uncovered_px"] > 0
        assert len(records) == 2
        for record in records:
            assert record.area_mm2 == pytest.approx(100 * 2.16**2 * 1e-6)
        assert sorted(record.source_tiles for record in records) == [((0, 0),), ((1, 1),)]

    def test_stack_stitches_and_measures_a_planted_disc(self, tmp_path):
        spot = DefectSpec("disc", z_mm=1.0, beta_deg=100.0, size_mm=0.2)
        texture = build_texture(self.HOLE, [spot])
        corrected = list(corrected_tiles(texture, self.PLAN, self.HOLE.radius_mm))
        with open(tmp_path / "stack.pgm", "wb") as sink:
            records, pano = inspect_stack(
                corrected, self.PLAN, self.HOLE, CFG, TILE_SHAPE, sink
            )
        [record] = records
        assert (record.kind, record.id) == ("disc", 0)
        assert record.size_mm == pytest.approx(0.2, abs=0.002)
        # to the rounding of the tiles' placement: a column of the canvas
        assert record.beta_deg == pytest.approx(100.0, abs=360.0 / 2618)
        _, expected = stitched(
            corrected, self.PLAN, self.HOLE, TILE_SHAPE, tmp_path / "tiles.pgm"
        )
        assert (tmp_path / "stack.pgm").read_bytes() == (tmp_path / "tiles.pgm").read_bytes()
        assert pano == expected

    def test_seam_disc_and_line_across_depth_steps_give_one_record_each(self):
        # a 6 mm bore of 5 x 9 tiles: a 0.2 mm disc across the 360-degree
        # seam and a 0.3 mm line on a window edge, 3 mm long, across three
        # depth steps, under noise
        hole = HoleSpec(2.0, 6.0)
        plan = plan_scan(hole, REGION)
        texture = build_texture(hole, [
            DefectSpec("disc", z_mm=3.0, beta_deg=359.8, size_mm=0.2),
            DefectSpec("line", z_mm=3.0, beta_deg=300.0, size_mm=0.3, length_mm=3.0),
        ])
        tile_shape = tile_shape_for(CFG, REGION)
        with open(os.devnull, "wb") as sink:
            records, _ = inspect_stack(
                corrected_tiles(texture, plan, hole.radius_mm, 5.0, 1),
                plan, hole, CFG, tile_shape, sink,
            )
        disc, line = sorted(records, key=lambda rec: rec.kind)
        assert (disc.kind, line.kind) == ("disc", "line")
        assert circular_delta_deg(disc.beta_deg, 359.8) < 0.05
        assert disc.size_mm == pytest.approx(0.2, abs=0.012)
        # rotation 0's paste is split at the canvas seam, and so is the disc
        assert disc.source_tiles == ((2, 0),)
        assert line.size_mm == pytest.approx(0.3, abs=0.012)
        assert line.z_mm == pytest.approx(3.0, abs=0.01)
        assert len({j for j, _ in line.source_tiles}) >= 3

    def test_rig_with_unequal_pitches_places_and_sizes_every_defect(self):
        # 2.16 um across and 2.5 um along the axis: 600 x 695 px tiles on a
        # 1,801 x 5,818 px panorama, rendered, corrected, stitched and
        # measured, under noise
        cfg = OpticsConfig(pixel_pitch_y_um=2.5)
        hole = HoleSpec(2.0, 4.5)
        plan = plan_scan(hole, REGION)
        truth = [
            DefectSpec("disc", z_mm=1.5, beta_deg=100.0, size_mm=0.2),
            DefectSpec("disc", z_mm=3.0, beta_deg=359.9, size_mm=0.1),
            DefectSpec("line", z_mm=2.25, beta_deg=200.0, size_mm=0.3, length_mm=3.0),
        ]
        texture = build_texture(hole, truth, pitch_um=cfg.pixel_pitch_y_um)
        with open(os.devnull, "wb") as sink:
            records, pano = inspect_stack(
                corrected_tiles(texture, plan, hole.radius_mm, 5.0, 1, cfg),
                plan, hole, cfg, (600, 695), sink,
            )
        assert pano.shape == (1801, 5818)
        assert pano.meta["uncovered_px"] == 0
        assert len(records) == len(truth)
        for spec in truth:
            rec = min(records, key=lambda r: circular_delta_deg(r.beta_deg, spec.beta_deg))
            arc_um = math.radians(circular_delta_deg(rec.beta_deg, spec.beta_deg)) * 2e3
            assert rec.kind == spec.kind
            assert abs(rec.z_mm - (hole.depth_mm - spec.z_mm)) <= 2.5e-3
            assert arc_um <= 2.16
            assert abs(rec.size_mm - spec.size_mm) <= 2e-3
