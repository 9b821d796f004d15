import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borescan.errors import ConfigError, DomainError
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.scanplan import (
    MAX_TILES,
    EffectiveRegion,
    WallGrid,
    _union_area,
    _wrapped_segments,
    plan_scan,
    shot_counts,
)

HOLE = HoleSpec(radius_mm=2.0, depth_mm=47.0)
REGION = EffectiveRegion()


def test_region_defaults_and_validation():
    assert (REGION.width_mm, REGION.height_mm) == (1.5, 1.5)
    with pytest.raises(ConfigError):
        EffectiveRegion(width_mm=0.0)


def test_wall_grid_of_the_reference_bore():
    grid = WallGrid.of(HOLE, OpticsConfig())
    # round(2 pi 2000 / 2.16) = 5818 columns, floor(47000 / 2.16) + 1 rows
    assert (grid.height, grid.width) == (21760, 5818)
    assert grid.arc_pitch_um == pytest.approx(2.16, rel=1 / 5818)
    assert grid.column(90.0) == 5818 / 4
    assert grid.column(90.0, 3 * grid.arc_pitch_um) == pytest.approx(5818 / 4 + 3)
    assert grid.row(1.5) == pytest.approx(1500 / 2.16)
    assert grid.row(1.5, -2 * 2.16) == pytest.approx(1500 / 2.16 - 2)
    assert grid.bore_z_mm(0) == 47.0
    assert grid.bore_z_mm(grid.row(1.5)) == pytest.approx(45.5)
    # the maps take arrays as well as numbers
    np.testing.assert_allclose(grid.row(np.array([0.0, 1.5])), [0.0, 1500 / 2.16])


def test_wall_grid_pitches_apart():
    grid = WallGrid(2.0, 4.5, 2.16, 2.5)
    assert (grid.height, grid.width) == (1801, 5818)
    assert grid.row(4.5) == pytest.approx(1800.0)
    assert grid.bore_z_mm(1800) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -2.16])
@pytest.mark.parametrize("field", ["radius_mm", "depth_mm", "pitch_x_um", "pitch_y_um"])
def test_wall_grid_refuses_a_value_not_finite_and_positive(field, bad):
    values = {"radius_mm": 2.0, "depth_mm": 47.0, "pitch_x_um": 2.16, "pitch_y_um": 2.16}
    with pytest.raises(DomainError, match=f"wall grid {field} must be finite and > 0"):
        WallGrid(**{**values, field: bad})


def test_wall_grid_refuses_a_grid_narrower_than_one_column():
    # the reference bore's circumference is 12,566 um: at 20,000 um a column
    # it rounds to one column, at 30,000 um to none
    assert WallGrid(2.0, 47.0, 20000.0, 2.16).width == 1
    with pytest.raises(DomainError, match="narrower than one column"):
        WallGrid(2.0, 47.0, 30000.0, 2.16)


def test_shot_counts_reference():
    # ceil(2 pi 2 / 1.5) = ceil(8.378) = 9; floor(47/1.5) + 1 = 32
    assert shot_counts(HOLE, REGION) == (9, 32)


def test_shot_counts_single_depth():
    hole = HoleSpec(radius_mm=2.0, depth_mm=1.0)
    assert shot_counts(hole, REGION)[1] == 1


def test_shot_counts_exact_multiple_overlap_row():
    hole = HoleSpec(radius_mm=2.0, depth_mm=3.0)
    assert shot_counts(hole, REGION)[1] == 3


def test_shot_counts_degenerate_region():
    with pytest.raises(ConfigError):
        shot_counts(HOLE, EffectiveRegion(width_mm=2 * math.pi))
    # just below half the circumference is still schedulable
    n_rot, _ = shot_counts(HOLE, EffectiveRegion(width_mm=6.28))
    assert n_rot == 3


@pytest.mark.parametrize(
    "hole, region",
    [
        (HoleSpec(1e308, 47.0), EffectiveRegion()),
        (HoleSpec(2.0, 1e308), EffectiveRegion(1.5, 1e-300)),
    ],
    ids=["rotations", "depths"],
)
def test_shot_counts_too_many_to_count(hole, region):
    with pytest.raises(ConfigError, match="more tiles than can be counted"):
        shot_counts(hole, region)


def test_shot_counts_tile_limit():
    # the largest bore the probe reaches, 6 mm x 47 mm, is far inside it
    n_rot, n_depth = shot_counts(HoleSpec(3.0, 47.0), REGION)
    assert n_rot * n_depth == 416
    # 9 rotations x 11,111 depths is the last plan it allows
    assert shot_counts(HoleSpec(2.0, 11110 * 1.5), REGION) == (9, 11111)
    assert 9 * 11111 <= MAX_TILES < 9 * 11112
    with pytest.raises(ConfigError, match=f"9 x 11112 tiles, more than the {MAX_TILES}"):
        shot_counts(HoleSpec(2.0, 11111 * 1.5), REGION)
    with pytest.raises(ConfigError, match="9 x 666666666667 tiles"):
        shot_counts(HoleSpec(2.0, 1e12), REGION)


def test_plan_scan_reference():
    plan = plan_scan(HOLE, REGION)
    assert len(plan.schedule) == 288
    assert plan.alpha_deg == pytest.approx(40.0)
    assert plan.step_mm == pytest.approx(1.5)
    assert plan.n_rot * plan.alpha_deg == pytest.approx(360.0, abs=1e-9)


def test_plan_scan_order_and_bijection():
    plan = plan_scan(HOLE, REGION)
    keys = [(e.rotation_step, e.depth_step) for e in plan.schedule]
    assert keys == sorted(keys)
    assert len(set(keys)) == plan.n_rot * plan.n_depth
    assert [e.order for e in plan.schedule] == list(range(len(plan.schedule)))


def test_plan_scan_event_coordinates():
    plan = plan_scan(HOLE, REGION)
    for event in plan.schedule:
        assert event.z_mm == pytest.approx(event.depth_step * plan.step_mm)
        assert event.theta_deg == pytest.approx(event.rotation_step * plan.alpha_deg)


def test_plan_scan_closure_invariants():
    for radius, depth in [(2.0, 47.0), (2.5, 10.0), (3.0, 20.0)]:
        hole = HoleSpec(radius_mm=radius, depth_mm=depth)
        plan = plan_scan(hole, REGION)
        assert plan.n_rot * REGION.width_mm >= 2 * math.pi * radius
        assert (plan.n_depth - 1) * REGION.height_mm <= depth
        assert depth <= plan.n_depth * REGION.height_mm


def test_plan_scan_small_columns():
    hole = HoleSpec(radius_mm=2.0, depth_mm=1.0)
    plan = plan_scan(hole, EffectiveRegion(width_mm=4.2, height_mm=1.5))
    assert (plan.n_rot, plan.n_depth) == (3, 1)
    assert len(plan.schedule) == 3


ROWS, COLS = 12, 20  # the canvas the union oracle draws on


@st.composite
def rectangle_sets(draw):
    """Rectangles on a ROWS x COLS canvas, each split at the 360-degree seam
    as a placed tile is, some nested in or touching the one before."""
    rects = []
    for _ in range(draw(st.integers(0, 6))):
        top = draw(st.integers(0, ROWS - 1))
        bottom = draw(st.integers(top + 1, ROWS))
        start, count = draw(st.integers(-COLS, 2 * COLS)), draw(st.integers(1, COLS))
        for cols, _ in _wrapped_segments(start, count, COLS):
            rects.append((top, bottom, cols.start, cols.stop))
        r0, r1, c0, c1 = rects[-1]
        follow = draw(st.sampled_from(["none", "nested", "touching"]))
        if follow == "nested":
            top, left = draw(st.integers(r0, r1 - 1)), draw(st.integers(c0, c1 - 1))
            rects.append(
                (top, draw(st.integers(top + 1, r1)),
                 left, draw(st.integers(left + 1, c1)))
            )
        elif follow == "touching" and r1 < ROWS:
            rects.append((r1, draw(st.integers(r1 + 1, ROWS)), c0, c1))
    return rects


@settings(max_examples=300, deadline=None)
@given(rectangle_sets())
@example([])
@example([(0, ROWS, 0, COLS), (2, 5, 3, 9)])
@example([(0, 4, 0, 5), (4, 8, 0, 5), (0, 4, 5, 9)])
def test_union_area_matches_mask_oracle(rects):
    covered = np.zeros((ROWS, COLS), dtype=bool)
    for r0, r1, c0, c1 in rects:
        covered[r0:r1, c0:c1] = True
    assert _union_area(rects) == np.count_nonzero(covered)
