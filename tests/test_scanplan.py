import math

import pytest

from borescan.errors import ConfigError
from borescan.geometry import HoleSpec
from borescan.scanplan import (
    MAX_TILES,
    EffectiveRegion,
    plan_scan,
    shot_counts,
)

HOLE = HoleSpec(radius_mm=2.0, depth_mm=47.0)
REGION = EffectiveRegion()


def test_region_defaults_and_validation():
    assert (REGION.width_mm, REGION.height_mm) == (1.5, 1.5)
    with pytest.raises(ConfigError):
        EffectiveRegion(width_mm=0.0)


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
