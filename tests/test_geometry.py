import math

import pytest

from borescan.errors import ConfigError, DomainError
from borescan.geometry import (
    DeviationSpec,
    HoleSpec,
    OpticsConfig,
    arc_expansion,
    deviation_total,
    fov_bounds,
    fov_half_angle,
    image_plane_distance,
    object_extent,
    projection_error_ratio,
    relative_fov_error,
)

# Reference imaging chain: 2.5 mm mirror, 2.0 mm image, 15+230+94 mm path,
# 2.16 um/pixel both axes.
REF = OpticsConfig(
    mirror_diameter_mm=2.5,
    image_diameter_mm=2.0,
    image_to_eyepiece_mm=15.0,
    lens_length_mm=230.0,
    lens_to_mirror_mm=94.0,
    pixel_pitch_x_um=2.16,
    pixel_pitch_y_um=2.16,
)


def scaled(cfg: OpticsConfig, factor: float) -> OpticsConfig:
    return OpticsConfig(
        mirror_diameter_mm=cfg.mirror_diameter_mm * factor,
        image_diameter_mm=cfg.image_diameter_mm * factor,
        image_to_eyepiece_mm=cfg.image_to_eyepiece_mm * factor,
        lens_length_mm=cfg.lens_length_mm * factor,
        lens_to_mirror_mm=cfg.lens_to_mirror_mm * factor,
        pixel_pitch_x_um=cfg.pixel_pitch_x_um,
        pixel_pitch_y_um=cfg.pixel_pitch_y_um,
    )


def test_hole_spec_rejects_nonpositive():
    with pytest.raises(DomainError):
        HoleSpec(radius_mm=0.0, depth_mm=10.0)
    with pytest.raises(DomainError):
        HoleSpec(radius_mm=2.0, depth_mm=-1.0)


def test_optics_config_rejects_negative_lengths():
    with pytest.raises(ConfigError):
        OpticsConfig(2.5, 2.0, -1.0, 230.0, 94.0, 2.16, 2.16)
    with pytest.raises(ConfigError):
        OpticsConfig(-2.5, 2.0, 15.0, 230.0, 94.0, 2.16, 2.16)
    with pytest.raises(ConfigError):
        OpticsConfig(2.5, 2.0, 0.0, 0.0, 0.0, 2.16, 2.16)
    with pytest.raises(ConfigError):
        OpticsConfig(2.5, 2.0, 15.0, 230.0, 94.0, 0.0, 2.16)


@pytest.mark.parametrize(
    "name",
    ["mirror_diameter_mm", "image_diameter_mm", "image_to_eyepiece_mm",
     "lens_length_mm", "lens_to_mirror_mm"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_optics_config_rejects_non_finite_lengths(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        OpticsConfig(**{name: value})


def test_fov_half_angle_reference():
    # atan(4.5 / 678), frozen from a 50-digit evaluation
    assert fov_half_angle(REF) == pytest.approx(0.00663707068399, abs=1e-12)


def test_fov_half_angle_zero_aperture():
    cfg = OpticsConfig(0.0, 0.0, 15.0, 230.0, 94.0, 2.16, 2.16)
    assert fov_half_angle(cfg) == 0.0


def test_fov_half_angle_scale_invariant():
    assert fov_half_angle(scaled(REF, 2.0)) == pytest.approx(
        fov_half_angle(REF), rel=1e-12
    )


def test_image_plane_distance_reference():
    # 2.0 * 339 / 4.5, frozen
    assert image_plane_distance(REF) == pytest.approx(150.666666667, abs=1e-9)


def test_image_plane_distance_symmetric_split():
    cfg = OpticsConfig(2.0, 2.0, 15.0, 230.0, 94.0, 2.16, 2.16)
    assert image_plane_distance(cfg) == pytest.approx(339.0 / 2.0, rel=1e-12)


def test_image_plane_distance_pinhole_at_mirror():
    cfg = OpticsConfig(0.0, 2.0, 15.0, 230.0, 94.0, 2.16, 2.16)
    assert image_plane_distance(cfg) == pytest.approx(339.0, rel=1e-12)


def test_image_plane_distance_degenerate():
    cfg = OpticsConfig(0.0, 0.0, 15.0, 230.0, 94.0, 2.16, 2.16)
    with pytest.raises(ConfigError):
        image_plane_distance(cfg)


def test_imaging_relations_mutually_consistent():
    # tan(half angle) must equal image_diameter/(2 l_s) and
    # mirror_diameter/(2 (L - l_s)) for the same configuration.
    t = math.tan(fov_half_angle(REF))
    ls = image_plane_distance(REF)
    total = REF.optical_length_mm
    assert t == pytest.approx(REF.image_diameter_mm / (2.0 * ls), rel=1e-12)
    assert t == pytest.approx(REF.mirror_diameter_mm / (2.0 * (total - ls)), rel=1e-12)
    assert t == pytest.approx(REF.aperture_sum_mm / (2.0 * total), rel=1e-12)


def test_object_extent_reference():
    # 2.5 + 2 * 4.5 / 339, frozen
    assert object_extent(REF, 2.0) == pytest.approx(2.52654867257, abs=1e-9)


def test_object_extent_at_mirror_plane():
    assert object_extent(REF, 0.0) == pytest.approx(REF.mirror_diameter_mm)


def test_object_extent_larger_bore():
    cfg = OpticsConfig(2.5, 2.0, 15.0, 230.0, 93.0, 2.16, 2.16)
    assert object_extent(cfg, 3.0) == pytest.approx(2.5399408284, abs=1e-9)


def test_object_extent_negative_radius():
    with pytest.raises(DomainError):
        object_extent(REF, -0.1)


def test_arc_expansion_reference():
    assert arc_expansion(2.0, 2.53) == pytest.approx(2.73910644898, abs=1e-9)


def test_arc_expansion_full_chord():
    r = 1.7
    assert arc_expansion(r, 2 * r) == pytest.approx(math.pi * r, rel=1e-12)


def test_arc_expansion_larger_radius():
    assert arc_expansion(3.0, 2.53) == pytest.approx(2.61169560435, abs=1e-9)


def test_arc_expansion_dominates_chord():
    for r, c in [(2.0, 0.1), (2.0, 2.53), (3.0, 5.0), (10.0, 1.0)]:
        assert arc_expansion(r, c) >= c


def test_arc_expansion_domain_errors():
    with pytest.raises(DomainError):
        arc_expansion(2.0, 4.1)
    with pytest.raises(DomainError):
        arc_expansion(-2.0, 1.0)
    with pytest.raises(DomainError):
        arc_expansion(2.0, 0.0)


def test_projection_error_ratio_reference():
    # 8.2651% against the 8.30% figure quoted for rounded inputs
    ratio = projection_error_ratio(2.0, 2.53)
    assert ratio == pytest.approx(0.0826507703486, abs=1e-9)
    assert abs(ratio * 100.0 - 8.30) <= 0.05


def test_projection_error_ratio_small_chord_limit():
    assert projection_error_ratio(2.0, 1e-6) == pytest.approx(0.0, abs=1e-9)


def test_projection_error_ratio_larger_radius():
    assert projection_error_ratio(3.0, 2.53) == pytest.approx(0.0322907527064, abs=1e-9)


def test_projection_error_ratio_monotonic():
    rs = [1.5, 2.0, 3.0, 5.0]
    ratios_r = [projection_error_ratio(r, 2.5) for r in rs]
    assert ratios_r == sorted(ratios_r, reverse=True)
    chords = [0.5, 1.0, 2.0, 2.5]
    ratios_c = [projection_error_ratio(2.0, c) for c in chords]
    assert ratios_c == sorted(ratios_c)


def test_deviation_total_reference():
    dev = DeviationSpec(lever_arm_mm=45.0, tilt_deg=0.5, shift_mm=0.2)
    total = deviation_total(dev)
    assert total == pytest.approx(0.440691109683, abs=1e-9)
    assert 0.4400 <= total <= 0.4410


def test_deviation_total_trivial_cases():
    assert deviation_total(DeviationSpec(45.0, 0.0, 0.0)) == 0.0
    assert deviation_total(DeviationSpec(45.0, 0.0, 0.2)) == pytest.approx(0.2)


def test_deviation_total_bounds():
    dev = DeviationSpec(30.0, 1.0, 0.15)
    tilt = 30.0 * math.sin(math.radians(1.0))
    total = deviation_total(dev)
    assert max(tilt, 0.15) <= total <= tilt + 0.15


def test_deviation_spec_validation():
    with pytest.raises(DomainError):
        DeviationSpec(-1.0, 0.5, 0.2)
    with pytest.raises(DomainError):
        DeviationSpec(45.0, 90.0, 0.2)
    with pytest.raises(DomainError):
        DeviationSpec(45.0, 0.5, -0.2)


def test_fov_bounds_reference():
    lo, hi = fov_bounds(2.53, 2.5, 2.0, 0.44)
    assert lo == pytest.approx(2.5234, abs=1e-9)
    assert hi == pytest.approx(2.5366, abs=1e-9)


def test_fov_bounds_trivial_cases():
    assert fov_bounds(2.53, 2.5, 2.0, 0.0) == (2.53, 2.53)
    lo, hi = fov_bounds(2.5, 2.5, 2.0, 0.44)
    assert lo == hi == 2.5


def test_fov_bounds_midpoint_is_extent():
    lo, hi = fov_bounds(2.53, 2.5, 2.0, 0.44)
    assert (lo + hi) / 2.0 == pytest.approx(2.53, rel=1e-12)
    assert hi - 2.53 == pytest.approx(2.53 - lo, rel=1e-9)


def test_relative_fov_error_reference():
    err = relative_fov_error(2.53, 2.5, 2.0, 0.44)
    assert err == pytest.approx(0.00260869565217, abs=1e-12)


def test_relative_fov_error_larger_bore():
    err = relative_fov_error(2.551, 2.5, 4.0, 0.44)
    assert err == pytest.approx(0.0021991375931, abs=1e-12)


def test_relative_fov_error_no_deviation():
    assert relative_fov_error(2.53, 2.5, 2.0, 0.0) == 0.0


def test_relative_fov_error_matches_bounds():
    lo, hi = fov_bounds(2.53, 2.5, 2.0, 0.44)
    expected = max(2.53 - lo, hi - 2.53) / 2.53
    assert relative_fov_error(2.53, 2.5, 2.0, 0.44) == pytest.approx(
        expected, rel=1e-12
    )
