import dataclasses
import math
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from borescan import synth
from borescan.errors import ConfigError, DomainError, PlacementError
from borescan.geometry import HoleSpec, OpticsConfig
from borescan.pgm import read_pgm
from borescan.scanplan import CaptureEvent, EffectiveRegion, plan_scan
from borescan.synth import (
    DefectSpec,
    TileBuffers,
    add_noise,
    build_texture,
    noisy_tile,
    render_tile,
    tile_noise_seed,
    tile_shape_for,
    write_stack,
)
from borescan.unwrap import (
    STRIP_ROWS,
    TileImage,
    _column_weights,
    _resample_columns,
    correct_tile,
    forward_project,
    tile_arc_px,
)

CFG = OpticsConfig(
    mirror_diameter_mm=2.5,
    image_diameter_mm=2.0,
    image_to_eyepiece_mm=15.0,
    lens_length_mm=230.0,
    lens_to_mirror_mm=94.0,
    pixel_pitch_x_um=2.16,
    pixel_pitch_y_um=2.16,
)
REGION = EffectiveRegion()
SMALL = HoleSpec(radius_mm=0.9, depth_mm=2.0)


def tile_buffers(texture):
    """New buffers for one tile of ``texture`` under CFG and REGION."""
    return TileBuffers.empty(tile_shape_for(CFG, REGION), texture.dtype)


def buffers_like(img):
    """New buffers for a tile shaped and typed like ``img``."""
    return TileBuffers.empty(img.pixels.shape, img.pixels.dtype)


def fg_count(texture, level=None):
    level = level if level is not None else texture.background - 60
    return int(np.count_nonzero(texture.pixels <= level))


def test_defect_spec_validation():
    with pytest.raises(DomainError):
        DefectSpec("hole", 1.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        DefectSpec("disc", 1.0, 360.0, 0.1)
    with pytest.raises(DomainError):
        DefectSpec("disc", 1.0, 0.0, -0.1)
    with pytest.raises(DomainError):
        DefectSpec("line", 1.0, 0.0, 0.3)
    with pytest.raises(DomainError):
        DefectSpec("disc", 1.0, 0.0, 0.1, length_mm=1.0)
    with pytest.raises(DomainError):
        DefectSpec("disc", 1.0, 0.0, 0.1, contrast=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            DefectSpec("disc", bad, 0.0, 0.1)
        with pytest.raises(DomainError, match="finite"):
            DefectSpec("disc", 1.0, 0.0, bad)
        with pytest.raises(DomainError, match="finite"):
            DefectSpec("line", 1.0, 0.0, 0.1, length_mm=bad)


def test_build_texture_uniform():
    texture = build_texture(SMALL, [])
    assert texture.grid.width == round(2 * math.pi * 900 / 2.16)
    assert texture.grid.height == math.floor(2000 / 2.16) + 1
    assert np.all(texture.pixels == 180)
    assert texture.grid.depth_mm == 2.0
    # the wrap is within one pixel of the nominal pitch
    grid = texture.grid
    assert abs(grid.width * grid.pitch_x_um - 2 * math.pi * 900) < grid.pitch_x_um


@pytest.mark.parametrize("pitch_um", [0.0, math.nan, math.inf, -2.16])
def test_build_texture_refuses_a_pitch_not_finite_and_positive(pitch_um):
    with pytest.raises(DomainError, match="pitch_x_um must be finite and > 0"):
        build_texture(SMALL, [], pitch_um=pitch_um)


def test_disc_pixel_count():
    spec = DefectSpec("disc", z_mm=1.0, beta_deg=90.0, size_mm=0.1)
    texture = build_texture(SMALL, [spec])
    # half-contrast count estimates the true boundary; ideal area
    # pi (0.05 mm)^2 over the pixel cell area
    cell_mm2 = (texture.grid.arc_pitch_um * 1e-3) * (texture.grid.pitch_y_um * 1e-3)
    ideal = math.pi * 0.05**2 / cell_mm2
    assert fg_count(texture) == pytest.approx(ideal, rel=0.01)


def test_disc_ink_conservation():
    spec = DefectSpec("disc", z_mm=1.0, beta_deg=90.0, size_mm=0.2)
    texture = build_texture(SMALL, [spec])
    ink = (180.0 - texture.pixels.astype(float)).sum() / 120.0
    cell_mm2 = (texture.grid.arc_pitch_um * 1e-3) * (texture.grid.pitch_y_um * 1e-3)
    ideal = math.pi * 0.1**2 / cell_mm2
    assert ink == pytest.approx(ideal, rel=0.01)


def test_line_band_width():
    spec = DefectSpec("line", z_mm=1.0, beta_deg=180.0, size_mm=0.3, length_mm=1.0)
    texture = build_texture(SMALL, [spec])
    middle = texture.pixels[int(1.0 / 0.00216)]
    count = int(np.count_nonzero(middle <= 120))
    assert 138 <= count <= 140  # 300 um / 2.16 um = 138.9 px


def test_seam_straddling_disc():
    spec = DefectSpec("disc", z_mm=1.0, beta_deg=359.95, size_mm=0.1)
    texture = build_texture(SMALL, [spec])
    reference = build_texture(SMALL, [DefectSpec("disc", 1.0, 180.0, 0.1)])
    assert fg_count(texture) == pytest.approx(fg_count(reference), rel=0.01)
    assert np.any(texture.pixels[:, 0] <= 120)
    assert np.any(texture.pixels[:, -1] <= 120)


def test_placement_errors():
    with pytest.raises(PlacementError):
        build_texture(SMALL, [DefectSpec("disc", 0.04, 0.0, 0.1)])
    with pytest.raises(PlacementError):
        build_texture(SMALL, [DefectSpec("line", 1.8, 0.0, 0.3, length_mm=0.5)])


def test_defect_wider_than_the_wall_is_refused():
    # SMALL is 2618 columns round. A stamp spans the footprint's columns and
    # one more on each side: 2 * ceil(half width in columns) + 3 for a line
    # centred on column 0.
    column_mm = 2.0 * math.pi * SMALL.radius_mm / 2618
    fits = DefectSpec("line", 1.0, 0.0, 2 * 1306.9 * column_mm, length_mm=0.1)
    (stamp,) = build_texture(SMALL, [fits]).stamps
    assert stamp.coverage.shape[1] == 2617
    for size_mm, columns in ((2 * 1307.1 * column_mm, 2619), (1.5 * 2618 * column_mm, 3931)):
        wide = DefectSpec("line", 1.0, 0.0, size_mm, length_mm=0.1)
        with pytest.raises(
            PlacementError,
            match=rf"line at \(z'=1.0, beta=0.0\) spans {columns} columns, "
            r"more than the 2618",
        ):
            build_texture(SMALL, [fits, wide])


def test_overlap_warning():
    close = [
        DefectSpec("disc", 1.0, 90.0, 0.2),
        DefectSpec("disc", 1.0, 91.0, 0.2),  # centers 0.0157 mm apart
    ]
    with pytest.warns(RuntimeWarning):
        build_texture(SMALL, close)
    apart = [
        DefectSpec("disc", 1.0, 90.0, 0.2),
        DefectSpec("disc", 1.0, 120.0, 0.2),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_texture(SMALL, apart)


def mean_disc_coverage(texture, spec, stamp):
    """Oracle: every pixel's 4x4 subsamples tested, as one (R, C, 4, 4) array."""
    arc_pitch_mm = 2.0 * math.pi * texture.grid.radius_mm / texture.grid.width
    pitch_mm = texture.grid.pitch_y_um * 1e-3
    u0_px = spec.beta_deg / 360.0 * texture.grid.width
    v0_px = spec.z_mm / pitch_mm
    cols = np.arange(stamp.col_lo, stamp.col_lo + stamp.coverage.shape[1])
    rows = np.arange(stamp.row_lo, stamp.row_hi)
    offsets = (np.arange(4) + 0.5) / 4 - 0.5
    du = (cols[None, :, None] + offsets[None, None, :] - u0_px) * arc_pitch_mm
    dv = (rows[:, None, None] + offsets[None, None, :] - v0_px) * pitch_mm
    inside = dv[:, :, :, None] ** 2 + du[:, :, None, :] ** 2 <= (spec.size_mm / 2.0) ** 2
    return inside.reshape(len(rows), len(cols), -1).mean(axis=2)


def test_disc_coverage_matches_the_subsample_mean():
    rng = np.random.default_rng(16)
    width = build_texture(SMALL, []).grid.width
    pitch_mm = 2.16e-3
    specs = []
    for i in range(60):
        # sub-pixel, small and large diameters
        size = float([rng.uniform(5e-4, 4e-3), rng.uniform(4e-3, 0.05),
                      rng.uniform(0.05, 0.4)][i % 3])
        beta, z = float(rng.uniform(0.0, 360.0)), float(rng.uniform(0.25, 1.75))
        if i % 4 == 1:  # centre on a pixel corner
            beta = (int(rng.integers(width)) + 0.5) / width * 360.0
            z = (int(z / pitch_mm) + 0.5) * pitch_mm
        elif i % 4 == 2:  # across the seam
            beta = float(rng.choice([rng.uniform(359.9, 360.0), rng.uniform(0.0, 0.1)]))
        specs.append(DefectSpec("disc", z, beta % 360.0, size))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        texture = build_texture(SMALL, specs)
    partial = 0
    for spec, stamp in zip(specs, texture.stamps):
        expected = mean_disc_coverage(texture, spec, stamp)
        assert np.array_equal(stamp.coverage, expected)
        partial += np.count_nonzero((expected > 0) & (expected < 1))
    assert partial > 0


def pairwise_overlap(a, b, circumference_mm):
    """Oracle: one pair of footprints, with the circular u metric."""
    du = abs(a.beta_deg / 360.0 * circumference_mm - b.beta_deg / 360.0 * circumference_mm)
    du = min(du, circumference_mm - du)
    dz = abs(a.z_mm - b.z_mm)
    if a.kind == "disc" and b.kind == "disc":
        reach = (a.size_mm + b.size_mm) / 2.0
        return du * du + dz * dz < reach * reach
    if a.kind == "line" and b.kind == "line":
        (au, az), (bu, bz) = a.half_extent_mm(), b.half_extent_mm()
        return du < au + bu and dz < az + bz
    disc, line = (a, b) if a.kind == "disc" else (b, a)
    lu, lz = line.half_extent_mm()
    gap_u = max(du - lu, 0.0)
    gap_z = max(dz - lz, 0.0)
    return gap_u * gap_u + gap_z * gap_z < (disc.size_mm / 2.0) ** 2


def overlap_warnings(specs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_texture(SMALL, specs)
    return [str(w.message) for w in caught if w.category is RuntimeWarning]


def expected_overlap_warnings(specs):
    circumference_mm = 2.0 * math.pi * SMALL.radius_mm
    return [
        f"defect at (z'={b.z_mm}, beta={b.beta_deg}) overlaps an earlier one; "
        "truth areas are ambiguous"
        for i, b in enumerate(specs)
        if any(pairwise_overlap(b, a, circumference_mm) for a in specs[:i])
    ]


def deg(mm):
    """Angle of an arc length on SMALL's wall."""
    return mm / (2.0 * math.pi * SMALL.radius_mm) * 360.0


QUARTER_MM = 2.0 * math.pi * SMALL.radius_mm / 4.0

TOUCHING_PAIRS = {
    "disc-disc-z": (DefectSpec("disc", 1.0, 90.0, 0.2), DefectSpec("disc", 1.2, 90.0, 0.2)),
    "disc-disc-u": (DefectSpec("disc", 1.0, 90.0, 0.2),
                    DefectSpec("disc", 1.0, 90.0 + deg(0.2), 0.2)),
    "line-line-u": (DefectSpec("line", 1.0, 90.0, 0.1, 0.4),
                    DefectSpec("line", 1.0, 90.0 + deg(0.1), 0.1, 0.4)),
    "line-line-z": (DefectSpec("line", 0.6, 90.0, 0.1, 0.4),
                    DefectSpec("line", 1.0, 90.0, 0.1, 0.4)),
    "line-disc-side": (DefectSpec("line", 1.0, 90.0, 0.1, 0.4),
                       DefectSpec("disc", 1.0, 90.0 + deg(0.15), 0.2)),
    "disc-line-corner": (DefectSpec("disc", 1.28, 90.0 + deg(0.11), 0.2),
                         DefectSpec("line", 1.0, 90.0, 0.1, 0.4)),
    "disc-disc-seam": (DefectSpec("disc", 1.0, 359.95, 0.2),
                       DefectSpec("disc", 1.0, 0.05, 0.2)),
    "line-disc-seam": (DefectSpec("line", 1.0, 359.9, 0.1, 0.4),
                       DefectSpec("disc", 1.0, (359.9 + deg(0.15)) % 360.0, 0.2)),
    "disc-line-seam-apart": (DefectSpec("disc", 1.0, 0.0, 0.1),
                             DefectSpec("line", 1.0, 360.0 - deg(0.2), 0.1, 0.4)),
    # exact float ties: a quarter turn is C/4 mm, and 1.0 - 0.6 == 0.4
    "disc-disc-tie": (DefectSpec("disc", 0.6, 30.0, 0.4), DefectSpec("disc", 1.0, 30.0, 0.4)),
    "line-line-tie": (DefectSpec("line", 1.0, 0.0, QUARTER_MM, 0.4),
                      DefectSpec("line", 1.0, 90.0, QUARTER_MM, 0.4)),
    "line-disc-tie": (DefectSpec("line", 1.0, 0.0, QUARTER_MM, 0.4),
                      DefectSpec("disc", 1.0, 90.0, QUARTER_MM)),
}


@pytest.mark.parametrize("case", list(TOUCHING_PAIRS))
def test_overlap_warning_matches_pairwise_rule_at_contact(case):
    # centres a whisker inside, on, and a whisker outside the contact
    a, b = TOUCHING_PAIRS[case]
    for scale in (1 - 1e-9, 1.0, 1 + 1e-9):
        for first, second in ((a, b), (b, a)):
            moved = dataclasses.replace(
                second,
                z_mm=first.z_mm + (second.z_mm - first.z_mm) * scale,
                beta_deg=(first.beta_deg
                          + ((second.beta_deg - first.beta_deg + 180.0) % 360.0 - 180.0)
                          * scale) % 360.0,
            )
            specs = [first, moved]
            assert overlap_warnings(specs) == expected_overlap_warnings(specs)


@pytest.mark.parametrize("seed", range(4))
def test_overlap_warnings_match_pairwise_rule(seed):
    # a crowd of every kind round the seam: each later defect is checked
    # against all earlier ones and warned about once
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(80):
        kind = str(rng.choice(["disc", "line"]))
        size = float(rng.uniform(0.01, 0.15))
        length = float(rng.uniform(0.05, 0.5)) if kind == "line" else None
        beta = float(rng.normal(0.0, deg(0.4))) % 360.0
        z = float(rng.uniform(0.3, 1.7))
        specs.append(DefectSpec(kind, z, beta, size, length))
    expected = expected_overlap_warnings(specs)
    assert 0 < len(expected) < len(specs) - 1
    assert overlap_warnings(specs) == expected


def test_tile_shape_for_defaults():
    assert tile_shape_for(CFG, REGION) == (695, 695)


BORE = HoleSpec(radius_mm=2.0, depth_mm=3.0)


def test_tile_wider_than_the_visible_arc_is_refused_alike():
    # 695 px * 2.16 um = 1.501 mm: half of it is more than a 0.7 mm radius
    hole = HoleSpec(radius_mm=0.7, depth_mm=2.0)
    texture = build_texture(hole, [])
    event = CaptureEvent(0, 0, 0, 1.0, 0.0)
    flat = TileImage(np.zeros((4, 695), dtype=np.uint8))
    calls = [
        lambda: render_tile(texture, event, CFG, REGION, tile_buffers(texture)),
        lambda: correct_tile(flat, hole.radius_mm, CFG.pixel_pitch_x_um),
        lambda: forward_project(flat, hole.radius_mm, CFG.pixel_pitch_x_um),
    ]
    for call in calls:
        with pytest.raises(ConfigError) as refused:
            call()
        assert str(refused.value) == (
            "tile width 695 px (1.501 mm) does not fit the visible arc of a "
            "radius-0.7 mm bore"
        )


def test_render_tile_uniform():
    texture = build_texture(BORE, [])
    event = CaptureEvent(0, 0, 0, 0.0, 0.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    assert tile.pixels.shape == (695, 695)
    assert np.all(tile.pixels == 180)
    assert tile.tile_index == (0, 0)


def test_render_tile_centered_disc_stays_centered():
    spec = DefectSpec("disc", z_mm=1.5, beta_deg=40.0, size_mm=0.2)
    texture = build_texture(BORE, [spec])
    event = CaptureEvent(0, 1, 1, 1.5, 40.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    rows, cols = np.nonzero(tile.pixels <= 120)
    assert rows.mean() == pytest.approx(347.0, abs=0.5)
    assert cols.mean() == pytest.approx(347.0, abs=0.5)


def test_render_tile_offaxis_compression():
    # disc center at arc offset 0.6 mm = 277.8 px from the tile center:
    # projected width shrinks by cos(0.3 rad)
    offset_deg = math.degrees(0.6 / 2.0)
    spec = DefectSpec("disc", z_mm=1.5, beta_deg=40.0 + offset_deg, size_mm=0.2)
    texture = build_texture(BORE, [spec])
    event = CaptureEvent(0, 1, 1, 1.5, 40.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    center_row = tile.pixels[347].astype(int)
    dark = np.nonzero(center_row <= 120)[0]
    measured = dark.max() - dark.min() + 1
    texture_extent = 0.2 * 1e3 / 2.16
    predicted = texture_extent * math.cos(0.6 / 2.0)
    assert measured == pytest.approx(predicted, abs=3)


def test_render_tile_bottom_overhang_background():
    spec = DefectSpec("disc", z_mm=0.2, beta_deg=0.0, size_mm=0.2)
    texture = build_texture(BORE, [spec])
    event = CaptureEvent(0, 0, 0, 0.0, 0.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    # rows below z'=0 (n < cy - z'/p_y) have no surface: background fill
    overhang = tile.pixels[:346]
    assert np.all(overhang == 180)
    assert np.any(tile.pixels[347:] <= 120)


def whole_tile_render(texture, event):
    """Reference render: the row blend and resample over the whole tile at once."""
    height, width = tile_shape_for(CFG, REGION)
    pitch_x = CFG.pixel_pitch_x_um
    arc_um = tile_arc_px(width, texture.grid.radius_mm, pitch_x) * pitch_x
    u = event.theta_deg / 360.0 * texture.grid.width + arc_um / texture.grid.arc_pitch_um
    n_rel = np.arange(height, dtype=np.float64) - (height - 1) / 2.0
    v = (event.z_mm * 1e3 + n_rel * CFG.pixel_pitch_y_um) / texture.grid.pitch_y_um
    on_surface = (v >= 0.0) & (v <= texture.grid.height - 1)
    v_cl = np.clip(v, 0.0, float(texture.grid.height - 1))
    v0 = np.minimum(np.floor(v_cl).astype(np.int64), texture.grid.height - 2)
    fv = (v_cl - v0)[:, None]
    v1 = v0 + 1
    base = math.floor(u[0])
    band = np.arange(base, math.floor(u[-1]) + 2) % texture.grid.width
    tex = texture.pixels
    rows = tex[np.ix_(v0, band)] * (1.0 - fv) + tex[np.ix_(v1, band)] * fv
    weights = _column_weights(u - base, len(band))
    shape = (height, width)
    sampled = _resample_columns(rows, weights, np.empty(shape), np.empty(shape))
    sampled[~on_surface, :] = float(texture.background)
    return np.rint(sampled).astype(tex.dtype)


@pytest.mark.parametrize("bit_depth, background", [(8, 180), (16, 46000)])
@pytest.mark.parametrize("cross_row", [STRIP_ROWS - 1, STRIP_ROWS, STRIP_ROWS + 0.5])
def test_render_tile_strips_match_whole_tile_across_bottom_edge(
    bit_depth, background, cross_row
):
    # the bottom tile's rows reach below z'=0; place that edge on, just
    # before and inside a strip boundary, with a disc right above it
    spec = DefectSpec("disc", z_mm=0.12, beta_deg=0.5, size_mm=0.2, contrast=-90)
    texture = build_texture(BORE, [spec], background=background, bit_depth=bit_depth)
    z_mm = (347 - cross_row) * 2.16e-3
    event = CaptureEvent(0, 0, 0, z_mm, 0.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    expected = whole_tile_render(texture, event)
    assert tile.pixels.dtype == expected.dtype
    assert np.array_equal(tile.pixels, expected)
    assert np.all(tile.pixels[: math.floor(cross_row)] == background)
    assert np.any(tile.pixels[math.ceil(cross_row) :] != background)


# (defects, tile centre z' mm, tile angle deg): each tile is rendered from
# the defect stamps and compared with the whole-bore raster oracle; the
# bottom overhang has its own test above
ORACLE_CASES = {
    "seam-disc": ([DefectSpec("disc", 1.5, 359.95, 0.2)], 1.5, 0.0),
    "top-edge": ([DefectSpec("disc", 2.85, 10.0, 0.25)], 3.0, 10.0),
    # the clip at 0 makes the sum order-dependent where the discs overlap
    "overlap-dark-first": (
        [DefectSpec("disc", 1.5, 40.0, 0.2, contrast=-170),
         DefectSpec("disc", 1.52, 40.5, 0.2, contrast=120)],
        1.5, 40.0,
    ),
    "overlap-bright-first": (
        [DefectSpec("disc", 1.52, 40.5, 0.2, contrast=120),
         DefectSpec("disc", 1.5, 40.0, 0.2, contrast=-170)],
        1.5, 40.0,
    ),
    "long-line": ([DefectSpec("line", 1.5, 200.0, 0.3, length_mm=3.0)], 1.5, 195.0),
    "no-defect-in-view": ([DefectSpec("disc", 1.5, 180.0, 0.2)], 1.5, 0.0),
}


def depth_texture(defects, bit_depth):
    background = 180 if bit_depth == 8 else 46000
    scale = 1 if bit_depth == 8 else 256
    scaled = [dataclasses.replace(d, contrast=d.contrast * scale) for d in defects]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overlap cases
        return build_texture(BORE, scaled, background=background, bit_depth=bit_depth)


@pytest.mark.parametrize("bit_depth", [8, 16])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_render_tile_matches_whole_bore_oracle(case, bit_depth):
    defects, z_mm, theta_deg = ORACLE_CASES[case]
    texture = depth_texture(defects, bit_depth)
    event = CaptureEvent(0, 0, 0, z_mm, theta_deg)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    expected = whole_tile_render(texture, event)
    assert tile.pixels.dtype == expected.dtype == texture.dtype
    assert np.array_equal(tile.pixels, expected)
    # every case but the last has a defect in view
    in_view = np.any(tile.pixels != texture.background)
    assert in_view == (case != "no-defect-in-view")


def test_overlap_order_decides_pixels():
    # a pixel both discs cover in full: each stamp is clipped in turn,
    # 180 - 170 + 120 = 130 against min(180 + 120, 255) - 170 = 85
    first = depth_texture(ORACLE_CASES["overlap-dark-first"][0], 8)
    second = depth_texture(ORACLE_CASES["overlap-bright-first"][0], 8)
    row = round(1.51 / (first.grid.pitch_y_um * 1e-3))
    col = round(40.25 / 360.0 * first.grid.width)
    assert first.window(row, row + 1, col, 1)[0, 0] == 130
    assert second.window(row, row + 1, col, 1)[0, 0] == 85
    event = CaptureEvent(0, 0, 0, 1.5, 40.0)
    a = render_tile(first, event, CFG, REGION, tile_buffers(first)).pixels
    b = render_tile(second, event, CFG, REGION, tile_buffers(second)).pixels
    assert not np.array_equal(a, b)


def test_render_tile_seam_matches_whole_bore_oracle():
    # a tile centred on the 360-degree seam reads both ends of the wall
    texture = depth_texture(ORACLE_CASES["seam-disc"][0], 8)
    event = CaptureEvent(0, 0, 0, 1.5, 0.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    assert np.any(tile.pixels[:, :347] <= 120)
    assert np.any(tile.pixels[:, 348:] <= 120)
    assert np.array_equal(tile.pixels, whole_tile_render(texture, event))


def test_window_matches_oracle_slices():
    # windows across the seam, the stamp edges and the surface ends
    defects = [
        DefectSpec("disc", 1.5, 359.95, 0.2),
        DefectSpec("line", 1.5, 200.0, 0.3, length_mm=3.0),
        DefectSpec("disc", 1.52, 200.2, 0.2, contrast=90),
    ]
    texture = depth_texture(defects, 8)
    oracle = texture.pixels
    assert oracle.shape == (texture.grid.height, texture.grid.width)
    rng = np.random.default_rng(3)
    for _ in range(40):
        top = int(rng.integers(0, texture.grid.height))
        bottom = int(rng.integers(top + 1, texture.grid.height + 1))
        left = int(rng.integers(-texture.grid.width, 2 * texture.grid.width))
        count = int(rng.integers(1, texture.grid.width + 1))
        cols = np.arange(left, left + count) % texture.grid.width
        expected = oracle[top:bottom][:, cols]
        assert np.array_equal(texture.window(top, bottom, left, count), expected)


def test_stamp_rows_meet_windows_at_their_ends_only():
    texture = depth_texture([DefectSpec("disc", 1.5, 90.0, 0.2)], 8)
    (stamp,) = texture.stamps
    left, count = stamp.col_lo, stamp.coverage.shape[1]
    assert texture.stamps_meeting(stamp.row_lo - 64, stamp.row_lo, left, count).size == 0
    assert texture.stamps_meeting(stamp.row_hi, stamp.row_hi + 64, left, count).size == 0
    assert list(texture.stamps_meeting(stamp.row_lo, stamp.row_lo + 1, left, count)) == [0]
    assert list(texture.stamps_meeting(stamp.row_hi - 1, stamp.row_hi, left, count)) == [0]
    # column arcs, modulo the width
    assert texture.stamps_meeting(0, texture.grid.height, left + count, 10).size == 0
    assert texture.stamps_meeting(0, texture.grid.height, left - 10, 10).size == 0
    wrapped = left + count - 1 + texture.grid.width
    assert list(texture.stamps_meeting(0, texture.grid.height, wrapped, 1)) == [0]


def render_windows(texture, event, monkeypatch):
    """The rendered tile, and the ``(top, bottom, left, count)`` of every
    texture window ``render_tile`` asks for, in order."""
    windows = []
    window = synth.SurfaceTexture.window

    def spy(self, *args):
        windows.append(args)
        return window(self, *args)

    monkeypatch.setattr(synth.SurfaceTexture, "window", spy)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    monkeypatch.undo()
    return tile, windows


def spans_only(texture, stamp, window):
    """Whether a window spans only texture rows and columns of ``stamp``,
    or the one row or column each side that a tile pixel blends with them."""
    top, bottom, left, count = window
    first = (left - stamp.col_lo + 1) % texture.grid.width
    return (
        stamp.row_lo - 1 <= top < bottom <= stamp.row_hi + 1
        and first + count <= stamp.coverage.shape[1] + 2
    )


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_render_tile_window_reaches_the_rows_that_blend_with_a_stamp(
    bit_depth, monkeypatch
):
    # tile rows read the texture 0.25 rows past a whole row: the tile row
    # whose v1 is the disc's first row also reads the row below it, and the
    # one whose v0 is the disc's last row the row above it. The tile's
    # columns, about one texture column apart, reach the column each side
    texture = depth_texture([DefectSpec("disc", 1.5, 20.0, 0.2)], bit_depth)
    (stamp,) = texture.stamps
    z_mm = (stamp.row_lo + 0.25) * texture.grid.pitch_y_um * 1e-3
    event = CaptureEvent(0, 0, 0, z_mm, 20.0)
    tile, windows = render_windows(texture, event, monkeypatch)
    # the 0.2 mm disc's 96 rows fit one row block
    assert windows == [
        (stamp.row_lo - 1, stamp.row_hi + 1, stamp.col_lo - 1, stamp.coverage.shape[1] + 2)
    ]
    assert np.array_equal(tile.pixels, whole_tile_render(texture, event))


# (defects, tile centre z' mm, tile angle deg, windows render_tile asks
# for): layouts at the edges of render_tile's loop over stamps, seam
# segments and row blocks. 144 tile columns read a 0.3 mm line's 143
# texture columns, which leaves row blocks of 44,480 // 144 = 308 tile rows
LINE = DefectSpec("line", 1.5, 40.0, 0.3, length_mm=2.5, contrast=120)
INNER_DISC = DefectSpec("disc", 1.5, 40.0, 0.1, contrast=-170)
STAMP_LOOP_CASES = {
    "small-disc": ([DefectSpec("disc", 1.5, 40.0, 0.1)], 1.5, 40.0, 1),
    "line-longer-than-a-row-block": ([LINE], 1.5, 40.0, 3),
    # the clip makes the sum order-dependent inside the disc
    "disc-inside-line": ([LINE, INNER_DISC], 1.5, 40.0, 4),
    "line-around-disc": ([INNER_DISC, LINE], 1.5, 40.0, 4),
    # the tile's columns run from about 346 to 30 degrees
    "seam-in-tile": ([DefectSpec("disc", 1.5, 0.0, 0.2)], 1.5, 8.0, 1),
    # half the bottom tile's rows lie below z'=0, and all of them read
    # the disc's first texture rows
    "below-hole-bottom": ([DefectSpec("disc", 0.1, 30.0, 0.2)], 0.0, 30.0, 1),
}


@pytest.mark.parametrize("bit_depth", [8, 16])
@pytest.mark.parametrize("case", list(STAMP_LOOP_CASES))
def test_render_tile_windows_span_only_the_stamp_they_serve(case, bit_depth, monkeypatch):
    defects, z_mm, theta_deg, n_windows = STAMP_LOOP_CASES[case]
    texture = depth_texture(defects, bit_depth)
    event = CaptureEvent(0, 0, 0, z_mm, theta_deg)
    tile, windows = render_windows(texture, event, monkeypatch)
    assert len(windows) == n_windows
    for window in windows:
        assert any(spans_only(texture, stamp, window) for stamp in texture.stamps)
    expected = whole_tile_render(texture, event)
    assert tile.pixels.dtype == expected.dtype
    assert np.array_equal(tile.pixels, expected)
    assert np.any(tile.pixels != texture.background)


def test_disc_inside_line_order_decides_pixels():
    # 180 + 120 clips at 255 before the disc takes 170 off, and not after
    centres = []
    for case in ("disc-inside-line", "line-around-disc"):
        defects, z_mm, theta_deg, _ = STAMP_LOOP_CASES[case]
        texture = depth_texture(defects, 8)
        event = CaptureEvent(0, 0, 0, z_mm, theta_deg)
        tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
        centres.append(tile.pixels[347, 347])
    assert centres == [85, 130]


def test_render_tile_asks_no_window_of_a_tile_no_stamp_meets(monkeypatch):
    texture = depth_texture([DefectSpec("disc", 1.5, 40.0, 0.2)], 8)
    event = CaptureEvent(0, 1, 1, 1.5, 200.0)
    tile, windows = render_windows(texture, event, monkeypatch)
    assert windows == []
    assert np.all(tile.pixels == texture.background)


# tile half-width in degrees: column 0 and 694 lie this far from the centre
EDGE_DEG = math.degrees(
    tile_arc_px(695, BORE.radius_mm, CFG.pixel_pitch_x_um)[-1]
    * CFG.pixel_pitch_x_um * 1e-3 / BORE.radius_mm
)


def random_defects(rng, theta_deg, z_mm):
    """Discs and lines where the column runs have edges to get right: on
    both tile edges, across the seam, at the centre, and two overlapping
    pairs, one dark first and one bright first."""

    def place(anchor_deg, contrast):
        kind = "disc" if rng.random() < 0.6 else "line"
        size = float(rng.uniform(0.02, 0.3))
        length = float(rng.uniform(0.1, 1.2)) if kind == "line" else None
        half_z = (length if length else size) / 2.0
        beta = (anchor_deg + float(rng.uniform(-1.0, 1.0))) % 360.0
        z = z_mm + float(rng.uniform(-0.7, 0.7))
        # clamped onto z'=0 now and then: its stamp's first row is off the surface
        z = min(max(z, half_z), BORE.depth_mm - half_z)
        return DefectSpec(kind, z, beta if beta < 360.0 else 0.0, size, length, contrast)

    contrasts = [-170, -120, -60, 60, 90, 120]
    defects = [
        place(anchor, int(rng.choice(contrasts)))
        for anchor in (theta_deg - EDGE_DEG, theta_deg + EDGE_DEG, 0.0, theta_deg)
    ]
    for anchor, order in ((theta_deg - 8.0, (-170, 120)), (theta_deg + 8.0, (120, -170))):
        first = place(anchor, order[0])
        defects.append(first)
        shift = float(rng.uniform(-0.1, 0.1))
        second = dataclasses.replace(
            first, z_mm=min(max(first.z_mm + shift, 0.2), BORE.depth_mm - 0.2),
            kind="disc", size_mm=0.2, length_mm=None, contrast=order[1],
        )
        defects.append(second)
    return defects


@pytest.mark.parametrize("bit_depth", [8, 16])
@pytest.mark.parametrize("seed", range(8))
def test_render_tile_matches_whole_tile_render_on_random_defects(seed, bit_depth):
    # tiles on the seam, with the seam near either edge, and anywhere;
    # the bottom tile's rows reach below z'=0
    rng = np.random.default_rng(seed)
    theta = [0.0, 20.0, 345.0, float(rng.uniform(0.0, 360.0))][seed % 4]
    z_mm = [0.0, 1.5][seed // 4]
    texture = depth_texture(random_defects(rng, theta, z_mm), bit_depth)
    event = CaptureEvent(0, 0, 0, z_mm, theta)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    expected = whole_tile_render(texture, event)
    assert tile.pixels.dtype == expected.dtype
    assert np.array_equal(tile.pixels, expected)
    assert np.any(tile.pixels != texture.background)


def test_add_noise_zero_sigma_identity():
    texture = build_texture(BORE, [])
    event = CaptureEvent(0, 0, 0, 0.0, 0.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    out = add_noise(tile, 0.0, 7, buffers_like(tile))
    assert out is not tile
    assert np.array_equal(out.pixels, tile.pixels)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_add_noise_refuses_sigma_not_finite_and_non_negative(sigma):
    # nan once cast to an all-zero tile, and inf saturated it
    clean = TileImage(np.full((8, 8), 128, dtype=np.uint8))
    with pytest.raises(DomainError, match="finite"):
        add_noise(clean, sigma, 1, buffers_like(clean))


def test_add_noise_deterministic():
    texture = build_texture(BORE, [])
    event = CaptureEvent(0, 0, 0, 0.0, 0.0)
    tile = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
    a, b, c = (add_noise(tile, 5.0, n, buffers_like(tile)) for n in (123, 123, 124))
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def whole_tile_noise(pixels, sigma, seed, peak):
    """add_noise's law and stream layout, drawn for the whole tile at once."""
    seeds = np.random.SeedSequence(seed)
    n = pixels.size
    # the high halves: four to a 64-bit word, every pixel in raster order
    words = np.random.PCG64(seeds).random_raw(-(-n // 4))
    u = words.view(np.uint16)[:n].astype(np.int64) << 16
    bounds, _ = synth._noise_table(sigma, peak)
    # a pixel whose bucket holds a bound takes its low half from the second
    # stream, in raster order of those pixels
    split = np.flatnonzero(
        np.searchsorted(bounds, u, side="right")
        != np.searchsorted(bounds, u + 2**16 - 1, side="right")
    )
    words = np.random.PCG64(seeds.spawn(1)[0]).random_raw(-(-split.size // 4))
    u[split] += words.view(np.uint16)[: split.size]
    k = np.searchsorted(bounds, u, side="right").reshape(pixels.shape) - peak
    return np.clip(pixels + k, 0, peak).astype(pixels.dtype)


@pytest.mark.parametrize(
    "dtype, peak, sigma, seed",
    [
        pytest.param(np.uint8, 255, 5.0, 21, id="uint8-255"),
        pytest.param(np.uint16, 65535, 900.0, 21, id="uint16-65535"),
        # 16 bits per pixel and 16 more per split one: the same draws at any scale
        pytest.param(np.uint8, 255, 0.37, 1, id="uint8-255-small-sigma"),
        pytest.param(np.uint8, 255, 1234.5, 2**40 + 3, id="uint8-255-large-sigma"),
        pytest.param(np.uint16, 65535, 0.37, 99, id="uint16-65535-small-sigma"),
        pytest.param(np.uint16, 65535, 1234.5, 2**40 + 3, id="uint16-65535-large-sigma"),
    ],
)
def test_add_noise_strips_match_whole_tile_draw(dtype, peak, sigma, seed):
    # 695 rows: ten full strips and a short one
    assert 695 % STRIP_ROWS != 0
    pixels = np.random.default_rng(4).integers(0, peak + 1, (695, 301)).astype(dtype)
    clean = TileImage(pixels)
    noisy = add_noise(clean, sigma, seed, buffers_like(clean))
    expected = whole_tile_noise(pixels, sigma, seed, peak)
    assert noisy.pixels.dtype == dtype
    assert np.array_equal(noisy.pixels, expected)


@pytest.mark.parametrize("strip_rows", [15, 16, 695])
@pytest.mark.parametrize(
    "dtype, peak, sigma", [(np.uint8, 255, 5.0), (np.uint16, 65535, 900.0)]
)
def test_add_noise_does_not_depend_on_the_strip_size(
    monkeypatch, strip_rows, dtype, peak, sigma
):
    # 15 x 301 pixels is no whole number of 64-bit words
    pixels = np.random.default_rng(5).integers(0, peak + 1, (695, 301)).astype(dtype)
    clean = TileImage(pixels)
    expected = add_noise(clean, sigma, 8, buffers_like(clean)).pixels
    monkeypatch.setattr(synth, "STRIP_ROWS", strip_rows)
    buffers = buffers_like(clean)
    assert buffers.strips.shape == (2, min(695, strip_rows) * 301)
    assert np.array_equal(add_noise(clean, sigma, 8, buffers).pixels, expected)


@pytest.mark.parametrize("sigma, peak", [(0.37, 255), (5.0, 255), (900.0, 65535)])
def test_noise_bounds_are_the_rounded_normal_cdf(sigma, peak):
    bounds, table = synth._noise_table(sigma, peak)
    cdf = NormalDist().cdf
    expected = [round(cdf((k + 0.5) / sigma) * 2**32) for k in range(-peak, peak)]
    assert bounds.tolist() == expected
    # a bucket of the table holds K for all of its 2**16 uniforms, or the
    # dtype's minimum, which no K in [-peak, peak] can be
    assert table.dtype == (np.int16 if peak == 255 else np.int32)
    step = np.iinfo(table.dtype).min
    assert step < -peak
    first = np.arange(2**16, dtype=np.int64) << 16
    lo = np.searchsorted(bounds, first, side="right") - peak
    hi = np.searchsorted(bounds, first + 2**16 - 1, side="right") - peak
    assert np.array_equal(table.astype(np.int64), np.where(lo == hi, lo, step))


def test_add_noise_draws_the_rounded_gaussian():
    sigma, level = 5.0, 128
    clean = TileImage(np.full((2000, 2000), level, dtype=np.uint8))
    noisy = add_noise(clean, sigma, 2024, buffers_like(clean))
    k = noisy.pixels.astype(np.int64) - level
    # P(K=k) = Phi((k+1/2)/sigma) - Phi((k-1/2)/sigma), tails past 23 lumped
    edge = 23
    cdf = NormalDist(0.0, sigma).cdf
    pmf = [cdf(-edge + 0.5)]
    pmf += [cdf(j + 0.5) - cdf(j - 0.5) for j in range(-edge + 1, edge)]
    pmf += [1.0 - cdf(edge - 0.5)]
    counts = np.bincount(np.clip(k, -edge, edge).ravel() + edge, minlength=2 * edge + 1)
    expected = k.size * np.array(pmf)
    assert expected.min() > 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = len(pmf) - 1
    # about five standard deviations of the chi-square law above its mean
    assert chi2 < dof + 5 * math.sqrt(2 * dof)


def test_noise_table_is_read_only():
    for array in synth._noise_table(5.0, 255):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("dtype, peak", [(np.uint8, 255), (np.uint16, 65535)])
def test_add_noise_huge_sigma_saturates(dtype, peak):
    clean = TileImage(np.full((64, 64), peak // 2, dtype=dtype))
    noisy = add_noise(clean, 1e308, 3, buffers_like(clean)).pixels
    assert set(np.unique(noisy).tolist()) == {0, peak}


def test_add_noise_sample_std():
    clean = TileImage(np.full((512, 512), 128, dtype=np.uint8))
    noisy = add_noise(clean, 5.0, 99, buffers_like(clean))
    diff = noisy.pixels.astype(float) - 128.0
    assert 4.8 <= diff.std(ddof=1) <= 5.2


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_write_stack_writes_the_render_stack_tiles(tmp_path, processes):
    hole = HoleSpec(radius_mm=2.0, depth_mm=1.2)
    texture = build_texture(
        hole, [DefectSpec("disc", 0.6, 100.0, 0.2), DefectSpec("disc", 0.4, 359.9, 0.1)]
    )
    plan = plan_scan(hole, REGION)
    paths = [tmp_path / f"tile{event.order}.pgm" for event in plan.schedule]
    write_stack(texture, plan, CFG, REGION, paths, 4.0, 11, processes=processes)
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    buffers = tile_buffers(texture)
    for path, event in zip(paths, plan.schedule):
        tile = noisy_tile(texture, event, CFG, REGION, 4.0, 11, buffers)
        assert np.array_equal(read_pgm(path), tile.pixels)


def stamped_stack(bit_depth=8):
    """A nine-tile plan with stamps on some tiles: one across the seam."""
    hole = HoleSpec(radius_mm=2.0, depth_mm=1.2)
    defects = [
        DefectSpec("disc", 0.6, 100.0, 0.2),
        DefectSpec("disc", 0.4, 359.9, 0.1),
        DefectSpec("line", 0.6, 200.0, 0.05, 1.0),
    ]
    return build_texture(hole, defects, bit_depth=bit_depth), plan_scan(hole, REGION)


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_tiles_made_in_reused_buffers_match_new_ones(bit_depth):
    texture, plan = stamped_stack(bit_depth)
    buffers = tile_buffers(texture)
    stamped = []
    for event in plan.schedule:
        tile = noisy_tile(texture, event, CFG, REGION, 4.0, 11, buffers)
        assert tile.pixels is buffers.pixels
        fresh = noisy_tile(texture, event, CFG, REGION, 4.0, 11, tile_buffers(texture))
        assert np.array_equal(tile.pixels, fresh.pixels)
        # a background tile after a stamped one keeps none of its pixels
        clean = render_tile(texture, event, CFG, REGION, tile_buffers(texture))
        stamped.append(bool(np.any(clean.pixels != texture.background)))
        rendered = render_tile(texture, event, CFG, REGION, buffers)
        assert np.array_equal(rendered.pixels, clean.pixels)
    assert any(stamped) and not all(stamped)


def test_add_noise_leaves_its_input():
    texture, plan = stamped_stack()
    tile = render_tile(texture, plan.schedule[0], CFG, REGION, tile_buffers(texture))
    clean = tile.pixels.copy()
    noisy = add_noise(tile, 5.0, 1, buffers_like(tile))
    assert np.array_equal(tile.pixels, clean)
    # it may write in place, onto the buffer's own pixels
    buffers = buffers_like(tile)
    np.copyto(buffers.pixels, clean)
    in_place = add_noise(TileImage(buffers.pixels), 5.0, 1, buffers)
    assert in_place.pixels is buffers.pixels
    assert np.array_equal(in_place.pixels, noisy.pixels)


@pytest.mark.parametrize(
    "shape, dtype", [((695, 694), np.uint8), ((695, 695), np.uint16)]
)
def test_buffers_of_another_tile_are_refused(shape, dtype):
    texture, plan = stamped_stack()
    buffers = TileBuffers.empty(shape, dtype)
    with pytest.raises(DomainError, match="tile buffer"):
        render_tile(texture, plan.schedule[0], CFG, REGION, buffers)
    tile = render_tile(texture, plan.schedule[0], CFG, REGION, tile_buffers(texture))
    with pytest.raises(DomainError, match="tile buffer"):
        add_noise(tile, 5.0, 1, buffers)


@pytest.mark.parametrize("stamped", [False, True], ids=["background", "stamped"])
@pytest.mark.parametrize("bit_depth", [8, 16])
def test_write_stack_allocates_no_tile_after_its_first(
    tmp_path, monkeypatch, bit_depth, stamped
):
    texture, plan = stamped_stack(bit_depth)
    if not stamped:
        texture = dataclasses.replace(texture, stamps=())
    height, width = tile_shape_for(CFG, REGION)
    tile_bytes = height * width * np.dtype(texture.dtype).itemsize
    write_pgm, after_first = synth.write_pgm, []

    def spy(path, pixels):
        write_pgm(path, pixels)
        if not after_first:
            tracemalloc.reset_peak()
            after_first.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(synth, "write_pgm", spy)
    paths = [tmp_path / f"tile{event.order}.pgm" for event in plan.schedule]
    tracemalloc.start()
    try:
        write_stack(texture, plan, CFG, REGION, paths, 4.0, 11, processes=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # tiles 2..9 render, draw and write in the first tile's buffers. A
    # background tile allocates its row and column maps and one strip's
    # draw; a stamp's row block adds float64 work arrays (the window's
    # clip, the row blend and numpy's broadcast buffers) a few times the
    # block, which this stack's small stamps keep under a tile's bytes
    assert len(plan.schedule) == 9
    assert peak - after_first[0] < tile_bytes / (1 if stamped else 2)


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_write_stack_keeps_only_the_tiles_before_the_first_error(
    tmp_path, monkeypatch, processes
):
    hole = HoleSpec(radius_mm=2.0, depth_mm=1.2)
    texture = build_texture(hole, [])
    plan = plan_scan(hole, REGION)

    def failing_render_tile(texture, event, cfg, region, buffers):
        if event.order in (4, 7):
            raise DomainError(f"tile {event.order} cannot be rendered")
        return render_tile(texture, event, cfg, region, buffers)

    monkeypatch.setattr(synth, "render_tile", failing_render_tile)
    paths = [tmp_path / f"tile{event.order}.pgm" for event in plan.schedule]
    with pytest.raises(DomainError, match="tile 4 cannot"):
        write_stack(texture, plan, CFG, REGION, paths, processes=processes)
    assert sorted(tmp_path.iterdir()) == sorted(paths[:4])


def test_negative_noise_seed_is_refused():
    with pytest.raises(DomainError, match="noise seed must be >= 0, got -1"):
        tile_noise_seed(-1, 0)
