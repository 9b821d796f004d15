"""Sign-off gate for the whole measurement stack.

Each test prints one ``acceptance NN: PASS/FAIL`` line with the measured
values, so a plain pytest run doubles as the release checklist. Budgets
are fixed up front: analytic reference values for the 4 mm bore optics,
an interpolation-error cap for the unwrap round trip, an exhaustive
labeling oracle, plan coverage, and three synthetic end-to-end runs that
exercise sizing statistics, localization and throughput. The sizing and
localization runs feed corrected rendered tiles to the same
``inspect_stack`` pipeline that ``inspect`` runs.
"""

import collections
import math
import os
import statistics
import time

import numpy as np

from borescan.cli import main as cli_main
from borescan.detect import connected_components, label_mask, row_runs
from borescan.geometry import (
    DeviationSpec,
    HoleSpec,
    OpticsConfig,
    arc_expansion,
    deviation_total,
    object_extent,
    projection_error_ratio,
    relative_fov_error,
)
from borescan.locate import circular_delta_deg, inspect_stack, plan_uncovered_px
from borescan.manifest import read_report
from borescan.scanplan import (
    CaptureEvent,
    EffectiveRegion,
    ScanPlan,
    plan_scan,
)
from borescan.synth import (
    DefectSpec,
    TileBuffers,
    build_texture,
    noisy_tile,
    tile_shape_for,
)
from borescan.unwrap import TileImage, correct_tile, forward_project

RADIUS = 2.0  # reference 4 mm bore
PITCH = 2.16  # um per pixel, both axes
OPTICS = OpticsConfig()
REGION = EffectiveRegion(1.5, 1.5)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- analytic reference values -----------------------------------------


def test_01_arc_projection_reference(capsys):
    arc = arc_expansion(RADIUS, 2.53)
    ratio = projection_error_ratio(RADIUS, 2.53) * 100.0
    ok = abs(arc - 2.74) <= 0.005 and abs(ratio - 8.30) <= 0.05
    _verdict(capsys, 1, ok, f"arc of 2.53 mm chord = {arc:.5f} mm, "
             f"projection error = {ratio:.4f}%")


def test_02_axis_deviation_budget(capsys):
    total = deviation_total(DeviationSpec(lever_arm_mm=45.0, tilt_deg=0.5,
                                          shift_mm=0.2))
    ok = 0.4400 <= total <= 0.4410
    _verdict(capsys, 2, ok, f"total axis deviation = {total:.5f} mm")


def test_03_fov_error_under_deviation(capsys):
    error = relative_fov_error(2.53, 2.5, RADIUS, 0.44) * 100.0
    ok = abs(error - 0.26) <= 0.01
    _verdict(capsys, 3, ok, f"relative field-of-view error = {error:.5f}%")


def test_04_object_extent_4mm_bore(capsys):
    extent = object_extent(OPTICS, RADIUS)
    ok = abs(extent - 2.53) <= 0.01
    _verdict(capsys, 4, ok, f"imaged patch diameter = {extent:.5f} mm")


# --- unwrap round trip --------------------------------------------------


def _band_limited_texture(seed, height=40, width=695):
    # No energy above half Nyquist: resampling smooth content twice must
    # only cost interpolation error, never aliasing.
    rng = np.random.default_rng(seed)
    spectrum = np.fft.rfft2(rng.standard_normal((height, width)))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    spectrum *= np.exp(-(fy**2 + fx**2) / (2 * 0.06**2))
    spectrum[(np.abs(fy) > 0.25) | (fx > 0.25)] = 0.0
    smooth = np.fft.irfft2(spectrum, s=(height, width))
    smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min())
    return TileImage((30 + smooth * 190).astype(np.uint8), PITCH, PITCH)


def test_05_unwrap_round_trip(capsys):
    start = time.perf_counter()
    lo, hi = 35, 660  # central 90% of columns
    worst_mean = worst_max = 0.0
    for seed in range(20):
        texture = _band_limited_texture(seed)
        recovered = correct_tile(forward_project(texture, RADIUS), RADIUS)
        diff = np.abs(
            recovered.pixels[:, lo:hi].astype(float)
            - texture.pixels[:, lo:hi].astype(float)
        )
        worst_mean = max(worst_mean, float(diff.mean()))
        worst_max = max(worst_max, float(diff.max()))
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 2.0 and worst_max <= 10.0 and elapsed < 10.0
    _verdict(capsys, 5, ok,
             f"20 textures, worst mean |err| = {worst_mean:.3f}/255, "
             f"worst max = {worst_max:.0f}/255, {elapsed:.1f}s")


# --- labeling oracle ----------------------------------------------------


def _flood_fill(mask):
    """8-connected labels of a mask whose first and last columns touch."""
    h, w = mask.shape
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
             if (dr, dc) != (0, 0)]
    labels = np.zeros((h, w), dtype=int)
    current = 0
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or labels[r, c]:
                continue
            current += 1
            labels[r, c] = current
            queue = collections.deque([(r, c)])
            while queue:
                cr, cc = queue.popleft()
                for dr, dc in steps:
                    nr, nc = cr + dr, (cc + dc) % w
                    if 0 <= nr < h and mask[nr, nc] and not labels[nr, nc]:
                        labels[nr, nc] = current
                        queue.append((nr, nc))
    return labels


def _partition(labels):
    groups = collections.defaultdict(set)
    for r, c in zip(*np.nonzero(labels)):
        groups[int(labels[r, c])].add((int(r), int(c)))
    return frozenset(frozenset(g) for g in groups.values())


def _run_partition(runs):
    """The same canonical form, from labelled row runs."""
    width = runs.shape[1]
    groups = collections.defaultdict(set)
    for row, start, stop, label in zip(runs.row.tolist(), runs.start.tolist(),
                                       runs.stop.tolist(), runs.label.tolist()):
        groups[label].update((row, col % width) for col in range(start, stop))
    return frozenset(frozenset(g) for g in groups.values())


def _labeling_agrees(mask):
    reference = _partition(_flood_fill(mask))
    runs = label_mask(mask.shape, *row_runs(mask))
    if _run_partition(runs) != reference:
        return False
    blobs = connected_components(runs, min_area=1)
    return (len(blobs) == len(reference)
            and sorted(b.pixel_area for b in blobs)
            == sorted(len(g) for g in reference))


def test_06_labeling_matches_flood_fill(capsys):
    start = time.perf_counter()
    bits = (np.arange(65536, dtype=np.uint32)[:, None] >> np.arange(16)) & 1
    masks = bits.astype(bool).reshape(-1, 4, 4)
    mismatches = sum(not _labeling_agrees(m) for m in masks)
    rng = np.random.default_rng(606)
    for _ in range(200):
        mask = rng.random((64, 64)) < rng.uniform(0.2, 0.8)
        mismatches += not _labeling_agrees(mask)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(capsys, 6, ok,
             f"65536 exhaustive 4x4 + 200 random 64x64 masks, "
             f"{mismatches} mismatches, {elapsed:.1f}s")


# --- plan coverage ------------------------------------------------------


def test_07_plan_coverage(capsys):
    start = time.perf_counter()
    hole = HoleSpec(RADIUS, 47.0)
    plan = plan_scan(hole, REGION)
    tile_shape = tile_shape_for(OPTICS, REGION)
    full = plan_uncovered_px(plan, hole, OPTICS, tile_shape)
    reduced = ScanPlan(
        n_rot=8,
        n_depth=plan.n_depth,
        alpha_deg=45.0,
        step_mm=plan.step_mm,
        schedule=tuple(
            CaptureEvent(order=k * plan.n_depth + j, depth_step=j,
                         rotation_step=k, z_mm=j * plan.step_mm,
                         theta_deg=k * 45.0)
            for k in range(8)
            for j in range(plan.n_depth)
        ),
    )
    gapped = plan_uncovered_px(reduced, hole, OPTICS, tile_shape)
    elapsed = time.perf_counter() - start
    ok = (
        (plan.n_rot, plan.n_depth) == (9, 32)
        and full == 0
        and gapped > 0
        and elapsed < 5.0
    )
    _verdict(capsys, 7, ok,
             f"9x32 plan leaves {full} px of the panorama uncovered, 8 "
             f"rotations leave {gapped} px, {elapsed:.1f}s")


# --- synthetic end-to-end runs ------------------------------------------


def _inspect_rendered(texture, plan, hole, noise_sigma=0.0, seed=0):
    """Run the inspect pipeline on every scheduled tile, made in memory in
    one set of buffers and corrected, in plan-row order as ``inspect`` does;
    the panorama's rows are written to the null device."""
    shape = tile_shape_for(OPTICS, REGION)
    buffers = TileBuffers.empty(shape, texture.dtype)
    in_rows = sorted(plan.schedule, key=lambda e: (e.depth_step, e.rotation_step))
    with open(os.devnull, "wb") as sink:
        return inspect_stack(
            (correct_tile(noisy_tile(texture, event, OPTICS, REGION, noise_sigma,
                                     seed, buffers), hole.radius_mm)
             for event in in_rows),
            plan, hole, OPTICS, shape, sink,
        )


def _nearest(records, kind, z_mm, beta_deg):
    pool = [r for r in records if r.kind == kind]
    return min(pool, key=lambda r: math.hypot(
        r.z_mm - z_mm,
        RADIUS * math.radians(circular_delta_deg(r.beta_deg, beta_deg)),
    ))


def test_08_sizing_statistics(capsys):
    # Reference feature set at 2.16 um/px: the two disc gauges, a disc
    # pair at 0.400 mm spacing, and a 0.300 mm line, re-placed each trial
    # with a sub-pixel offset under sigma=5/255 noise.
    start = time.perf_counter()
    hole = HoleSpec(RADIUS, 4.5)
    plan = plan_scan(hole, REGION)
    half_sep = math.degrees(0.2 / RADIUS)  # half the pair spacing
    deg_per_px = 360.0 / round(2e3 * math.pi * RADIUS / PITCH)
    measured = {"disc 0.100": [], "disc 0.200": [], "pair 0.400": [],
                "line 0.300": []}
    counts = []
    for trial in range(30):
        rng = np.random.default_rng(1000 + trial)

        def jitter(rng=rng):
            return (float(rng.uniform(-0.5, 0.5)) * deg_per_px,
                    float(rng.uniform(-0.5, 0.5)) * PITCH * 1e-3)

        (b1, z1), (b2, z2), (bp, zp), (bl, zl) = (jitter() for _ in range(4))
        texture = build_texture(hole, [
            DefectSpec("disc", 1.5 + z1, 10.0 + b1, 0.100),
            DefectSpec("disc", 3.0 + z2, 80.0 + b2, 0.200),
            DefectSpec("disc", 1.8 + zp, 160.0 - half_sep + bp, 0.200),
            DefectSpec("disc", 1.8 + zp, 160.0 + half_sep + bp, 0.200),
            DefectSpec("line", 2.25 + zl, 240.0 + bl, 0.300, length_mm=3.7),
        ], pitch_um=PITCH)
        found, _ = _inspect_rendered(texture, plan, hole, noise_sigma=5.0,
                                     seed=trial)
        counts.append(len(found))
        depth = hole.depth_mm
        measured["disc 0.100"].append(
            _nearest(found, "disc", depth - 1.5 - z1, 10.0 + b1).size_mm)
        measured["disc 0.200"].append(
            _nearest(found, "disc", depth - 3.0 - z2, 80.0 + b2).size_mm)
        left = _nearest(found, "disc", depth - 1.8 - zp,
                        160.0 - half_sep + bp)
        right = _nearest(found, "disc", depth - 1.8 - zp,
                         160.0 + half_sep + bp)
        measured["pair 0.400"].append(math.hypot(
            left.z_mm - right.z_mm,
            RADIUS * math.radians(circular_delta_deg(left.beta_deg,
                                                     right.beta_deg)),
        ))
        measured["line 0.300"].append(
            _nearest(found, "line", depth - 2.25 - zl, 240.0 + bl).size_mm)
    elapsed = time.perf_counter() - start
    stats = {
        name: (statistics.fmean(values) - float(name.split()[1]),
               statistics.stdev(values))
        for name, values in measured.items()
    }
    ok = (
        all(count == 5 for count in counts)
        and all(abs(bias) <= 0.012 and std <= 0.010
                for bias, std in stats.values())
        and elapsed < 300.0
    )
    summary = ", ".join(f"{name}: bias {bias * 1e3:+.1f} um std "
                        f"{std * 1e3:.1f} um"
                        for name, (bias, std) in stats.items())
    _verdict(capsys, 8, ok, f"30 trials, {summary}, {elapsed:.0f}s")


def test_09_localization_and_sizing(capsys):
    # Noiseless full-depth bore with every overlap case: a disc split
    # across the k=0/k=1 window edge, one wrapping the 360 seam, one on
    # the j=6/j=7 depth boundary, a line crossing both a window edge and
    # three depth steps, and one defect seen by a single tile only. Each
    # gives one record; the split line and the seam disc keep their size
    # within acceptance 08's 12 um bias bound. The stitched panorama must
    # cover the whole wall.
    start = time.perf_counter()
    hole = HoleSpec(RADIUS, 47.0)
    plan = plan_scan(hole, REGION)
    truth = [
        DefectSpec("disc", 10.0, 20.0, 0.150),
        DefectSpec("disc", 20.0, 359.8, 0.200),
        DefectSpec("disc", 9.75, 120.0, 0.200),
        DefectSpec("line", 6.5, 300.0, 0.300, length_mm=3.0),
        DefectSpec("disc", 30.0, 200.0, 0.100),
    ]
    sized = (truth[1], truth[3])  # the seam disc and the split line
    texture = build_texture(hole, truth, pitch_um=PITCH)
    found, panorama = _inspect_rendered(texture, plan, hole)
    uncovered = panorama.meta["uncovered_px"]
    matched_ids = set()
    worst_z = worst_arc = worst_size = 0.0
    for spec in truth:
        record = _nearest(found, spec.kind, hole.depth_mm - spec.z_mm,
                          spec.beta_deg)
        matched_ids.add(record.id)
        worst_z = max(worst_z,
                      abs(record.z_mm - (hole.depth_mm - spec.z_mm)))
        worst_arc = max(worst_arc, RADIUS * math.radians(
            circular_delta_deg(record.beta_deg, spec.beta_deg)))
        if spec in sized:
            worst_size = max(worst_size, abs(record.size_mm - spec.size_mm))
    elapsed = time.perf_counter() - start
    ok = (
        len(found) == len(truth)
        and len(matched_ids) == len(truth)
        and worst_z <= 0.02
        and worst_arc <= 0.02
        and worst_size <= 0.012
        and uncovered == 0
        and panorama.meta["missing_tiles"] == []
        and elapsed < 120.0
    )
    _verdict(capsys, 9, ok,
             f"{len(found)} records for {len(truth)} planted defects, "
             f"worst |dz| = {worst_z:.4f} mm, worst arc error = "
             f"{worst_arc:.4f} mm, seam disc and split line worst size "
             f"error = {worst_size:.4f} mm, {uncovered} uncovered px, "
             f"{elapsed:.0f}s")


def test_10_throughput(tmp_path, capsys):
    start = time.perf_counter()
    config = tmp_path / "run.ini"
    config.write_text("[hole]\nradius_mm = 2.0\ndepth_mm = 47.0\n")
    defects = tmp_path / "defects.csv"
    defects.write_text(
        "kind,z_mm,beta_deg,size_mm,length_mm,contrast\n"
        "disc,10.0,20.0,0.15,,\n"
        "disc,20.0,359.8,0.2,,\n"
        "disc,9.75,120.0,0.2,,\n"
        "line,6.5,300.0,0.3,3.0,\n"
        "disc,30.0,200.0,0.1,,\n"
    )
    tiles = tmp_path / "tiles"
    rc_synth = cli_main(["synth", "--config", str(config),
                         "--defects", str(defects), "--out", str(tiles),
                         "--seed", "42", "--noise-sigma", "5"])
    t_synth = time.perf_counter()
    out = tmp_path / "inspect"
    rc_inspect = cli_main(["inspect", "--manifest",
                           str(tiles / "manifest.yaml"), "--out", str(out),
                           "--threads", "4"])
    t_inspect = time.perf_counter()
    rc_compare = cli_main(["report-compare", "--manifest",
                           str(tiles / "manifest.yaml"),
                           "--out", str(tmp_path / "score"),
                           str(out / "report.yaml")])
    elapsed = time.perf_counter() - start
    n_tiles = len(list(tiles.glob("tile_*.pgm")))
    n_records = len(read_report(out / "report.yaml")["records"])
    ok = (
        (rc_synth, rc_inspect, rc_compare) == (0, 0, 0)
        and n_tiles == 288
        and n_records == 5
        and elapsed < 600.0
    )
    _verdict(capsys, 10, ok,
             f"{n_tiles} tiles: synth {t_synth - start:.0f}s, inspect "
             f"{t_inspect - t_synth:.0f}s (4 threads), compare; "
             f"{n_records} defects reported, total {elapsed:.0f}s")
