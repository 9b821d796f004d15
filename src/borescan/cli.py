"""Command line front end.

Four subcommands cover the workflow: ``plan`` computes the capture
schedule for a hole, ``synth`` renders a ground-truth tile set, ``inspect``
turns a tile set into a defect report and panorama, and ``report-compare``
scores reports against the planted truth. Exit codes are stable: 2 for
unparseable input, 3 for invalid geometry or a degenerate plan, 4 for an
unwritable output directory, 5 for a missing or corrupt image, 6 when a
comparison has no truth or no trials to work with.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .config import load_config, load_defect_list, parse_threshold_spec
from .detect import DEFAULT_MIN_AREA, binarize, connected_components, label_mask
from .errors import (
    BorescanError,
    ConfigError,
    DomainError,
    ImageFormatError,
    ParseError,
    PlacementError,
    ThresholdError,
)
from .locate import circular_delta_deg, merge_duplicates, record_from_blob, stitch_panorama
from .manifest import (
    RunManifest,
    load_manifest,
    missing_image_entries,
    read_report,
    save_manifest,
    write_report,
)
from .pgm import read_pgm, write_pgm
from .scanplan import plan_scan
from .synth import build_texture, render_stack
from .unwrap import TileImage, correct_tile

THREADS_ENV = "BORESCAN_THREADS"
MATCH_RADIUS_MM = 0.25  # truth-to-record association distance for comparisons


class _CompareEmpty(BorescanError):
    """Nothing to compare: no planted truth or no report trials."""


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        if flag < 1:
            raise ParseError("--threads must be >= 1")
        return flag
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ParseError(f"bad {THREADS_ENV} value {env!r}") from exc
        if value < 1:
            raise ParseError(f"bad {THREADS_ENV} value {env!r}")
        return value
    return os.cpu_count() or 1


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _tile_name(depth_step: int, rotation_step: int) -> str:
    return f"tile_d{depth_step:02d}_r{rotation_step:02d}.pgm"


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    plan = plan_scan(cfg.hole, cfg.region)
    out = _outdir(args.out)
    save_manifest(
        RunManifest(hole=cfg.hole, optics=cfg.optics, region=cfg.region, plan=plan),
        out / "plan.yaml",
    )
    print(
        f"plan: {plan.n_rot} rotations x {plan.n_depth} depths = "
        f"{len(plan.schedule)} tiles"
    )
    print(f"alpha_deg={plan.alpha_deg:g} step_mm={plan.step_mm:g}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    defects = load_defect_list(args.defects) if args.defects else []
    seed = cfg.synth.seed if args.seed is None else args.seed
    sigma = cfg.synth.noise_sigma if args.noise_sigma is None else args.noise_sigma
    if sigma < 0:
        raise DomainError("noise sigma cannot be negative")
    plan = plan_scan(cfg.hole, cfg.region)
    texture = build_texture(
        cfg.hole,
        defects,
        background=cfg.synth.background,
        pitch_um=cfg.optics.pixel_pitch_y_um,
        bit_depth=cfg.synth.bit_depth,
    )
    tiles, manifest = render_stack(
        texture, plan, cfg.optics, cfg.region, noise_sigma=sigma, seed=seed,
        truth=defects,
    )
    out = _outdir(args.out)
    for tile in tiles:
        depth_step, rotation_step = tile.tile_index
        name = _tile_name(depth_step, rotation_step)
        write_pgm(out / name, tile.pixels)
        manifest.images.append(
            {"depth_step": depth_step, "rotation_step": rotation_step, "file": name}
        )
    save_manifest(manifest, out / "manifest.yaml")
    print(
        f"synth: {len(tiles)} tiles, {len(defects)} planted defects, "
        f"seed={seed} sigma={sigma:g}"
    )
    return 0


def _inspect_tile(entry, manifest, base_dir, out_dir, threshold, min_area):
    """Read, correct, and measure one tile. Runs on a worker thread."""
    method, value = threshold
    j, k = entry["depth_step"], entry["rotation_step"]
    path = base_dir / entry["file"]
    try:
        pixels = read_pgm(path)
    except OSError as exc:
        raise ImageFormatError(f"{path}: {exc}") from exc
    cfg = manifest.optics
    tile = TileImage(
        pixels, cfg.pixel_pitch_x_um, cfg.pixel_pitch_y_um, tile_index=(j, k)
    )
    corrected = correct_tile(tile, manifest.hole.radius_mm)
    write_pgm(out_dir / entry["file"], corrected.pixels)
    try:
        if method == "otsu":
            mask = binarize(corrected, method="otsu")
        else:
            mask = binarize(corrected, method="fixed", threshold=value)
    except ThresholdError:
        # featureless tile; nothing to segment
        return corrected, []
    labels = label_mask(mask, 8)
    records = [
        record_from_blob(
            blob, labels, j, k, manifest.plan, manifest.hole, manifest.optics
        )
        for blob in connected_components(labels, min_area)
    ]
    return corrected, records


def cmd_inspect(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    missing = missing_image_entries(manifest)
    if missing:
        print(f"error: no image recorded for tile {missing[0]}", file=sys.stderr)
        return 5
    threshold = parse_threshold_spec(args.threshold)
    out = _outdir(args.out)
    corrected_dir = _outdir(out / "corrected")
    base_dir = Path(args.manifest).parent
    workers = _resolve_threads(args.threads)
    order = {
        (e.depth_step, e.rotation_step): e.order for e in manifest.plan.schedule
    }
    for entry in manifest.images:
        if (entry["depth_step"], entry["rotation_step"]) not in order:
            raise ParseError(
                f"image entry for tile ({entry['depth_step']}, "
                f"{entry['rotation_step']}) is not in the plan"
            )
    entries = sorted(
        manifest.images, key=lambda e: order[(e["depth_step"], e["rotation_step"])]
    )
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(
            pool.map(
                lambda entry: _inspect_tile(
                    entry, manifest, base_dir, corrected_dir, threshold, args.min_area
                ),
                entries,
            )
        )
    tiles = [corrected for corrected, _ in results]
    records = [rec for _, recs in results for rec in recs]
    merged = merge_duplicates(records, radius_mm=manifest.hole.radius_mm)
    panorama = stitch_panorama(tiles, manifest.plan, manifest.hole, manifest.optics)
    write_pgm(out / "panorama.pgm", panorama.pixels)
    write_report(
        merged,
        manifest.hole,
        args.threshold,
        out / "report.csv",
        out / "report.yaml",
        source=Path(args.manifest).name,
    )
    print(f"inspect: {len(merged)} defects from {len(tiles)} tiles")
    for rec in merged:
        print(
            f"  [{rec.id}] {rec.kind} z={rec.z_mm:.3f} mm "
            f"beta={rec.beta_deg:.2f} deg size={rec.size_mm:.3f} mm"
        )
    return 0


def _nearest_record(truth, records, hole):
    """Closest same-kind record within the match radius, or None."""
    best, best_dist = None, MATCH_RADIUS_MM
    z_true = hole.depth_mm - truth.z_mm
    for rec in records:
        if rec["kind"] != truth.kind:
            continue
        dz = rec["z_mm"] - z_true
        darc = (
            math.radians(circular_delta_deg(rec["beta_deg"], truth.beta_deg))
            * hole.radius_mm
        )
        dist = math.hypot(dz, darc)
        if dist <= best_dist:
            best, best_dist = rec, dist
    return best


def cmd_report_compare(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    if not manifest.truth:
        raise _CompareEmpty("manifest has no planted truth to compare against")
    if not args.reports:
        raise _CompareEmpty("no report files given")
    reports = [read_report(path) for path in args.reports]
    out = _outdir(args.out)
    rows = []
    for truth in manifest.truth:
        sizes = []
        for report in reports:
            match = _nearest_record(truth, report["records"], manifest.hole)
            if match is not None:
                sizes.append(float(match["size_mm"]))
        mean = statistics.fmean(sizes) if sizes else None
        rows.append(
            {
                "kind": truth.kind,
                "z_mm": round(manifest.hole.depth_mm - truth.z_mm, 3),
                "beta_deg": round(truth.beta_deg, 3),
                "true_size_mm": round(truth.size_mm, 3),
                "trials": len(sizes),
                "mean_size_mm": round(mean, 3) if sizes else "",
                "std_size_mm": (
                    round(statistics.stdev(sizes), 3) if len(sizes) > 1 else ""
                ),
                "mean_error_mm": round(mean - truth.size_mm, 3) if sizes else "",
            }
        )
    columns = [
        "kind",
        "z_mm",
        "beta_deg",
        "true_size_mm",
        "trials",
        "mean_size_mm",
        "std_size_mm",
        "mean_error_mm",
    ]
    with open(out / "compare.csv", "w", encoding="ascii", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(
            f"{row['kind']} at z={row['z_mm']} beta={row['beta_deg']}: "
            f"true={row['true_size_mm']} mean={row['mean_size_mm']} "
            f"std={row['std_size_mm']} trials={row['trials']}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borescan", description="Inner-bore surface inspection tools."
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="compute the capture schedule")
    plan.add_argument("--config", required=True, help="INI run configuration")
    plan.add_argument("--out", required=True, help="output directory")
    plan.set_defaults(func=cmd_plan)

    synth = sub.add_parser("synth", help="render a synthetic tile set")
    synth.add_argument("--config", required=True, help="INI run configuration")
    synth.add_argument("--defects", help="CSV list of defects to plant")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=None, help="master noise seed")
    synth.add_argument(
        "--noise-sigma", type=float, default=None, help="sensor noise, DN at 8 bit"
    )
    synth.set_defaults(func=cmd_synth)

    inspect = sub.add_parser("inspect", help="detect and report defects")
    inspect.add_argument("--manifest", required=True, help="tile-set manifest YAML")
    inspect.add_argument("--out", required=True, help="output directory")
    inspect.add_argument(
        "--threshold", default="fixed:0.5", help="otsu or fixed:<fraction>"
    )
    inspect.add_argument(
        "--min-area", type=int, default=DEFAULT_MIN_AREA,
        help="smallest blob kept, px",
    )
    inspect.add_argument(
        "--threads", type=int, default=None,
        help=f"worker threads (default: ${THREADS_ENV} or CPU count)",
    )
    inspect.set_defaults(func=cmd_inspect)

    compare = sub.add_parser(
        "report-compare", help="score reports against planted truth"
    )
    compare.add_argument("--manifest", required=True, help="manifest with truth")
    compare.add_argument("--out", required=True, help="output directory")
    compare.add_argument("reports", nargs="*", help="report YAML files")
    compare.set_defaults(func=cmd_report_compare)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DomainError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ImageFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except _CompareEmpty as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
