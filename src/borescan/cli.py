"""Command line front end.

Four subcommands cover the workflow: ``plan`` computes the capture
schedule for a hole, ``synth`` renders a ground-truth tile set, ``inspect``
turns a tile set into a defect report and panorama, and ``report-compare``
scores reports against the planted truth. Tile (j, k) of a run is the
file ``tile_dJJ_rKK.pgm`` next to its manifest. Exit codes are stable and
live on the error classes: 2 for unparseable input, 3 for invalid
geometry, a degenerate plan or any other input the library rejects, 4 for
an unwritable output directory, 5 for a missing, corrupt or wrongly sized
image, 6 when a comparison has no truth or no trials to work with. Each
command prints only after its files are written, so a closed stdout is
not an error: the command still exits 0. Only synth and inspect import
the layers that need numpy, when they run.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

from . import __version__
from .config import load_config, load_defect_list, parse_threshold_spec
from .errors import BorescanError, DomainError, ImageFormatError, ParseError
from .geometry import DEFAULT_MIN_AREA, circular_delta_deg
from .manifest import (
    RunManifest,
    load_manifest,
    read_report,
    save_manifest,
    write_report,
)
from .pool import map_in_order
from .scanplan import plan_scan, plan_uncovered_px, tile_shape_for

MATCH_RADIUS_MM = 0.25  # truth-to-record association distance for comparisons


class _CompareEmpty(BorescanError):
    """Nothing to compare: no planted truth or no report trials."""

    exit_code = 6


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        if flag < 1:
            raise ParseError("--threads must be >= 1")
        return flag
    # the CPUs this process may run on: a pinned process has fewer than
    # os.cpu_count() reports, and more threads would only contend for them
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _tile_name(depth_step: int, rotation_step: int) -> str:
    """The file of plan tile (depth_step, rotation_step), next to its manifest."""
    return f"tile_d{depth_step:02d}_r{rotation_step:02d}.pgm"


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    plan = plan_scan(cfg.hole, cfg.region)
    tile_shape = tile_shape_for(cfg.optics, cfg.region)
    uncovered = plan_uncovered_px(plan, cfg.hole, cfg.optics, tile_shape)
    out = _outdir(args.out)
    save_manifest(
        RunManifest(hole=cfg.hole, optics=cfg.optics, region=cfg.region, plan=plan),
        out / "plan.yaml",
    )
    print(
        f"plan: {plan.n_rot} rotations x {plan.n_depth} depths = "
        f"{len(plan.schedule)} tiles"
    )
    print(
        f"alpha_deg={plan.alpha_deg:g} step_mm={plan.step_mm:g} "
        f"uncovered_px={uncovered}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import build_texture, write_stack
    processes = _resolve_threads(None)
    cfg = load_config(args.config)
    defects = load_defect_list(args.defects) if args.defects else []
    seed = cfg.synth.seed if args.seed is None else args.seed
    sigma = cfg.synth.noise_sigma if args.noise_sigma is None else args.noise_sigma
    if not (math.isfinite(sigma) and sigma >= 0):
        raise DomainError(f"noise sigma must be finite and >= 0, got {sigma}")
    if seed < 0:
        raise DomainError(f"noise seed must be >= 0, got {seed}")
    plan = plan_scan(cfg.hole, cfg.region)
    texture = build_texture(
        cfg.hole,
        defects,
        background=cfg.synth.background,
        pitch_um=cfg.optics.pixel_pitch_y_um,
        bit_depth=cfg.synth.bit_depth,
    )
    manifest = RunManifest(
        hole=cfg.hole, optics=cfg.optics, region=cfg.region, plan=plan,
        truth=defects, seed=seed, noise_sigma=sigma,
    )
    out = _outdir(args.out)
    paths = [out / _tile_name(e.depth_step, e.rotation_step) for e in plan.schedule]
    write_stack(
        texture, plan, cfg.optics, cfg.region, paths, noise_sigma=sigma, seed=seed,
        processes=processes,
    )
    save_manifest(manifest, out / "manifest.yaml")
    print(
        f"synth: {len(plan.schedule)} tiles, {len(defects)} planted defects, "
        f"seed={seed} sigma={sigma:g}"
    )
    return 0


def _inspect_tile(event, manifest, expected, base_dir, out_dir, pgm, unwrap):
    """Read one tile, check it is ``expected`` (height, width) px, correct it
    and write the corrected tile. Returns its plan position and corrected
    pixels, the pair the stitch takes. Runs on a worker thread. ``pgm`` and
    ``unwrap`` are those modules, which :func:`cmd_inspect` imports once a
    run, not once a tile."""
    name = _tile_name(event.depth_step, event.rotation_step)
    path = base_dir / name
    try:
        pixels = pgm.read_pgm(path)
    except OSError as exc:
        raise ImageFormatError(f"{path}: {exc}") from exc
    if pixels.shape != expected:
        raise ImageFormatError(
            f"{path}: tile is {pixels.shape[0]}x{pixels.shape[1]} px, the "
            f"manifest's optics and region give {expected[0]}x{expected[1]}"
        )
    corrected = unwrap.correct_tile(
        pixels, manifest.hole.radius_mm, manifest.optics.pixel_pitch_x_um
    )
    pgm.write_pgm(out_dir / name, corrected)
    return (event.depth_step, event.rotation_step), corrected


def _one_bit_depth(tiles, base_dir):
    """Pass the (plan position, pixels) pairs ``tiles`` on, refusing a tile
    of another bit depth than the first."""
    depth = None
    for index, pixels in tiles:
        bits = pixels.dtype.itemsize * 8
        if depth is None:
            depth = bits
        elif bits != depth:
            raise ImageFormatError(
                f"{base_dir / _tile_name(*index)}: tile is {bits}-bit, "
                f"the tiles before it {depth}-bit"
            )
        yield index, pixels


def cmd_inspect(args: argparse.Namespace) -> int:
    from . import pgm, unwrap
    from .locate import inspect_stack
    if args.min_area < 1:
        raise ParseError("--min-area must be >= 1")
    manifest = load_manifest(args.manifest)
    threshold = parse_threshold_spec(args.threshold)
    out = _outdir(args.out)
    corrected_dir = _outdir(out / "corrected")
    base_dir = Path(args.manifest).parent
    schedule = manifest.plan.schedule
    tile_shape = tile_shape_for(manifest.optics, manifest.region)
    # the stitch takes tiles in plan-row order, which closes the panorama
    # one depth row at a time
    by_rows = sorted(
        schedule, key=lambda event: (event.depth_step, event.rotation_step)
    )
    # the panorama streams into a temporary file, so a failed run leaves none
    partial = out / "panorama.pgm.tmp"
    try:
        with open(partial, "wb") as sink:
            records, _ = inspect_stack(
                _one_bit_depth(
                    map_in_order(
                        lambda event: _inspect_tile(
                            event, manifest, tile_shape, base_dir, corrected_dir,
                            pgm, unwrap,
                        ),
                        by_rows,
                        _resolve_threads(args.threads),
                    ),
                    base_dir,
                ),
                manifest.plan, manifest.hole, manifest.optics, tile_shape, sink,
                *threshold, args.min_area,
            )
        os.replace(partial, out / "panorama.pgm")
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    write_report(
        records,
        manifest.hole,
        args.threshold,
        out / "report.csv",
        out / "report.yaml",
        source=Path(args.manifest).name,
    )
    print(f"inspect: {len(records)} defects from {len(schedule)} tiles")
    for rec in records:
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
    import statistics  # on use: plan needs none of it
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
    with open(out / "compare.csv", "w", encoding="ascii", newline="") as handle:
        # rows is not empty: a manifest without truth exited above
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
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
        "--noise-sigma", type=float, default=None,
        help="sensor noise sigma, in levels of the configured bit depth",
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
        help="worker threads (default: the CPUs this process may run on)",
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
    try:
        try:
            args = _build_parser().parse_args(argv)
        finally:
            # --help and --version print, then exit from parse_args: flush
            # here, where a closed stdout is caught below, not at exit
            sys.stdout.flush()
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BorescanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the files are written and only the summary is lost; point stdout
        # at devnull so the flush at exit cannot raise again, as the SIGPIPE
        # note in the Python signal docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
