"""Run manifests and defect reports.

A manifest ties a tile set to the geometry, optics, and plan that produced
it, plus any planted ground truth. It lists no images: tile (j, k) of the
plan is the file ``tile_dJJ_rKK.pgm`` next to the manifest. Serialization
is plain YAML with stable key order and no timestamps: rerunning the same
job must write the same bytes. Reports carry the defect records
with per-kind statistics, as YAML for machines and CSV for spreadsheets.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import asdict, dataclass, field

import yaml

from . import __version__
from .errors import ParseError
from .geometry import HoleSpec, OpticsConfig
from .locate import DefectRecord
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan, plan_scan, shot_counts
from .schema import check_keys, field_types, read_fields
from .synth import DefectSpec

__all__ = [
    "RunManifest",
    "manifest_to_dict",
    "manifest_from_dict",
    "save_manifest",
    "load_manifest",
    "write_report",
    "read_report",
    "report_to_dict",
]

# the manifest layout this version writes and reads; a change to its keys or
# their meaning takes the next number
MANIFEST_FORMAT = 1

# libyaml's parser and emitter when PyYAML was built with them: several times
# faster, and the same data. The two emitters fold a long escaped string at
# other points, so both write with no line limit (libyaml takes a C int, not
# inf): the bytes are then the same with or without libyaml
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_WIDTH = 2**31 - 1


@dataclass
class RunManifest:
    """Everything needed to reproduce or interpret one tile set."""

    hole: HoleSpec
    optics: OpticsConfig
    region: EffectiveRegion
    plan: ScanPlan
    truth: list[DefectSpec] = field(default_factory=list)
    seed: int = 0
    noise_sigma: float = 0.0
    format: int = MANIFEST_FORMAT


_REPORT_KEYS = {"kind": str, "z_mm": float, "beta_deg": float, "size_mm": float}


def manifest_to_dict(manifest: RunManifest) -> dict:
    return {
        "format": manifest.format,
        "seed": manifest.seed,
        "noise_sigma": manifest.noise_sigma,
        "hole": asdict(manifest.hole),
        "optics": asdict(manifest.optics),
        "region": asdict(manifest.region),
        "plan": asdict(manifest.plan),
        "truth": [asdict(defect) for defect in manifest.truth],
    }


def _need(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing key {key!r} in {where}")
    return mapping[key]


def _list(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{where} must be a list, got {value!r}")
    return value


def _section(data: dict, key: str, cls):
    """The hole, optics or region section, with every key required: the
    tiles were made with these values, whatever the defaults are now."""
    section = _need(data, key, "manifest")
    check_keys(section, field_types(cls)[0], key)  # no key takes its default
    return read_fields(cls, section, key)


def _check_plan(plan: ScanPlan, hole: HoleSpec, region: EffectiveRegion) -> None:
    """Raise unless ``plan`` is the one ``plan_scan`` gives the hole and region.

    Tiles are placed by their (depth, rotation) step as well as by their
    schedule entry's ``z_mm`` and ``theta_deg``, so the two must agree. The
    tile count is compared first, so that no hole or region in a file can
    build a plan larger than the file's own.
    """
    n_rot, n_depth = shot_counts(hole, region)
    if len(plan.schedule) != n_rot * n_depth:
        raise ParseError(
            f"plan schedule has {len(plan.schedule)} entries, but the hole and "
            f"region give {n_rot} x {n_depth}"
        )
    expected = plan_scan(hole, region)
    for key in field_types(ScanPlan)[0]:
        got, want = getattr(plan, key), getattr(expected, key)
        if got != want:
            raise ParseError(
                f"plan {key} is {got!r}, but the hole and region give {want!r}"
            )
    for n, (got, want) in enumerate(zip(plan.schedule, expected.schedule)):
        for key in field_types(CaptureEvent)[0]:
            if getattr(got, key) != getattr(want, key):
                raise ParseError(
                    f"schedule entry {n} names tile ({got.depth_step}, "
                    f"{got.rotation_step}), outside the plan the hole and region "
                    f"give: its {key} is {getattr(got, key)!r}, not "
                    f"{getattr(want, key)!r}"
                )


def manifest_from_dict(data: dict) -> RunManifest:
    got = data.get("format")
    if type(got) is not int or got != MANIFEST_FORMAT:
        found = repr(got) if "format" in data else "missing"
        raise ParseError(
            f"manifest key 'format' is {found}, but this version reads format "
            f"{MANIFEST_FORMAT}; re-run synth to write a current manifest"
        )
    hole = _section(data, "hole", HoleSpec)
    optics = _section(data, "optics", OpticsConfig)
    region = _section(data, "region", EffectiveRegion)
    plan_d = _need(data, "plan", "manifest")
    schedule = tuple(
        read_fields(CaptureEvent, entry, "schedule entry")
        for entry in _list(_need(plan_d, "schedule", "plan"), "plan schedule")
    )
    plan = read_fields(ScanPlan, plan_d, "plan", schedule=schedule)
    _check_plan(plan, hole, region)
    truth = [
        read_fields(DefectSpec, entry, "truth entry")
        for entry in _list(data.get("truth", []), "manifest truth")
    ]
    return read_fields(
        RunManifest, data, "manifest", hole=hole, optics=optics, region=region,
        plan=plan, truth=truth,
    )


def save_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        yaml.dump(
            manifest_to_dict(manifest), handle, Dumper=_DUMPER, sort_keys=False,
            width=_WIDTH,
        )


def load_manifest(path) -> RunManifest:
    try:
        with open(path, "r", encoding="ascii") as handle:
            data = yaml.load(handle, Loader=_LOADER)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"manifest {path} is not a mapping")
    return manifest_from_dict(data)


def _round3(value: float) -> float:
    return round(float(value), 3)


def _record_to_dict(rec: DefectRecord, depth_mm: float) -> dict:
    return {
        "id": rec.id,
        "kind": rec.kind,
        "z_mm": _round3(rec.z_mm),
        "z_from_bottom_mm": _round3(depth_mm - rec.z_mm),
        "beta_deg": _round3(rec.beta_deg),
        "size_mm": _round3(rec.size_mm),
        "area_mm2": round(float(rec.area_mm2), 6),
        "z_min_mm": _round3(rec.z_min_mm),
        "z_max_mm": _round3(rec.z_max_mm),
        "tiles": [list(t) for t in rec.source_tiles],
    }


def _kind_summary(records: list[DefectRecord], kind: str) -> dict:
    sizes = [rec.size_mm for rec in records if rec.kind == kind]
    out = {"count": len(sizes)}
    if sizes:
        out["mean_size_mm"] = _round3(statistics.fmean(sizes))
        out["std_size_mm"] = (
            _round3(statistics.stdev(sizes)) if len(sizes) > 1 else None
        )
    return out


def report_to_dict(
    records: list[DefectRecord],
    hole: HoleSpec,
    threshold: str,
    source: str = "",
) -> dict:
    return {
        "version": __version__,
        "source": source,
        "threshold": threshold,
        "hole": {"radius_mm": hole.radius_mm, "depth_mm": hole.depth_mm},
        "summary": {
            "disc": _kind_summary(records, "disc"),
            "line": _kind_summary(records, "line"),
        },
        "records": [_record_to_dict(rec, hole.depth_mm) for rec in records],
    }


_CSV_COLUMNS = [
    "id",
    "kind",
    "z_mm",
    "z_from_bottom_mm",
    "beta_deg",
    "size_mm",
    "area_mm2",
    "z_min_mm",
    "z_max_mm",
    "n_tiles",
]


def write_report(
    records: list[DefectRecord],
    hole: HoleSpec,
    threshold: str,
    csv_path,
    yaml_path,
    source: str = "",
) -> None:
    """Write the paired CSV and YAML defect reports."""
    data = report_to_dict(records, hole, threshold, source)
    with open(yaml_path, "w", encoding="ascii") as handle:
        yaml.dump(data, handle, Dumper=_DUMPER, sort_keys=False, width=_WIDTH)
    with open(csv_path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for rec in data["records"]:
            writer.writerow(
                [
                    rec["id"],
                    rec["kind"],
                    f"{rec['z_mm']:.3f}",
                    f"{rec['z_from_bottom_mm']:.3f}",
                    f"{rec['beta_deg']:.3f}",
                    f"{rec['size_mm']:.3f}",
                    f"{rec['area_mm2']:.6f}",
                    f"{rec['z_min_mm']:.3f}",
                    f"{rec['z_max_mm']:.3f}",
                    len(rec["tiles"]),
                ]
            )


def read_report(path) -> dict:
    """Load a YAML report, checking the pieces report-compare relies on."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            data = yaml.load(handle, Loader=_LOADER)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError(f"unreadable report {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"report {path} is not a mapping")
    records = _list(_need(data, "records", f"report {path}"), f"report {path} records")
    for rec in records:
        values = check_keys(rec, _REPORT_KEYS, f"report {path} record")
        rec.update(values)  # floats, which report-compare subtracts
    return data
