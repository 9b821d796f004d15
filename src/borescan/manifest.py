"""Run manifests and defect reports.

A manifest ties a tile set to the geometry, optics, and plan that produced
it, plus any planted ground truth. It lists no images: tile (j, k) of the
plan is the file ``tile_dJJ_rKK.pgm`` next to the manifest. Serialization
is plain YAML with stable key order and no timestamps: rerunning the same
job must write the same bytes. This module writes manifests itself, byte
for byte as PyYAML does. Reports carry the defect records with per-kind
statistics, as YAML for machines and CSV for spreadsheets, both laid out
by one table of record keys.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from . import __version__
from .errors import ParseError
from .geometry import DEFECT_KINDS, DefectSpec, HoleSpec, OpticsConfig
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan, plan_scan, shot_counts
from .schema import check_keys, field_types, read_fields

if TYPE_CHECKING:
    from .locate import DefectRecord  # annotations only: locate loads numpy

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

# PyYAML's and libyaml's emitters fold a long escaped string at other
# points, so reports are written with no line limit (libyaml takes a C int,
# not inf): the bytes are then the same with or without libyaml
_WIDTH = 2**31 - 1


def _yaml():
    """PyYAML and its safe loader and dumper, libyaml's when it has them
    (several times faster, the same data); imported on use, as plan needs none."""
    import yaml
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml, loader, getattr(yaml, "CSafeDumper", yaml.SafeDumper)


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


def _scalar(value) -> str:
    """``value`` as PyYAML's safe representer writes it, chosen by its exact
    type as there: ``np.float64``, a float subclass, raises."""
    kind = type(value)
    if value is None or kind is bool:
        return {None: "null", True: "true", False: "false"}[value]
    if kind is int or (kind is str and value in DEFECT_KINDS):
        return str(value)
    if kind is not float:
        raise TypeError(f"cannot write {value!r} ({kind.__name__}) in a manifest")
    if not math.isfinite(value):
        return ".nan" if math.isnan(value) else ".inf" if value > 0 else "-.inf"
    text = repr(value).lower()  # a YAML float needs a ".": 1e+16 is 1.0e+16
    return text if "." in text else text.replace("e", ".0e", 1)


def _emit(data: dict, indent: str, lines: list[str]) -> None:
    """Append PyYAML's block lines for mapping ``data`` at ``indent``: a list
    of mappings as "- " items at its key's indent, ``[]`` when empty."""
    for key, value in data.items():
        if type(value) is dict:
            lines.append(f"{indent}{key}:")
            _emit(value, indent + "  ", lines)
        elif type(value) in (list, tuple):
            lines.append(f"{indent}{key}:" if value else f"{indent}{key}: []")
            for item in value:
                if type(item) is not dict or not item:
                    raise TypeError(f"cannot write list item {item!r} in a manifest")
                first = len(lines)
                _emit(item, indent + "  ", lines)
                lines[first] = f"{indent}- {lines[first][len(indent) + 2:]}"
        else:
            lines.append(f"{indent}{key}: {_scalar(value)}")


def save_manifest(manifest: RunManifest, path) -> None:
    lines: list[str] = []
    _emit(manifest_to_dict(manifest), "", lines)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _read_yaml(path, what: str) -> dict:
    """The mapping YAML file ``path`` holds; ``what`` names the file in errors."""
    yaml, loader, _ = _yaml()
    try:
        with open(path, "r", encoding="ascii") as handle:
            data = yaml.load(handle, Loader=loader)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{what} {path} is not a mapping")
    return data


def load_manifest(path) -> RunManifest:
    return manifest_from_dict(_read_yaml(path, "manifest"))


# a report record's keys in report.yaml order, each with the decimals its
# value is rounded to (None: written as it is); report.csv has the same
# columns, but writes ``tiles`` as their count under ``n_tiles``
_RECORD_COLUMNS = {
    "id": None, "kind": None, "z_mm": 3, "z_from_bottom_mm": 3, "beta_deg": 3,
    "size_mm": 3, "area_mm2": 6, "z_min_mm": 3, "z_max_mm": 3, "tiles": None,
}


def _record_to_dict(rec: DefectRecord, depth_mm: float) -> dict:
    derived = {
        "z_from_bottom_mm": depth_mm - rec.z_mm,
        "tiles": [list(t) for t in rec.source_tiles],
    }
    out = {}
    for key, places in _RECORD_COLUMNS.items():
        value = derived[key] if key in derived else getattr(rec, key)
        out[key] = value if places is None else round(float(value), places)
    return out


def _csv_cell(key: str, value, places: int | None):
    """Record ``key``'s ``value`` as its report.csv cell."""
    if key == "tiles":
        return len(value)
    return value if places is None else f"{value:.{places}f}"


def _kind_summary(records: list[DefectRecord], kind: str) -> dict:
    import statistics  # on use: plan needs none of it
    sizes = [rec.size_mm for rec in records if rec.kind == kind]
    out = {"count": len(sizes)}
    if sizes:
        out["mean_size_mm"] = round(float(statistics.fmean(sizes)), 3)
        out["std_size_mm"] = (
            round(float(statistics.stdev(sizes)), 3) if len(sizes) > 1 else None
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
        "summary": {kind: _kind_summary(records, kind) for kind in DEFECT_KINDS},
        "records": [_record_to_dict(rec, hole.depth_mm) for rec in records],
    }


def write_report(
    records: list[DefectRecord],
    hole: HoleSpec,
    threshold: str,
    csv_path,
    yaml_path,
    source: str = "",
) -> None:
    """Write the paired CSV and YAML defect reports."""
    yaml, _, dumper = _yaml()
    data = report_to_dict(records, hole, threshold, source)
    with open(yaml_path, "w", encoding="ascii") as handle:
        yaml.dump(data, handle, Dumper=dumper, sort_keys=False, width=_WIDTH)
    with open(csv_path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            "n_tiles" if key == "tiles" else key for key in _RECORD_COLUMNS
        )
        for rec in data["records"]:
            writer.writerow(
                _csv_cell(key, rec[key], places)
                for key, places in _RECORD_COLUMNS.items()
            )


def read_report(path) -> dict:
    """Load a YAML report, checking the pieces report-compare relies on."""
    data = _read_yaml(path, "report")
    records = _list(_need(data, "records", f"report {path}"), f"report {path} records")
    for rec in records:
        values = check_keys(rec, _REPORT_KEYS, f"report {path} record")
        rec.update(values)  # floats, which report-compare subtracts
    return data
