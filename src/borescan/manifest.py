"""Run manifests and defect reports.

A manifest ties a tile set to the geometry, optics, and plan that produced
it, plus any planted ground truth. Serialization is plain YAML with stable
key order and no timestamps: rerunning the same job must write the same
bytes. Reports carry the merged defect records with per-kind statistics,
as YAML for machines and CSV for spreadsheets.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field

import yaml

from . import __version__
from .errors import ParseError
from .geometry import HoleSpec, OpticsConfig
from .locate import DefectRecord
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan
from .synth import DEFAULT_CONTRAST, DefectSpec

__all__ = [
    "RunManifest",
    "manifest_to_dict",
    "manifest_from_dict",
    "save_manifest",
    "load_manifest",
    "missing_image_entries",
    "write_report",
    "read_report",
    "report_to_dict",
]


@dataclass
class RunManifest:
    """Everything needed to reproduce or interpret one tile set."""

    hole: HoleSpec
    optics: OpticsConfig
    region: EffectiveRegion
    plan: ScanPlan
    images: list[dict] = field(default_factory=list)
    truth: list[DefectSpec] = field(default_factory=list)
    seed: int = 0
    noise_sigma: float = 0.0
    version: str = __version__


def manifest_to_dict(manifest: RunManifest) -> dict:
    cfg = manifest.optics
    return {
        "version": manifest.version,
        "seed": int(manifest.seed),
        "noise_sigma": float(manifest.noise_sigma),
        "hole": {
            "radius_mm": manifest.hole.radius_mm,
            "depth_mm": manifest.hole.depth_mm,
        },
        "optics": {
            "mirror_diameter_mm": cfg.mirror_diameter_mm,
            "image_diameter_mm": cfg.image_diameter_mm,
            "image_to_eyepiece_mm": cfg.image_to_eyepiece_mm,
            "lens_length_mm": cfg.lens_length_mm,
            "lens_to_mirror_mm": cfg.lens_to_mirror_mm,
            "pixel_pitch_x_um": cfg.pixel_pitch_x_um,
            "pixel_pitch_y_um": cfg.pixel_pitch_y_um,
        },
        "region": {
            "width_mm": manifest.region.width_mm,
            "height_mm": manifest.region.height_mm,
        },
        "plan": {
            "n_rot": manifest.plan.n_rot,
            "n_depth": manifest.plan.n_depth,
            "alpha_deg": manifest.plan.alpha_deg,
            "step_mm": manifest.plan.step_mm,
            "schedule": [
                {
                    "order": e.order,
                    "depth_step": e.depth_step,
                    "rotation_step": e.rotation_step,
                    "z_mm": e.z_mm,
                    "theta_deg": e.theta_deg,
                }
                for e in manifest.plan.schedule
            ],
        },
        "images": [
            {
                "depth_step": entry["depth_step"],
                "rotation_step": entry["rotation_step"],
                "file": entry["file"],
            }
            for entry in manifest.images
        ],
        "truth": [
            {
                "kind": d.kind,
                "z_mm": d.z_mm,
                "beta_deg": d.beta_deg,
                "size_mm": d.size_mm,
                "length_mm": d.length_mm,
                "contrast": d.contrast,
            }
            for d in manifest.truth
        ],
    }


def _need(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing key {key!r} in {where}")
    return mapping[key]


def manifest_from_dict(data: dict) -> RunManifest:
    hole_d = _need(data, "hole", "manifest")
    optics_d = _need(data, "optics", "manifest")
    region_d = _need(data, "region", "manifest")
    plan_d = _need(data, "plan", "manifest")
    try:
        hole = HoleSpec(
            radius_mm=_need(hole_d, "radius_mm", "hole"),
            depth_mm=_need(hole_d, "depth_mm", "hole"),
        )
        optics = OpticsConfig(
            **{key: _need(optics_d, key, "optics") for key in (
                "mirror_diameter_mm",
                "image_diameter_mm",
                "image_to_eyepiece_mm",
                "lens_length_mm",
                "lens_to_mirror_mm",
                "pixel_pitch_x_um",
                "pixel_pitch_y_um",
            )}
        )
        region = EffectiveRegion(
            width_mm=_need(region_d, "width_mm", "region"),
            height_mm=_need(region_d, "height_mm", "region"),
        )
        schedule = tuple(
            CaptureEvent(
                order=_need(e, "order", "schedule entry"),
                depth_step=_need(e, "depth_step", "schedule entry"),
                rotation_step=_need(e, "rotation_step", "schedule entry"),
                z_mm=_need(e, "z_mm", "schedule entry"),
                theta_deg=_need(e, "theta_deg", "schedule entry"),
            )
            for e in _need(plan_d, "schedule", "plan")
        )
        plan = ScanPlan(
            n_rot=_need(plan_d, "n_rot", "plan"),
            n_depth=_need(plan_d, "n_depth", "plan"),
            alpha_deg=_need(plan_d, "alpha_deg", "plan"),
            step_mm=_need(plan_d, "step_mm", "plan"),
            schedule=schedule,
        )
        truth = [
            DefectSpec(
                kind=_need(d, "kind", "truth entry"),
                z_mm=_need(d, "z_mm", "truth entry"),
                beta_deg=_need(d, "beta_deg", "truth entry"),
                size_mm=_need(d, "size_mm", "truth entry"),
                length_mm=d.get("length_mm"),
                contrast=d.get("contrast", DEFAULT_CONTRAST),
            )
            for d in data.get("truth", [])
        ]
        images = [
            {
                "depth_step": _need(entry, "depth_step", "image entry"),
                "rotation_step": _need(entry, "rotation_step", "image entry"),
                "file": _need(entry, "file", "image entry"),
            }
            for entry in data.get("images", [])
        ]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad manifest value: {exc}") from exc
    return RunManifest(
        hole=hole,
        optics=optics,
        region=region,
        plan=plan,
        images=images,
        truth=truth,
        seed=int(data.get("seed", 0)),
        noise_sigma=float(data.get("noise_sigma", 0.0)),
        version=str(data.get("version", "")),
    )


def save_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        yaml.safe_dump(manifest_to_dict(manifest), handle, sort_keys=False)


def load_manifest(path) -> RunManifest:
    try:
        with open(path, "r", encoding="ascii") as handle:
            data = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"manifest {path} is not a mapping")
    return manifest_from_dict(data)


def missing_image_entries(manifest: RunManifest) -> list[tuple[int, int]]:
    """Plan positions with no image entry. Duplicate entries are an error."""
    seen: set[tuple[int, int]] = set()
    for entry in manifest.images:
        key = (entry["depth_step"], entry["rotation_step"])
        if key in seen:
            raise ParseError(f"duplicate image entry for tile {key}")
        seen.add(key)
    return [
        (e.depth_step, e.rotation_step)
        for e in manifest.plan.schedule
        if (e.depth_step, e.rotation_step) not in seen
    ]


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
        yaml.safe_dump(data, handle, sort_keys=False)
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
            data = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError(f"unreadable report {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"report {path} is not a mapping")
    records = _need(data, "records", f"report {path}")
    for rec in records:
        for key in ("kind", "z_mm", "beta_deg", "size_mm"):
            _need(rec, key, f"report {path} record")
    return data
