"""INI run configuration and CSV defect lists.

A run config collects the hole geometry, the imaging chain, the effective
region, and the synthesis knobs. Only [hole] is mandatory; every other key
falls back to the reference rig (2.5 mm mirror probe imaging at
2.16 um/pixel over a 1.5 x 1.5 mm effective region). Detection is set on
the ``inspect`` command line, so a [detect] section is rejected.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass

from .errors import DomainError, ParseError
from .geometry import HoleSpec, OpticsConfig
from .scanplan import EffectiveRegion
from .synth import DEFAULT_CONTRAST, DefectSpec

__all__ = [
    "SynthParams",
    "RunConfig",
    "DEFAULT_OPTICS",
    "load_config",
    "parse_threshold_spec",
    "load_defect_list",
]

DEFAULT_OPTICS = OpticsConfig(
    mirror_diameter_mm=2.5,
    image_diameter_mm=2.0,
    image_to_eyepiece_mm=15.0,
    lens_length_mm=230.0,
    lens_to_mirror_mm=94.0,
    pixel_pitch_x_um=2.16,
    pixel_pitch_y_um=2.16,
)


@dataclass(frozen=True)
class SynthParams:
    background: int = 180
    bit_depth: int = 8
    noise_sigma: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    hole: HoleSpec
    optics: OpticsConfig
    region: EffectiveRegion
    synth: SynthParams


def parse_threshold_spec(spec: str) -> tuple[str, float | None]:
    """Split a threshold spec: "otsu", or "fixed:<fraction of full scale>"."""
    spec = spec.strip()
    if spec == "otsu":
        return "otsu", None
    if spec.startswith("fixed:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad threshold spec {spec!r}") from exc
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"threshold fraction {value} outside [0, 1]")
        return "fixed", value
    raise ParseError(f"bad threshold spec {spec!r} (want 'otsu' or 'fixed:<frac>')")


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ParseError(f"missing key {key!r} in section [{section}]")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ParseError(f"bad value {raw!r} for {key!r} in [{section}]") from exc


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="ascii") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ParseError(f"unreadable config {path}: {exc}") from exc
    if not parser.has_section("hole"):
        raise ParseError("missing section [hole]")
    if parser.has_section("detect"):
        raise ParseError(
            "[detect] is not read from the config; set detection with "
            "inspect --threshold and inspect --min-area"
        )
    hole = HoleSpec(
        radius_mm=_get(parser, "hole", "radius_mm", float, required=True),
        depth_mm=_get(parser, "hole", "depth_mm", float, required=True),
    )
    ref = DEFAULT_OPTICS
    optics = OpticsConfig(
        mirror_diameter_mm=_get(
            parser, "optics", "mirror_diameter_mm", float, ref.mirror_diameter_mm
        ),
        image_diameter_mm=_get(
            parser, "optics", "image_diameter_mm", float, ref.image_diameter_mm
        ),
        image_to_eyepiece_mm=_get(
            parser, "optics", "image_to_eyepiece_mm", float, ref.image_to_eyepiece_mm
        ),
        lens_length_mm=_get(
            parser, "optics", "lens_length_mm", float, ref.lens_length_mm
        ),
        lens_to_mirror_mm=_get(
            parser, "optics", "lens_to_mirror_mm", float, ref.lens_to_mirror_mm
        ),
        pixel_pitch_x_um=_get(
            parser, "optics", "pixel_pitch_x_um", float, ref.pixel_pitch_x_um
        ),
        pixel_pitch_y_um=_get(
            parser, "optics", "pixel_pitch_y_um", float, ref.pixel_pitch_y_um
        ),
    )
    ref_region = EffectiveRegion()
    region = EffectiveRegion(
        width_mm=_get(parser, "region", "width_mm", float, ref_region.width_mm),
        height_mm=_get(parser, "region", "height_mm", float, ref_region.height_mm),
    )
    ref_synth = SynthParams()
    synth = SynthParams(
        background=_get(parser, "synth", "background", int, ref_synth.background),
        bit_depth=_get(parser, "synth", "bit_depth", int, ref_synth.bit_depth),
        noise_sigma=_get(
            parser, "synth", "noise_sigma", float, ref_synth.noise_sigma
        ),
        seed=_get(parser, "synth", "seed", int, ref_synth.seed),
    )
    if synth.bit_depth not in (8, 16):
        raise ParseError(f"bit_depth must be 8 or 16, got {synth.bit_depth}")
    return RunConfig(hole=hole, optics=optics, region=region, synth=synth)


_DEFECT_COLUMNS = ["kind", "z_mm", "beta_deg", "size_mm", "length_mm", "contrast"]


def load_defect_list(path) -> list[DefectSpec]:
    """Defects to plant, one CSV row each.

    ``z_mm`` is measured up from the hole bottom. ``length_mm`` stays empty
    for discs; an empty ``contrast`` means ``synth.DEFAULT_CONTRAST``.
    """
    try:
        handle = open(path, "r", encoding="ascii", newline="")
    except OSError as exc:
        raise ParseError(f"unreadable defect list {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [col for col in _DEFECT_COLUMNS if col not in header]
        if missing:
            raise ParseError(f"defect list missing column {missing[0]!r}")
        defects = []
        for line_no, row in enumerate(reader, start=2):
            try:
                length = row["length_mm"].strip()
                contrast = row["contrast"].strip()
                defects.append(
                    DefectSpec(
                        kind=row["kind"].strip(),
                        z_mm=float(row["z_mm"]),
                        beta_deg=float(row["beta_deg"]),
                        size_mm=float(row["size_mm"]),
                        length_mm=float(length) if length else None,
                        contrast=int(contrast) if contrast else DEFAULT_CONTRAST,
                    )
                )
            except DomainError:
                raise  # semantically invalid defect, not a parse problem
            except (ValueError, AttributeError) as exc:
                raise ParseError(f"bad defect row {line_no} in {path}: {exc}") from exc
    return defects
