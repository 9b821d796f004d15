"""INI run configuration and CSV defect lists.

A run config collects the hole geometry, the imaging chain, the effective
region, and the synthesis knobs: one section per ``RunConfig`` field,
one key per field of that section's dataclass. Only [hole] is mandatory;
a missing key takes its field's default, which for the optics and region
is the reference rig (2.5 mm mirror probe imaging at 2.16 um/pixel over a
1.5 x 1.5 mm effective region). A section or key that names no field is
rejected, and so is [detect]: detection is set on the ``inspect`` command
line.
"""

from __future__ import annotations

import configparser
import csv
import typing
from dataclasses import dataclass

from .errors import ParseError
from .geometry import DefectSpec, HoleSpec, OpticsConfig
from .scanplan import EffectiveRegion
from .schema import field_types, read_text

__all__ = [
    "SynthParams",
    "RunConfig",
    "load_config",
    "parse_threshold_spec",
    "load_defect_list",
]

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


_SECTIONS = typing.get_type_hints(RunConfig)


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


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="ascii") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ParseError(f"unreadable config {path}: {exc}") from exc
    if parser.has_section("detect"):
        raise ParseError(
            "[detect] is not read from the config; set detection with "
            "inspect --threshold and inspect --min-area"
        )
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ParseError(
                f"unknown section [{name}] (want {', '.join(_SECTIONS)})"
            )
    if not parser.has_section("hole"):
        raise ParseError("missing section [hole]")
    config = RunConfig(**{
        name: read_text(
            cls, parser.items(name) if parser.has_section(name) else (), f"[{name}]"
        )
        for name, cls in _SECTIONS.items()
    })
    if config.synth.bit_depth not in (8, 16):
        raise ParseError(f"bit_depth must be 8 or 16, got {config.synth.bit_depth}")
    return config


def load_defect_list(path) -> list[DefectSpec]:
    """Defects to plant, one CSV row each.

    ``z_mm`` is measured up from the hole bottom. ``length_mm`` stays empty
    for discs; an empty ``contrast`` means ``geometry.DEFAULT_CONTRAST``.
    """
    try:
        with open(path, "r", encoding="ascii", newline="") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable defect list {path}: {exc}") from exc
    missing = [col for col in field_types(DefectSpec)[0] if col not in header]
    if missing:
        raise ParseError(f"defect list missing column {missing[0]!r}")
    defects = []
    for line_no, row in enumerate(rows, start=2):
        where = f"defect row {line_no} in {path}"
        if None in row:  # DictReader keeps the cells past the header under None
            raise ParseError(f"{where} has more fields than the header")
        defects.append(read_text(DefectSpec, row.items(), where))
    return defects
