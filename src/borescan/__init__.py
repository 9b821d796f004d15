"""Inner-surface inspection of small cylindrical bores.

Plan a rotate-and-plunge scan with a mirror borescope, correct the arc
projection that curved walls impose on flat sensors, and measure defects
in physical units. Ships with a synthetic ground-truth generator so every
stage can be exercised without hardware.
"""

__version__ = "0.1.0"

import importlib

from .errors import (
    BorescanError,
    ConfigError,
    DomainError,
    ImageFormatError,
    ParseError,
    PlacementError,
    PlanIndexError,
    ThresholdError,
)
from .geometry import DefectSpec, DeviationSpec, HoleSpec, OpticsConfig
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan, plan_scan, shot_counts
from .manifest import RunManifest, load_manifest, save_manifest

# the names from the layers that need numpy, each loaded on first access
# (PEP 562), so that the package and plan start without numpy
_LAZY = {
    name: layer
    for layer, names in (
        ("unwrap", ("build_remap", "correct_tile", "forward_project")),
        ("synth", ("SurfaceTexture", "build_texture")),
        ("detect", ("BlobRecord", "binarize", "connected_components")),
        ("locate", ("DefectRecord", "stitch_panorama")),
    )
    for name in names
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "__version__",
    "BorescanError",
    "ConfigError",
    "DomainError",
    "ImageFormatError",
    "ParseError",
    "PlacementError",
    "PlanIndexError",
    "ThresholdError",
    "DeviationSpec",
    "HoleSpec",
    "OpticsConfig",
    "CaptureEvent",
    "EffectiveRegion",
    "ScanPlan",
    "plan_scan",
    "shot_counts",
    "build_remap",
    "correct_tile",
    "forward_project",
    "DefectSpec",
    "SurfaceTexture",
    "build_texture",
    "BlobRecord",
    "binarize",
    "connected_components",
    "DefectRecord",
    "stitch_panorama",
    "RunManifest",
    "load_manifest",
    "save_manifest",
]
