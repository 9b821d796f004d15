"""Inner-surface inspection of small cylindrical bores.

Plan a rotate-and-plunge scan with a mirror borescope, correct the arc
projection that curved walls impose on flat sensors, and measure defects
in physical units. Ships with a synthetic ground-truth generator so every
stage can be exercised without hardware.
"""

__version__ = "0.1.0"

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
from .geometry import DeviationSpec, HoleSpec, OpticsConfig
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan, plan_scan, shot_counts
from .unwrap import RemapTable, TileImage, build_remap, correct_tile, forward_project
from .synth import DefectSpec, SurfaceTexture, build_texture, render_stack
from .detect import BlobRecord, LineMeasurement, binarize, connected_components
from .locate import DefectRecord, defect_location, merge_duplicates, stitch_panorama
from .manifest import RunManifest, load_manifest, save_manifest

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
    "RemapTable",
    "TileImage",
    "build_remap",
    "correct_tile",
    "forward_project",
    "DefectSpec",
    "SurfaceTexture",
    "build_texture",
    "render_stack",
    "BlobRecord",
    "LineMeasurement",
    "binarize",
    "connected_components",
    "DefectRecord",
    "defect_location",
    "merge_duplicates",
    "stitch_panorama",
    "RunManifest",
    "load_manifest",
    "save_manifest",
]
