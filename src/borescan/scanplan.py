"""Capture scheduling for full inner-surface scans.

The stage motion follows a move-rotate-move cycle: start at the hole
bottom, capture while stepping up a column, rotate by a fixed angle,
return to the bottom, repeat until the wall is covered. Tiles are indexed
``(depth step j, rotation step k)`` and centered at ``z' = j * step``
(measured from the bottom) and ``theta = k * alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import HoleSpec

__all__ = [
    "EffectiveRegion",
    "CaptureEvent",
    "ScanPlan",
    "shot_counts",
    "plan_scan",
]

# Far above the 416 tiles of a 6 mm x 47 mm bore, the largest the probe
# reaches, and far below a schedule that would exhaust memory.
MAX_TILES = 100_000


@dataclass(frozen=True)
class EffectiveRegion:
    """Physical extent of the usable central crop of one capture, mm.

    ``width_mm`` runs along the circumference, ``height_mm`` along the
    bore axis. Default 1.5 x 1.5 (the sight-pipe boundary spoils the
    outer part of the raw frame).
    """

    width_mm: float = 1.5
    height_mm: float = 1.5

    def __post_init__(self) -> None:
        for name, value in (("width", self.width_mm), ("height", self.height_mm)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"effective region {name} must be finite and > 0, got {value}"
                )


@dataclass(frozen=True)
class CaptureEvent:
    """One scheduled exposure."""

    order: int
    depth_step: int
    rotation_step: int
    z_mm: float
    theta_deg: float


@dataclass(frozen=True)
class ScanPlan:
    """Complete capture schedule for one bore.

    ``alpha_deg`` is the rotation between columns (``360 / n_rot``),
    ``step_mm`` the depth increment within a column. The schedule is
    ordered by (rotation step, then depth step): captures happen on the
    ascent, the descent is a return stroke.
    """

    n_rot: int
    n_depth: int
    alpha_deg: float
    step_mm: float
    schedule: tuple[CaptureEvent, ...]


def shot_counts(hole: HoleSpec, region: EffectiveRegion) -> tuple[int, int]:
    """Shots needed circumferentially and axially: (n_rot, n_depth).

    Circumferential count rounds up so ``n_rot`` tiles of width
    ``region.width_mm`` close the full circumference; the axial count is
    ``floor(depth / height) + 1``, which may duplicate an overlap row when
    the depth divides exactly. A plan of more than ``MAX_TILES`` tiles is
    refused before any schedule is built.
    """
    if region.width_mm >= math.pi * hole.radius_mm:
        raise ConfigError(
            f"effective width {region.width_mm} mm reaches half the "
            f"circumference of a radius-{hole.radius_mm} mm bore; "
            "plan would be degenerate"
        )
    circumference = 2.0 * math.pi * hole.radius_mm
    rotations = circumference / region.width_mm
    depths = hole.depth_mm / region.height_mm
    if not (math.isfinite(rotations) and math.isfinite(depths)):
        raise ConfigError(
            f"a radius-{hole.radius_mm} mm, {hole.depth_mm} mm deep bore needs "
            "more tiles than can be counted"
        )
    n_rot, n_depth = math.ceil(rotations), math.floor(depths) + 1
    if n_rot * n_depth > MAX_TILES:
        raise ConfigError(
            f"a radius-{hole.radius_mm} mm, {hole.depth_mm} mm deep bore needs "
            f"{n_rot} x {n_depth} tiles, more than the {MAX_TILES} a plan may hold"
        )
    return n_rot, n_depth


def plan_scan(hole: HoleSpec, region: EffectiveRegion) -> ScanPlan:
    """Build the full move-rotate-move schedule for one bore."""
    n_rot, n_depth = shot_counts(hole, region)
    alpha = 360.0 / n_rot
    step = region.height_mm
    schedule = tuple(
        CaptureEvent(
            order=k * n_depth + j,
            depth_step=j,
            rotation_step=k,
            z_mm=j * step,
            theta_deg=k * alpha,
        )
        for k in range(n_rot)
        for j in range(n_depth)
    )
    return ScanPlan(n_rot, n_depth, alpha, step, schedule)

