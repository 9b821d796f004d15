"""Imaging-chain geometry and error-bound calculators.

Pure functions over three small value types, and the defect spec synth
plants. All lengths are millimetres, pixel equivalents are µm/pixel, and
angles live in radians internally; degree inputs are converted at the API
boundary. Nothing here needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError

__all__ = [
    "HoleSpec",
    "OpticsConfig",
    "DeviationSpec",
    "DefectSpec",
    "DEFECT_KINDS",
    "DEFAULT_CONTRAST",
    "DEFAULT_MIN_AREA",
    "circular_delta_deg",
    "fov_half_angle",
    "image_plane_distance",
    "object_extent",
    "arc_expansion",
    "projection_error_ratio",
    "deviation_total",
    "fov_bounds",
    "relative_fov_error",
]

DEFECT_KINDS = ("disc", "line")  # a line runs along the hole axis
DEFAULT_CONTRAST = -120  # DN at 8 bit; a dark defect on the bright wall
DEFAULT_MIN_AREA = 9  # px; ~13 um equivalent diameter at 2.16 um/pixel


@dataclass(frozen=True)
class HoleSpec:
    """Measured hole geometry.

    Attributes
    ----------
    radius_mm:
        Bore radius. The inner diameter is ``2 * radius_mm``.
    depth_mm:
        Bore depth from nozzle to bottom.
    """

    radius_mm: float
    depth_mm: float

    def __post_init__(self) -> None:
        for name, value in (("radius", self.radius_mm), ("depth", self.depth_mm)):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"hole {name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class OpticsConfig:
    """Geometry of the sight-pipe imaging chain plus camera pixel equivalents.

    The defaults are the reference rig: a 2.5 mm mirror probe imaging at
    2.16 µm/pixel.

    Attributes
    ----------
    mirror_diameter_mm:
        Effective diameter of the 45-degree reflecting plane (the field
        diaphragm of the system).
    image_diameter_mm:
        Effective image diameter on the camera image plane.
    image_to_eyepiece_mm:
        Distance from the image plane to the eyepiece.
    lens_length_mm:
        Length of the relay lens assembly.
    lens_to_mirror_mm:
        Distance from the objective lens to the reflecting plane.
    pixel_pitch_x_um, pixel_pitch_y_um:
        Physical length on the measured surface represented by one pixel,
        horizontal and vertical (µm/pixel).
    """

    mirror_diameter_mm: float = 2.5
    image_diameter_mm: float = 2.0
    image_to_eyepiece_mm: float = 15.0
    lens_length_mm: float = 230.0
    lens_to_mirror_mm: float = 94.0
    pixel_pitch_x_um: float = 2.16
    pixel_pitch_y_um: float = 2.16

    def __post_init__(self) -> None:
        # Diameters of 0 are legal (degenerate aperture); negative is not.
        for name in (
            "mirror_diameter_mm",
            "image_diameter_mm",
            "image_to_eyepiece_mm",
            "lens_length_mm",
            "lens_to_mirror_mm",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.optical_length_mm <= 0:
            raise ConfigError("total optical length must be positive")
        for pitch in (self.pixel_pitch_x_um, self.pixel_pitch_y_um):
            if not (math.isfinite(pitch) and pitch > 0):
                raise ConfigError(
                    f"pixel pitches must be positive and finite, got {pitch}"
                )

    @property
    def optical_length_mm(self) -> float:
        """Total chain length: image plane to reflecting plane."""
        return self.image_to_eyepiece_mm + self.lens_length_mm + self.lens_to_mirror_mm

    @property
    def aperture_sum_mm(self) -> float:
        """Sum of image and mirror diameters (the similar-triangles base)."""
        return self.image_diameter_mm + self.mirror_diameter_mm


@dataclass(frozen=True)
class DeviationSpec:
    """Manufacturing/assembly misalignment of the sight-pipe axis.

    Attributes
    ----------
    lever_arm_mm:
        Distance from the angular pivot to the end of the sight-pipe.
    tilt_deg:
        Angular deviation at the pivot, degrees.
    shift_mm:
        Parallel shift of the pipe axis.
    """

    lever_arm_mm: float
    tilt_deg: float
    shift_mm: float

    def __post_init__(self) -> None:
        if self.lever_arm_mm < 0:
            raise DomainError("lever arm must be non-negative")
        if self.shift_mm < 0:
            raise DomainError("shift must be non-negative")
        if not 0.0 <= self.tilt_deg < 90.0:
            raise DomainError("tilt must lie in [0, 90) degrees")


@dataclass(frozen=True)
class DefectSpec:
    """Prefabricated defect that :func:`borescan.synth.build_texture`
    stamps onto a texture, and the planted truth a manifest carries.

    ``z_mm`` is the feature center measured from the hole bottom (the
    texture/scan frame; reports convert to nozzle distance). ``size_mm``
    is a disc diameter or a line width; lines run along the hole axis for
    ``length_mm``. ``contrast`` is a signed intensity offset, negative for
    the usual dark-on-bright appearance.
    """

    kind: str
    z_mm: float
    beta_deg: float
    size_mm: float
    length_mm: float | None = None
    contrast: int = DEFAULT_CONTRAST

    def __post_init__(self) -> None:
        if self.kind not in DEFECT_KINDS:
            raise DomainError(f"unknown defect kind {self.kind!r}")
        for name in ("z_mm", "size_mm", "length_mm"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"defect {name} must be finite, got {value}")
        if self.size_mm <= 0:
            raise DomainError("defect size must be positive")
        if not 0.0 <= self.beta_deg < 360.0:
            raise DomainError("beta must lie in [0, 360)")
        if self.kind == "line":
            if self.length_mm is None or self.length_mm <= 0:
                raise DomainError("line defects need a positive length")
        elif self.length_mm is not None:
            raise DomainError("disc defects take no length")
        if self.contrast == 0:
            raise DomainError("zero-contrast defect is invisible")

    def half_extent_mm(self) -> tuple[float, float]:
        """Half-extent of the footprint along (u, z)."""
        if self.kind == "disc":
            return self.size_mm / 2.0, self.size_mm / 2.0
        return self.size_mm / 2.0, self.length_mm / 2.0


def fov_half_angle(cfg: OpticsConfig) -> float:
    """Half-angle of the imaging cone, radians.

    The image plane and reflecting plane subtend similar triangles about
    the optical center, so the half-angle satisfies

        tan(beta) = (image_diameter + mirror_diameter) / (2 * optical_length)
    """
    length = cfg.optical_length_mm
    if length <= 0:
        raise ConfigError("total optical length must be positive")
    return math.atan(cfg.aperture_sum_mm / (2.0 * length))


def image_plane_distance(cfg: OpticsConfig) -> float:
    """Distance from the optical center to the image plane, mm.

    Solves the similar-triangle relation for the plane where the image
    diameter is formed. Consistency with :func:`fov_half_angle`:
    ``tan(fov_half_angle) == image_diameter / (2 * image_plane_distance)``
    whenever the image diameter is nonzero.
    """
    if cfg.aperture_sum_mm == 0:
        raise ConfigError("degenerate optics: both diameters are zero")
    return cfg.image_diameter_mm * cfg.optical_length_mm / cfg.aperture_sum_mm


def object_extent(cfg: OpticsConfig, radius_mm: float) -> float:
    """Diameter of the surface patch imaged at bore radius ``radius_mm``, mm.

    Projects the imaging cone out to the bore wall:

        extent = mirror_diameter + radius * (image_diameter + mirror_diameter) / optical_length
    """
    if radius_mm < 0:
        raise DomainError(f"radius must be non-negative, got {radius_mm}")
    return (
        cfg.mirror_diameter_mm
        + radius_mm * cfg.aperture_sum_mm / cfg.optical_length_mm
    )


def arc_expansion(radius_mm: float, chord_mm: float) -> float:
    """Arc length on the bore wall whose chord projects to ``chord_mm``, mm.

    A flat sensor sees the chord of the curved wall patch; the true surface
    extent is the arc ``2 r asin(chord / 2r)``. Always >= the chord, reaching
    ``pi * r`` (half the circumference) when the chord equals the diameter.
    """
    if radius_mm <= 0:
        raise DomainError(f"radius must be positive, got {radius_mm}")
    if chord_mm <= 0:
        raise DomainError(f"chord must be positive, got {chord_mm}")
    half = chord_mm / (2.0 * radius_mm)
    if half > 1.0:
        raise DomainError(
            f"chord {chord_mm} mm exceeds bore diameter {2.0 * radius_mm} mm"
        )
    return 2.0 * radius_mm * math.asin(half)


def projection_error_ratio(radius_mm: float, chord_mm: float) -> float:
    """Relative error of reading the flat projection as surface length.

    ``(arc - chord) / chord``; grows with the chord, shrinks with radius.
    """
    return (arc_expansion(radius_mm, chord_mm) - chord_mm) / chord_mm


def deviation_total(dev: DeviationSpec) -> float:
    """Total lateral deviation of the reflecting plane, mm.

    Tilt contributes ``lever_arm * sin(tilt)``; shift adds in quadrature.
    """
    tilt_component = dev.lever_arm_mm * math.sin(math.radians(dev.tilt_deg))
    return math.hypot(tilt_component, dev.shift_mm)


def fov_bounds(
    extent_mm: float,
    mirror_diameter_mm: float,
    radius_mm: float,
    deviation_mm: float,
) -> tuple[float, float]:
    """Field-of-view extremes under axis misalignment, (min, max) in mm.

    A lateral deviation of the pipe axis changes the wall distance, scaling
    the radius-dependent part of the object extent:

        min/max = extent -/+ (deviation / radius) * (extent - mirror_diameter)

    The bounds are symmetric about the nominal extent.
    """
    if radius_mm <= 0:
        raise DomainError(f"radius must be positive, got {radius_mm}")
    half_range = (deviation_mm / radius_mm) * (extent_mm - mirror_diameter_mm)
    return extent_mm - half_range, extent_mm + half_range


def relative_fov_error(
    extent_mm: float,
    mirror_diameter_mm: float,
    radius_mm: float,
    deviation_mm: float,
) -> float:
    """Worst-case relative field-of-view error from axis misalignment.

    ``(deviation / radius) * (1 - mirror_diameter / extent)``, i.e. the
    half-range of :func:`fov_bounds` normalized by the nominal extent.
    """
    if radius_mm <= 0:
        raise DomainError(f"radius must be positive, got {radius_mm}")
    if extent_mm == 0:
        raise DomainError("object extent must be nonzero")
    return (deviation_mm / radius_mm) * (1.0 - mirror_diameter_mm / extent_mm)


def circular_delta_deg(a: float, b: float) -> float:
    """Smallest angular separation of two angles, degrees in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)
