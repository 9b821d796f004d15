"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`BorescanError`, so CLI
code can map library failures onto exit codes without fishing for builtins.
"""


class BorescanError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BorescanError):
    """Invalid optics/hole/region configuration, or an unusable config file."""


class DomainError(BorescanError, ValueError):
    """Mathematically out-of-domain input (arcsin range, negative length, ...)."""


class PlacementError(BorescanError):
    """A synthetic defect footprint falls outside the surface."""


class ThresholdError(BorescanError):
    """Histogram too degenerate for automatic threshold selection."""


class PlanIndexError(BorescanError, IndexError):
    """A (depth step, rotation step) pair is not part of the scan plan."""


class ImageFormatError(BorescanError):
    """A raster file is missing, truncated, or not a graymap we can read."""


class ParseError(BorescanError):
    """A config, manifest, defect list, or report file failed to parse."""
