"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`BorescanError`, and each
class carries the exit code the command line ends with when it is raised.
"""


class BorescanError(Exception):
    """Base class for all errors raised by this package: input the library
    rejects, such as invalid geometry or a degenerate plan."""

    exit_code = 3


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

    exit_code = 5


class WorkerError(BorescanError):
    """A worker process ended without reporting, killed or out of memory."""

    exit_code = 1


class ParseError(BorescanError):
    """A config, manifest, defect list, or report file failed to parse."""

    exit_code = 2
