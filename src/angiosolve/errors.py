"""Exception types shared across the package.

Every rejection carries enough context to locate the offending value
(parameter name, lattice multi-index, ...) in the message.
"""


class AngiosolveError(Exception):
    """Base class for all package errors."""


class ParameterError(AngiosolveError):
    """A scalar argument is out of its admissible range."""


class ShapeError(AngiosolveError):
    """Array data does not match the lattice it claims to live on."""


class DataError(AngiosolveError):
    """Field data is unusable (non-finite entries, wrong dtype, ...)."""


class SignError(AngiosolveError):
    """A signed invariant is violated beyond the clamping tolerance."""


class ResolutionError(AngiosolveError):
    """A feature is too narrow for the lattice spacing to resolve."""


class ConfigurationError(AngiosolveError):
    """Inconsistent run setup (misaligned schedules, bad config files, ...)."""


class OracleError(AngiosolveError):
    """A reference computation could not certify its own accuracy."""
