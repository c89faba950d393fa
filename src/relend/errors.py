"""Exception types shared across the package."""


class RelendError(Exception):
    """Base class for all package errors."""


class ConfigError(RelendError):
    """Malformed user input: bad JSON, unknown family, invalid parameters."""


class InternalError(RelendError):
    """A structural invariant failed; indicates a bug, not bad input."""


class UnsupportedFamilyError(RelendError):
    """The requested operation has no rule for this group family."""


class VertexOutsideBallError(RelendError):
    """A queried coset is not a vertex of the built ball."""


class InsufficientRadiusError(RelendError):
    """The built ball is too small to answer the query exactly."""


class NotOneEndedError(RelendError):
    """An operation requiring a one-ended pair was given something else."""


class NoStabilizationError(RelendError):
    """A bounded probe exhausted its budget without the value settling."""


class NotFoundError(RelendError):
    """A bounded search ran out of ball; the radius was too small."""


class SearchSpaceTooLargeError(RelendError):
    """The ball of a coboundary search holds more cosets than its cap."""


class BallTooLargeError(RelendError):
    """A ball would exceed its vertex budget; the radius is too large."""
