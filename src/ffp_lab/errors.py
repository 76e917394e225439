"""Exception types shared across the package."""


class FfpError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(FfpError, ValueError):
    """A parameter violates its documented constraints."""


class InvalidSiteError(FfpError, LookupError):
    """A site index or coordinate does not belong to the topology."""


class CapacityError(FfpError):
    """Problem size exceeds a configured cap (state space, window size...)."""


class WindowMismatchError(InvalidParameterError):
    """Two measures defined on different site windows were combined."""
