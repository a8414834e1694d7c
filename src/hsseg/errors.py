"""Exception types shared across the package."""


class HssegError(Exception):
    """Base class for errors raised by this package."""


class DegenerateMarginalError(HssegError):
    """A chi-squared marginal sums to zero, so normalized profiles are undefined."""


class RegionSizeCapError(HssegError):
    """A region exceeds the configured cap for exact O(K^2) seed ordering."""


class CubeFormatError(HssegError):
    """A cube or label file cannot be parsed."""

