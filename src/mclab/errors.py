"""Exception types shared across the package."""


class NotConnectedError(ValueError):
    """Raised when an operation that requires a connected graph gets a disconnected one."""


class CapExceededError(ValueError):
    """Raised when an exact-search operation is asked to exceed its configured size cap."""


class FormatError(ValueError):
    """Raised on malformed input files; messages carry a line number where applicable."""
