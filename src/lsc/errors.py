"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Raised when arguments violate a documented precondition."""


class CapacityError(RuntimeError):
    """Raised past the fixed enumeration cap (2^20 items) or a sampling attempt cap."""


class InvariantError(RuntimeError):
    """Raised when an internal structural invariant is violated."""


class ConfigError(Exception):
    """Raised for malformed experiment configuration files.

    The message carries ``<file>:<line>: <problem>`` so that errors are
    directly actionable.
    """
