"""Exception hierarchy shared by all modules."""


class GndesError(Exception):
    """Base class for all library errors."""


class InstanceError(GndesError):
    """Structural problem in an instance, profile or reply (unknown ids, bad shapes)."""


class ParseError(GndesError):
    """Instance file cannot be parsed; message carries the offending field or line."""


class ConfigError(GndesError):
    """Invalid configuration or parameters (epsilon too large, non-integral N, ...)."""


class InfeasibleError(GndesError):
    """No feasible reply exists for a request under the given graph/tolls."""


class EnumerationLimitError(GndesError):
    """Exhaustive enumeration would exceed the fixed limits; refused, never truncated."""
