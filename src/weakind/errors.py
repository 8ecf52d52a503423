"""Exception types shared across the package."""


class WeakindError(Exception):
    """Base class for all package errors."""


class ParseError(WeakindError):
    """Input document could not be parsed."""


class SchemaError(WeakindError):
    """Value outside its domain, duplicate configuration, or misused table."""


class NormalizationError(WeakindError):
    """A table violates the normalization invariant of its declared kind."""


class StatementError(WeakindError):
    """An independence statement violates its variable-set preconditions."""


class RuleShapeError(WeakindError):
    """An inference rule was applied to premises of the wrong shape."""


class LimitError(WeakindError):
    """A configured enumeration or universe bound was exceeded, or a requested
    bound or count is not a nonnegative integer."""
