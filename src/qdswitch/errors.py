"""Exception types shared across the package."""


class QdSwitchError(Exception):
    """Base class for all package errors."""


class DomainError(QdSwitchError, ValueError):
    """Input outside an operation's physical or numerical domain; field, when
    set, names the constructor argument a validated type rejected."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DegenerateFitError(DomainError):
    """Least-squares problem is rank deficient or otherwise unsolvable."""


class DegenerateTraceError(DomainError):
    """Time trace unsuitable for the requested statistic."""


class ConfigError(QdSwitchError):
    """Configuration file missing, malformed, or holding invalid values."""


class IngestError(QdSwitchError):
    """Input data file could not be parsed."""


class AdiabaticityWarning(UserWarning):
    """Drive frequency approaches the optical linewidth; quasi-static
    evaluation becomes questionable."""
