"""Exception types shared across the package."""


class AggcheckError(Exception):
    """Base class for all package-specific errors."""


class FormulaSyntaxError(AggcheckError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(AggcheckError):
    """Raised when a formula cannot be evaluated (e.g. unbound variable)."""


class NotQualifyingError(AggcheckError, ValueError):
    """Raised when an aggregator lacks a property its criterion's extraction needs."""


class BudgetExceededError(AggcheckError):
    """Raised when a check would exceed, or has used up, its work budget or a
    size limit; the message names the stage, the count and the limit."""
