"""Exception types shared across the package, and the one boundary that
turns a builtin error raised while reading a document into a typed one."""

from contextlib import contextmanager


class DPWardenError(Exception):
    """Base class for all package-specific errors."""


class VariantMismatch(DPWardenError):
    """Two budgets of different variants were compared or combined."""


class UnsupportedVariant(DPWardenError):
    """Operation not defined for this budget variant."""


class NoConversionPath(DPWardenError):
    """No group-size factor declared between two privacy units."""


class ValidationError(DPWardenError):
    """Well-formed document with inconsistent content."""


class ParseError(ValidationError):
    """Malformed policy, rule-set, request, state or config document."""


class BudgetFnDomain(DPWardenError):
    """Budget-function input outside the table range with clamping disabled."""


class IncomparableKeys(DPWardenError):
    """Rule order keys of mixed kinds cannot be compared without annotation."""


class MissingCost(DPWardenError):
    """A mechanism lacks a privacy cost for a unit tracked by a rule."""


class UnknownTimeStep(DPWardenError):
    """Request time step lies beyond the tracked horizon."""


class ConfigError(DPWardenError):
    """Invalid workload or simulator configuration."""


@contextmanager
def reading(what: str):
    """Read a document: a builtin error raised inside the block becomes a
    ``ParseError`` naming the document; a ``DPWardenError`` passes through."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed {what}: {exc!r}") from None
