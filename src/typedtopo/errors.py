"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation failures exit 1, syntax and
usage problems exit 2, query-time problems (unknown points, exceeded search
budgets) exit 3.
"""
from __future__ import annotations


class TypedTopoError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(TypedTopoError):
    """Malformed type expression; carries the offset of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(TypedTopoError):
    """A generator or point name that is not declared in the context."""


class ContextMismatchError(TypedTopoError):
    """Two values from different (poset, point set) contexts were combined."""


class BoundExceededError(TypedTopoError):
    """A valuation enumeration would exceed the configured literal bound."""


class UnknownPointError(TypedTopoError):
    """A query referenced a point id that is not in the space."""


class SpaceValidationError(TypedTopoError):
    """A constructed space violates the type-mapping contract.

    The offending report is attached as ``.report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotStrictlyTypedError(TypedTopoError):
    """An operation that requires a strictly typed space got a non-strict one."""


class PreconditionError(TypedTopoError):
    """An operation was called outside its documented domain."""


class NoVarianceError(TypedTopoError):
    """A score population is too small or has zero spread."""


class DatasetError(TypedTopoError):
    """A dataset violates its declared shape (cycles, duplicates, bad rows)."""


class OracleSkip(TypedTopoError):
    """A brute-force search refused to run because a budget would be exceeded."""
