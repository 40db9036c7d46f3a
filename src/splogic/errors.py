"""Exception types shared across the toolkit."""

from __future__ import annotations

import functools


class SplError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(SplError):
    """Malformed concrete syntax; carries the offending position and token."""

    def __init__(self, message: str, position: int, token: str | None = None):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.token = token


class UndeclaredSymbolError(SplError):
    """A predicate, constant, name or standpoint not present in the vocabulary."""

    def __init__(self, message: str, symbol: str):
        super().__init__(message)
        self.symbol = symbol


class ArityMismatchError(SplError):
    """An atom applied to the wrong number of arguments."""

    def __init__(self, message: str, symbol: str):
        super().__init__(message)
        self.symbol = symbol


class VocabularyError(SplError):
    """A vocabulary violating its own well-formedness conditions."""


class ModelFormatError(SplError):
    """A structure (in memory or from JSON) violating a structural invariant."""


class EvaluationError(SplError):
    """Satisfaction queried with an ill-formed precisification/assignment/term."""


class AxiomViolationError(SplError):
    """A structure offered for lowering that falsifies a bridge axiom."""

    def __init__(self, message: str, axiom_label: str):
        super().__init__(message)
        self.axiom_label = axiom_label


def nesting_guard(fn):
    """Wrap fn so that Python's recursion limit, which a deeply nested
    formula reaches, raises EvaluationError instead of RecursionError."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise EvaluationError("formula nested too deeply") from None

    return guarded
