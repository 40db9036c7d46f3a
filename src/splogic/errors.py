"""Exception types shared across the toolkit."""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping


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


def check_shape(value, shape, error: type[SplError], where: str) -> None:
    """Raise error unless a value read from JSON has the given shape.
    None takes anything, str a string, [item] a list of items, and {str:
    item} an object of items under any keys; any other dict is an object
    whose keys must be among those it lists, each with its own shape."""
    if shape is None:
        return
    if shape is str:
        if not isinstance(value, str):
            raise error(f"{where} must be a string, not {type(value).__name__}")
    elif isinstance(shape, list):
        if not isinstance(value, (list, tuple)):
            raise error(f"{where} must be a list, not {type(value).__name__}")
        for i, item in enumerate(value):
            check_shape(item, shape[0], error, f"{where}[{i}]")
    elif not isinstance(value, Mapping):
        raise error(f"{where} must be an object, not {type(value).__name__}")
    elif str in shape:
        for key, item in value.items():
            check_shape(item, shape[str], error, f"{where}.{key}")
    else:
        for key, item in value.items():
            if key not in shape:
                raise error(f"unknown key {where}.{key}; expected one of {sorted(shape)}")
            check_shape(item, shape[key], error, f"{where}.{key}")


def load_json(path: str, error: type[SplError], read):
    """read(value) of the JSON value in the file at path.  A file that
    does not decode (a ValueError while it is read and parsed: malformed
    JSON, bytes that are not UTF-8, an integer past Python's digit
    limit), or one nested too deeply for the parser or for read, raises
    error, which names the path; an SplError that read raises keeps its
    type and gets the path in front of its message."""
    deep = f"invalid JSON in {path}: nested too deeply"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise error(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise error(deep) from None
    try:
        return read(data)
    except RecursionError:
        raise error(deep) from None
    except SplError as exc:
        exc.args = (f"{path}: {exc}", *exc.args[1:])
        raise


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
