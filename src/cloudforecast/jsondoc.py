"""Helpers for the JSON-based document formats (workflows, catalogs, pools).

All formats reject unknown fields so typos surface instead of silently
taking defaults.
"""

import json
from contextlib import contextmanager
from math import isfinite
from typing import Any, Iterable

from .errors import DocumentFormatError

TOO_LARGE = "an integer too large for a float"  # as a finiteness error shows one


def load_document(text: str | bytes, what: str = "document") -> Any:
    """Parse JSON text, or bytes as `json.loads` reads them, reporting the
    position on syntax errors."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(
            f"invalid {what}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        raise DocumentFormatError(f"invalid {what}: {decode_error(exc)}") from exc


def decode_error(exc: RecursionError | ValueError) -> str:
    """What a JSON decoder's error says of the text: a syntax error's
    message, bytes that do not decode, or the limit it is past, the depth of
    nesting (a `RecursionError`) or the digits of an integer (any other
    `ValueError`)."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8: {exc.reason} at byte {exc.start}"
    deep = isinstance(exc, RecursionError)
    return "nested too deeply" if deep else "an integer has too many digits"


@contextmanager
def utf8_errors(path: str):
    """A block that reads the file at `path` as UTF-8: bytes that are not
    raise a `DocumentFormatError` at `path:line` of the first one that does
    not decode. Only then is the file read again, to find it, since a
    decoder reading by chunks counts from the chunk."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as f:
            data = f.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        line = data.count(b"\n", 0, exc.start) + 1
        raise DocumentFormatError(
            f"{path}:{line}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def field_sets(required: Iterable[str], optional: Iterable[str]) -> tuple[frozenset, frozenset]:
    """A document kind's (required, allowed) fields, built once for `check_fields`."""
    required = frozenset(required)
    return required, required.union(optional)


def check_fields(obj: Any, fields: tuple[frozenset, frozenset], context: str) -> dict:
    """Require `obj` to be a mapping with every required field of `fields` and
    no field it does not allow. The field lists are sorted only to word an error."""
    if not isinstance(obj, dict):
        raise DocumentFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    required, allowed = fields
    keys = obj.keys()
    if not keys <= allowed:
        raise DocumentFormatError(
            f"{context}: unknown field(s): {', '.join(sorted(keys - allowed))}")
    if not keys >= required:
        raise DocumentFormatError(
            f"{context}: missing required field(s): {', '.join(sorted(required - keys))}")
    return obj


def as_number(value: Any, context: str) -> float:
    """A JSON number as a finite float: not NaN, Infinity or an integer too large for one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentFormatError(f"{context}: expected a number, got {value!r}")
    try:
        if isfinite(value):
            return float(value)
        shown = repr(value)
    except OverflowError:
        shown = TOO_LARGE
    raise DocumentFormatError(f"{context}: expected a finite number, got {shown}")


def as_int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentFormatError(f"{context}: expected an integer, got {value!r}")
    return value


def as_string(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise DocumentFormatError(f"{context}: expected a string, got {value!r}")
    return value


_encode_str = json.encoder.encode_basestring_ascii


def json_value(value) -> str:
    """`json.dumps(value)`, the package's one JSON scalar writer: through the
    primitive `json.dumps` calls for a str, a finite float or an int; any other
    value (a bool, None, a non-finite float, a subclass) goes to `json.dumps`."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float and isfinite(value) or kind is int:
        return repr(value)
    return json.dumps(value)
