"""Helpers for the JSON-based document formats (workflows, catalogs, pools).

All formats reject unknown fields so typos surface instead of silently
taking defaults.
"""

import json
import math
from typing import Any, Iterable

from .errors import DocumentFormatError


def load_document(text: str, what: str = "document") -> Any:
    """Parse JSON text, reporting the position on syntax errors."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(
            f"invalid {what}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def check_fields(
    obj: Any,
    required: Iterable[str],
    optional: Iterable[str],
    context: str,
) -> dict:
    """Require `obj` to be a mapping with exactly the allowed fields."""
    if not isinstance(obj, dict):
        raise DocumentFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    required = set(required)
    allowed = required | set(optional)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DocumentFormatError(f"{context}: unknown field(s): {', '.join(unknown)}")
    missing = sorted(required - set(obj))
    if missing:
        raise DocumentFormatError(f"{context}: missing required field(s): {', '.join(missing)}")
    return obj


def as_number(value: Any, context: str) -> float:
    """A JSON number as a finite float: not NaN, Infinity or an integer too large for one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentFormatError(f"{context}: expected a number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
        shown = repr(value)
    except OverflowError:
        shown = "an integer too large for a float"
    raise DocumentFormatError(f"{context}: expected a finite number, got {shown}")


def as_int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentFormatError(f"{context}: expected an integer, got {value!r}")
    return value


def as_string(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise DocumentFormatError(f"{context}: expected a string, got {value!r}")
    return value
