"""Value model shared by artifacts, messages and wire endpoints.

A value is an int, float, bool, UTF-8 string, or a list of values.
"""
from __future__ import annotations

import math
from typing import Any

from .errors import BadNumericCoercionError

Value = Any  # int | float | bool | str | list[Value]


def is_value(v: Any) -> bool:
    if isinstance(v, (bool, int, float, str)):
        return True
    if isinstance(v, list):
        return all(is_value(x) for x in v)
    return False


def copy_value(v: Value) -> Value:
    if isinstance(v, list):
        return [copy_value(x) if isinstance(x, list) else x for x in v]
    return v


def number_to_text(x: int | float) -> str:
    """Minimal decimal rendering; integral floats drop the fractional part."""
    if isinstance(x, bool):
        raise TypeError("bool is not numeric")
    if isinstance(x, int):
        return str(x)
    if math.isfinite(x) and x == int(x):
        return str(int(x))
    return repr(x)


def render_value(v: Value) -> str:
    """Canonical wire text: text as-is, numbers minimal, lists space-separated."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return str(int(v)) if v.is_integer() else repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, list):
        return " ".join([render_value(x) for x in v])
    raise TypeError(f"not a value: {type(v).__name__}")


def coerce_number(v: Value) -> float:
    """Coerce an arithmetic operand to float; text goes through a decimal parse."""
    if isinstance(v, bool):
        raise BadNumericCoercionError(render_value(v))
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            raise BadNumericCoercionError(v) from None
    raise BadNumericCoercionError(render_value(v))
