"""SQL value types for the minidb engine.

minidb stores every value as a plain Python object:

=============  ==========================  ===========================
SQL type       Python representation       Notes
=============  ==========================  ===========================
INTEGER        ``int``
DOUBLE         ``float``
VARCHAR        ``str``
BOOLEAN        ``bool``
TIMESTAMP      ``int`` (epoch seconds)     arithmetic yields INTERVAL
INTERVAL       ``int``/``float`` seconds   duration in seconds
NULL           ``None``                    any type may be NULL
=============  ==========================  ===========================

Timestamps are integers so that ``rtime - prev_rtime`` is exact and
cheap; :func:`format_timestamp` renders them for display. SQL NULL is
Python ``None`` everywhere; the expression kernels
(``minidb.expressions``) implement Kleene three-valued logic over it.
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any

from repro.errors import TypeMismatchError

__all__ = [
    "SqlType",
    "MINUTE",
    "HOUR",
    "DAY",
    "coerce_value",
    "is_comparable",
    "compare_values",
    "sort_key",
    "sort_key_column",
    "format_timestamp",
    "parse_timestamp",
    "minutes",
    "hours",
    "days",
]

#: Seconds in a minute; intervals are plain second counts.
MINUTE = 60
#: Seconds in an hour.
HOUR = 3600
#: Seconds in a day.
DAY = 86400


class SqlType(enum.Enum):
    """The SQL types supported by minidb."""

    INTEGER = "integer"
    DOUBLE = "double"
    VARCHAR = "varchar"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"
    INTERVAL = "interval"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type participate in arithmetic."""
        return self in _NUMERIC_TYPES

    def accepts(self, value: Any) -> bool:
        """Return True when *value* is a valid Python value of this type.

        NULL (``None``) is accepted by every type.
        """
        if value is None:
            return True
        if self is SqlType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is SqlType.DOUBLE:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is SqlType.VARCHAR:
            return isinstance(value, str)
        if self is SqlType.BOOLEAN:
            return isinstance(value, bool)
        if self is SqlType.TIMESTAMP:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is SqlType.INTERVAL:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        raise AssertionError(f"unhandled type {self}")


_NUMERIC_TYPES = {
    SqlType.INTEGER,
    SqlType.DOUBLE,
    SqlType.TIMESTAMP,
    SqlType.INTERVAL,
}


def coerce_value(value: Any, sql_type: SqlType) -> Any:
    """Coerce *value* to *sql_type*, raising on incompatible input.

    Used at insert/load time so that stored rows are always clean; the
    executor never re-validates. Numeric widening (int -> float for
    DOUBLE) is the only silent conversion performed.
    """
    if value is None:
        return None
    if sql_type is SqlType.DOUBLE and isinstance(value, int) \
            and not isinstance(value, bool):
        return float(value)
    if sql_type.accepts(value):
        return value
    raise TypeMismatchError(
        f"value {value!r} of Python type {type(value).__name__} is not "
        f"valid for SQL type {sql_type.value}")


def is_comparable(left: SqlType, right: SqlType) -> bool:
    """Whether values of the two types may be compared with <, =, etc."""
    if left is right:
        return True
    return left.is_numeric and right.is_numeric


def compare_values(left: Any, right: Any) -> int | None:
    """Three-valued comparison: -1, 0, 1, or None when either side is NULL."""
    if left is None or right is None:
        return None
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


class _NullFirst:
    """Sort key wrapper ordering NULL before every non-NULL value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_NullFirst") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullFirst) and self.value == other.value


def sort_key(value: Any) -> _NullFirst:
    """Total-order sort key for a possibly-NULL SQL value (NULLs first)."""
    return _NullFirst(value)


def sort_key_column(values: list) -> list:
    """Sort keys for a whole column of same-typed SQL values.

    Ordering is identical to ``[sort_key(v) for v in values]`` — but when
    the column holds no NULLs the wrapper is an identity ordering, so the
    raw values are returned and comparisons run at C speed instead of
    through ``_NullFirst.__lt__``.
    """
    if any(value is None for value in values):
        return [_NullFirst(value) for value in values]
    return values


_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)


def format_timestamp(seconds: int | None) -> str | None:
    """Render an epoch-second TIMESTAMP as ``YYYY-MM-DD HH:MM:SS``."""
    if seconds is None:
        return None
    moment = _EPOCH + _dt.timedelta(seconds=seconds)
    return moment.strftime("%Y-%m-%d %H:%M:%S")


def parse_timestamp(text: str) -> int:
    """Parse ``YYYY-MM-DD[ HH:MM:SS]`` into epoch seconds."""
    text = text.strip()
    for pattern in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
        try:
            moment = _dt.datetime.strptime(text, pattern)
        except ValueError:
            continue
        moment = moment.replace(tzinfo=_dt.timezone.utc)
        return int((moment - _EPOCH).total_seconds())
    raise TypeMismatchError(f"cannot parse timestamp literal {text!r}")


def minutes(count: float) -> int:
    """An INTERVAL of *count* minutes, in seconds."""
    return int(count * MINUTE)


def hours(count: float) -> int:
    """An INTERVAL of *count* hours, in seconds."""
    return int(count * HOUR)


def days(count: float) -> int:
    """An INTERVAL of *count* days, in seconds."""
    return int(count * DAY)
