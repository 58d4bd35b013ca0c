"""Unit and property tests for the SQL value-type layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.minidb.types import (
    SqlType,
    coerce_value,
    compare_values,
    format_timestamp,
    is_comparable,
    minutes,
    hours,
    days,
    parse_timestamp,
    sort_key,
)


class TestCoercion:
    def test_integer_accepts_int(self):
        assert coerce_value(7, SqlType.INTEGER) == 7

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(True, SqlType.INTEGER)

    def test_integer_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("7", SqlType.INTEGER)

    def test_double_widens_int(self):
        value = coerce_value(3, SqlType.DOUBLE)
        assert value == 3.0 and isinstance(value, float)

    def test_varchar_accepts_str(self):
        assert coerce_value("abc", SqlType.VARCHAR) == "abc"

    def test_null_accepted_by_every_type(self):
        for sql_type in SqlType:
            assert coerce_value(None, sql_type) is None

    def test_timestamp_is_epoch_int(self):
        assert coerce_value(1_000_000, SqlType.TIMESTAMP) == 1_000_000
        with pytest.raises(TypeMismatchError):
            coerce_value(1.5, SqlType.TIMESTAMP)

    def test_boolean(self):
        assert coerce_value(True, SqlType.BOOLEAN) is True
        with pytest.raises(TypeMismatchError):
            coerce_value(1, SqlType.BOOLEAN)


class TestComparability:
    def test_same_type(self):
        assert is_comparable(SqlType.VARCHAR, SqlType.VARCHAR)

    def test_numeric_cross_type(self):
        assert is_comparable(SqlType.TIMESTAMP, SqlType.INTEGER)
        assert is_comparable(SqlType.INTERVAL, SqlType.DOUBLE)

    def test_string_vs_number(self):
        assert not is_comparable(SqlType.VARCHAR, SqlType.INTEGER)


class TestComparison:
    def test_null_propagates(self):
        assert compare_values(None, 1) is None
        assert compare_values(1, None) is None

    def test_orders(self):
        assert compare_values(1, 2) == -1
        assert compare_values(2, 1) == 1
        assert compare_values(2, 2) == 0

    @given(st.lists(st.one_of(st.none(), st.integers(-50, 50)), max_size=30))
    def test_sort_key_total_order_nulls_first(self, values):
        ordered = sorted(values, key=sort_key)
        nulls = [v for v in ordered if v is None]
        rest = [v for v in ordered if v is not None]
        assert ordered == nulls + rest
        assert rest == sorted(rest)


class TestTimestamps:
    def test_round_trip(self):
        text = "2006-09-12 10:30:00"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_date_only(self):
        assert format_timestamp(parse_timestamp("2006-09-12")) \
            == "2006-09-12 00:00:00"

    def test_bad_literal(self):
        with pytest.raises(TypeMismatchError):
            parse_timestamp("not a timestamp")

    def test_null_formats_to_none(self):
        assert format_timestamp(None) is None

    def test_interval_helpers(self):
        assert minutes(5) == 300
        assert hours(2) == 7200
        assert days(1) == 86400
        assert minutes(0.5) == 30
