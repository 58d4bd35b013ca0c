"""Storage engine unit + property tests: serde, column segments.

Property tests use Hypothesis over the actual minidb value domain —
NULL, booleans, arbitrary-precision integers (INTEGER / TIMESTAMP /
INTERVAL are all stored as Python ints), bit-exact doubles including
NaN and infinities, and unicode strings with surrogates. (The issue's
"Decimal" does not exist as a minidb type; DOUBLE is the only inexact
numeric, so doubles get the bit-equality treatment instead.)
"""

from __future__ import annotations

import os
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageCorruptionError
from repro.minidb.engine import Database
from repro.minidb.schema import TableSchema
from repro.minidb.storage.legacy import KIND_HEAP_DICT, heap_rows
from repro.minidb.storage.segment import (
    decode_segment,
    encode_segment,
    segment_shape,
)
from repro.minidb.storage.serde import (
    decode_row,
    decode_value,
    encode_row,
    encode_value,
)
from repro.minidb.types import SqlType

READS = TableSchema.of(
    ("id", SqlType.INTEGER), ("epc", SqlType.VARCHAR),
    ("loc", SqlType.INTEGER), ("v", SqlType.DOUBLE),
    ("ok", SqlType.BOOLEAN), ("rtime", SqlType.TIMESTAMP))


def _bits(value: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", value))[0]


# One strategy per storable value shape; TIMESTAMP/INTERVAL are ints (or
# float intervals), so huge ints double as their coverage.
sql_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: varint zigzag must handle any magnitude
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=60),
)


class TestSerde:
    @given(sql_values)
    @settings(max_examples=300, deadline=None)
    def test_value_round_trip(self, value):
        out = bytearray()
        encode_value(out, value)
        decoded, offset = decode_value(bytes(out), 0)
        assert offset == len(out)
        if isinstance(value, float):
            assert isinstance(decoded, float)
            assert _bits(decoded) == _bits(value)  # NaN-safe, -0.0-safe
        else:
            assert decoded == value
            assert type(decoded) is type(value) or value is None

    @given(st.lists(sql_values, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_row_round_trip(self, values):
        row = tuple(values)
        decoded = decode_row(encode_row(row))
        assert len(decoded) == len(row)
        for got, want in zip(decoded, row):
            if isinstance(want, float):
                assert _bits(got) == _bits(want)
            else:
                assert got == want

    def test_bool_is_not_int(self):
        # bools must survive as bools, ints as ints (True != 1 on disk).
        assert decode_row(encode_row((True, 1, False, 0))) == \
            (True, 1, False, 0)
        decoded = decode_row(encode_row((True, 1)))
        assert isinstance(decoded[0], bool)
        assert not isinstance(decoded[1], bool)


class TestSegmentCodec:
    rows = st.lists(st.tuples(sql_values, sql_values, sql_values),
                    max_size=60)

    @staticmethod
    def _same(got, want) -> bool:
        if isinstance(want, float):
            return isinstance(got, float) and _bits(got) == _bits(want)
        return got == want and type(got) is type(want)

    @given(rows, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, rows, encode):
        decoded = decode_segment(encode_segment(rows, encode))
        assert len(decoded) == len(rows)
        for got_row, want_row in zip(decoded, rows):
            assert all(self._same(got, want)
                       for got, want in zip(got_row, want_row))

    def test_low_cardinality_column_takes_the_dictionary(self):
        rows = [(i, f"dock-{i % 3}") for i in range(200)]
        encoded = encode_segment(rows, True)
        plain = encode_segment(rows, False)
        assert segment_shape(encoded) == (200, 1)
        assert segment_shape(plain) == (200, 0)
        assert len(encoded) < len(plain)
        assert decode_segment(encoded) == decode_segment(plain) == rows

    @pytest.mark.parametrize("ndv", [0x80, 0x81, 300])
    def test_one_byte_and_varint_codes(self, ndv):
        rows = [(f"v{i % ndv}",) for i in range(4 * ndv)]
        encoded = encode_segment(rows, True)
        assert segment_shape(encoded) == (len(rows), 1)
        assert decode_segment(encoded) == rows

    def test_dictionary_keeps_equal_values_of_other_types_apart(self):
        rows = [(True,), (1,), (1.0,), (0.0,), (-0.0,)] * 40
        decoded = decode_segment(encode_segment(rows, True))
        assert [type(row[0]) for row in decoded] == \
            [type(row[0]) for row in rows]
        assert [_bits(row[0]) for row in decoded[3:5]] == \
            [_bits(0.0), _bits(-0.0)]

    def test_torn_segment_detected(self):
        segment = encode_segment([(i, "x") for i in range(50)], True)
        with pytest.raises(StorageCorruptionError):
            decode_segment(segment[:len(segment) // 2])
        flipped = bytearray(segment)
        flipped[-1] ^= 0xFF
        with pytest.raises(StorageCorruptionError):
            decode_segment(bytes(flipped))

    @pytest.mark.parametrize("codes", [b"\x00\x00", b""])
    def test_short_code_vector_detected(self, codes):
        """A CRC-valid segment whose dictionary column holds fewer codes
        than its row count must fail, not decode to fewer rows."""
        payload = bytearray([3, 1, 1])  # 3 rows, 1 column, dictionary
        cell = bytearray([1])  # one distinct value
        encode_value(cell, "dock")
        cell += codes
        payload += bytes([len(cell)]) + cell
        segment = struct.pack(">2sII", b"SG", len(payload),
                              zlib.crc32(payload)) + payload
        with pytest.raises(StorageCorruptionError):
            decode_segment(bytes(segment))
        with pytest.raises(StorageCorruptionError):
            heap_rows(KIND_HEAP_DICT, [bytes([3, 1, 1]), bytes(cell)])


@pytest.fixture()
def disk_db(tmp_path):
    db = Database(storage="disk", storage_path=str(tmp_path / "db"))
    yield db
    db.shutdown()


def _load_reads(db, count, start=0):
    rows = [(i, f"epc{i % 13}", i % 7, i * 0.5, i % 2 == 0,
             1_000_000 + i) for i in range(start, start + count)]
    if "reads" not in db.catalog:
        db.create_table("reads", READS)
    db.load("reads", rows)
    return rows


class TestRowsAreAList:
    def test_disk_table_rows_are_the_memory_list(self, disk_db):
        rows = _load_reads(disk_db, 500)
        table = disk_db.table("reads")
        assert type(table.rows) is list and table.rows == rows
        before = disk_db.storage.counters["wal_bytes"]
        disk_db.append("reads", [(9_999, "epcx", 1, 0.5, True, 2)])
        assert disk_db.storage.counters["wal_bytes"] > before
        assert len(table.rows) == 501

    def test_execution_metrics_expose_storage_counters(self, disk_db):
        _load_reads(disk_db, 2000)
        before = disk_db.storage.counters
        _, metrics = disk_db.execute_with_metrics(
            "SELECT COUNT(*) AS n, SUM(loc) AS s FROM reads")
        after = disk_db.storage.counters
        assert metrics.wal_bytes == 0  # read-only query writes no WAL
        for name in ("wal_bytes", "wal_commits"):
            assert after[name] == before[name], name
        disk_db.append("reads", [(9_999, "epcx", 1, 0.5, True, 2)])
        assert disk_db.storage.counters["wal_bytes"] > after["wal_bytes"]


class TestDictionaryLayoutShrinksDataFile:
    """The rent ``REPRO_ENCODE`` pays: a smaller ``data.pages``.

    Deterministic — layout choices depend only on the rows — so the bar
    is exact arithmetic, not a timing.
    """

    SCHEMA = TableSchema.of(
        ("id", SqlType.INTEGER), ("tag", SqlType.VARCHAR),
        ("loc", SqlType.VARCHAR), ("rtime", SqlType.INTEGER),
        ("qty", SqlType.INTEGER))

    def test_low_cardinality_table_is_30_percent_smaller(self, tmp_path):
        rng = random.Random(41)
        rows = [(i,
                 f"t{rng.randrange(64):02d}",  # scattered, 64 distinct
                 f"L{(i // 512) % 64}",        # clustered runs of 512
                 rng.randrange(100000),
                 None if rng.random() < 0.05 else rng.randrange(100))
                for i in range(4000)]
        sizes = {}
        for encode in (False, True):
            path = tmp_path / str(encode)
            db = Database(storage="disk", storage_path=str(path),
                          encode=encode)
            db.create_table("reads", self.SCHEMA)
            db.load("reads", rows)
            assert list(db.table("reads").scan()) == rows
            db.shutdown()
            sizes[encode] = os.path.getsize(path / "data.pages")
        assert sizes[True] <= 0.7 * sizes[False], sizes


class TestKnobs:
    def test_env_knobs_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "disk")
        db = Database(storage_path=str(tmp_path / "db"))
        try:
            assert db.storage is not None
            assert db.storage.path == str(tmp_path / "db")
        finally:
            db.shutdown()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Database(storage="papyrus")

    def test_memory_stays_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        db = Database()
        assert db.storage is None
        assert isinstance(Database().catalog, type(db.catalog))
