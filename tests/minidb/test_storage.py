"""Storage engine unit + property tests: serde, pages, pool, heap.

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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StorageCorruptionError, StorageError
from repro.minidb.engine import Database
from repro.minidb.schema import TableSchema
from repro.minidb.storage.backend import DiskStorage
from repro.minidb.storage.heap import DiskRowStore
from repro.minidb.storage.page import (
    KIND_HEAP,
    KIND_HEAP_DICT,
    SLOT_SIZE,
    cell_capacity,
    decode_page,
    encode_page,
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


class TestPageCodec:
    @given(st.lists(st.binary(max_size=40), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, cells):
        page = encode_page(KIND_HEAP, cells, 2048)
        assert len(page) == 2048
        kind, decoded = decode_page(page)
        assert kind == KIND_HEAP
        assert decoded == cells

    def test_torn_page_detected(self):
        page = encode_page(KIND_HEAP, [b"hello", b"world"], 512)
        torn = page[:256] + bytes(256)
        with pytest.raises(StorageCorruptionError):
            decode_page(torn)

    def test_overflow_rejected(self):
        with pytest.raises(StorageError):
            encode_page(KIND_HEAP, [bytes(600)], 512)


@pytest.fixture()
def disk_db(tmp_path):
    db = Database(storage="disk",
                  storage_path=str(tmp_path / "db"),
                  buffer_pages=8, page_size=512)
    yield db
    db.shutdown()


def _load_reads(db, count, start=0):
    rows = [(i, f"epc{i % 13}", i % 7, i * 0.5, i % 2 == 0,
             1_000_000 + i) for i in range(start, start + count)]
    if "reads" not in db.catalog:
        db.create_table("reads", READS)
    db.load("reads", rows)
    return rows


class TestBufferPoolBound:
    def test_peak_resident_never_exceeds_pool(self, disk_db):
        """Scanning a table ~10x the pool size stays within the bound."""
        rows = _load_reads(disk_db, 2000)
        store = disk_db.table("reads").rows
        assert isinstance(store, DiskRowStore)
        pages = len(store.page_ids)
        assert pages >= 10 * 8, f"only {pages} pages; grow the dataset"
        pager = disk_db.storage.pager
        for _ in range(3):
            assert list(disk_db.table("reads").scan()) == rows
        assert pager.peak_resident <= 8
        assert pager.overflow_events == 0
        assert pager.pages_read >= pages  # every page faulted at least once
        assert pager.pages_evicted >= pager.pages_read - 8

    def test_execution_metrics_expose_storage_counters(self, disk_db):
        _load_reads(disk_db, 2000)
        _, metrics = disk_db.execute_with_metrics(
            "SELECT COUNT(*) AS n, SUM(loc) AS s FROM reads")
        assert metrics.pages_read > 0
        assert metrics.pages_evicted > 0
        assert metrics.wal_bytes == 0  # read-only query writes no WAL
        before = disk_db.storage.counters["wal_bytes"]
        disk_db.append("reads", [(9_999, "epcx", 1, 0.5, True, 2)])
        assert disk_db.storage.counters["wal_bytes"] > before

    def test_strided_and_negative_indexing(self, disk_db):
        rows = _load_reads(disk_db, 500)
        store = disk_db.table("reads").rows
        assert store[::7] == rows[::7]  # cache.py samples with step slices
        assert store[-1] == rows[-1]
        assert store[37:245] == rows[37:245]
        assert store[245:37] == []
        with pytest.raises(IndexError):
            store[len(rows)]


class TestHeapProperties:
    @given(st.lists(st.tuples(st.integers(), st.text(max_size=20),
                              st.floats(allow_nan=False)),
                    max_size=120))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_store_is_list_equivalent(self, tmp_path_factory, rows):
        storage = DiskStorage(path=str(tmp_path_factory.mktemp("heap")),
                              page_size=256, buffer_pages=4, sync=False)
        try:
            store = DiskRowStore(storage, "t")
            half = len(rows) // 2
            store.extend(rows[:half])
            store.extend(rows[half:])
            assert list(store) == rows
            assert store == rows
            for i in range(0, len(rows), 7):
                assert store[i] == rows[i]
            store.replace(rows[::-1])
            assert list(store) == rows[::-1]
        finally:
            storage.simulate_crash()


class TestPlacementIdentity:
    """Where rows land may depend on the rows, the batch boundaries and
    the checkpoints — never on whether the pages they passed through
    stayed resident. A decoded page knows only its
    stored size; these properties pin that a writer continuing from it
    makes exactly the choices a writer that never let go would."""

    SCHEMA = TableSchema.of(
        ("id", SqlType.INTEGER), ("tag", SqlType.VARCHAR),
        ("loc", SqlType.INTEGER))
    #: Low-cardinality tags, a narrow loc range and the occasional long
    #: string: pages flip between the row-major and dictionary layouts.
    rows = st.lists(
        st.tuples(st.integers(-5, 400),
                  st.one_of(st.sampled_from(["a", "b", "dock-7"]),
                            st.text(max_size=24)),
                  st.one_of(st.none(), st.integers(0, 6))),
        min_size=1, max_size=160)

    @staticmethod
    def _batches(rows, cuts):
        edges = sorted({min(cut, len(rows)) for cut in cuts} | {len(rows)})
        return [rows[lo:hi] for lo, hi in zip([0] + edges, edges) if hi > lo]

    def _play(self, path, batches, gaps, encodes, pool, eager=False):
        """Append *batches*, separated by *gaps*; returns the live pages.

        A gap is ``"checkpoint"``, ``"evict"`` (checkpoint, then churn
        the pool with a full scan) or ``"reopen"`` (shutdown, open again
        under the next flag of *encodes*). *eager* re-derives every heap
        page's fill accounting right after a reopen — decoding as it
        used to be, the reference for an encode flip.
        """
        encodes = iter(encodes)
        kwargs = dict(storage="disk", storage_path=str(path),
                      page_size=256, buffer_pages=pool)
        db = Database(encode=next(encodes), **kwargs)
        db.create_table("t", self.SCHEMA)
        db.create_index("t", "loc")
        for batch, gap in zip(batches, gaps + ["shutdown"]):
            db.append("t", batch)
            if gap == "shutdown":
                break
            if gap == "reopen":
                db.shutdown()
                db = Database(encode=next(encodes), **kwargs)
                if eager:
                    store = db.table("t").rows
                    for page_id in store.page_ids:
                        db.storage.pager.fetch(page_id).ensure_accounting()
            else:
                db.checkpoint()
                if gap == "evict":
                    assert len(list(db.table("t").scan())) > 0
        table = db.table("t")
        layout = table.rows.manifest_pages()
        live = [page_id for page_id, _ in layout]
        scanned = list(table.scan())
        db.shutdown()
        with open(path / "data.pages", "rb") as pages:
            images = {}
            for page_id in live:
                pages.seek(page_id * 256)
                images[page_id] = pages.read(256)
        return layout, images, scanned

    @given(rows, st.lists(st.integers(0, 160), max_size=3), st.booleans(),
           st.lists(st.sampled_from(["evict", "reopen"]), min_size=3,
                    max_size=3))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_eviction_and_reopen_do_not_move_rows(
            self, tmp_path_factory, rows, cuts, encode, gaps):
        batches = self._batches(rows, cuts)
        gaps = gaps[:len(batches) - 1]
        root = tmp_path_factory.mktemp("placement")
        resident = self._play(root / "resident", batches,
                              ["checkpoint"] * len(gaps),
                              [encode], pool=4096)
        disturbed = self._play(root / "disturbed", batches, gaps,
                               [encode] * len(batches), pool=4)
        assert disturbed[2] == resident[2] == rows
        assert disturbed[0] == resident[0]
        assert disturbed[1] == resident[1]

    @given(rows, st.integers(0, 160), st.booleans())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_encode_flip_on_reopen_matches_eager_decode(
            self, tmp_path_factory, rows, cut, first):
        batches = self._batches(rows, [cut])
        gaps = ["reopen"] * (len(batches) - 1)
        root = tmp_path_factory.mktemp("flip")
        flags = [first, not first]
        eager = self._play(root / "eager", batches, gaps, flags,
                           pool=4096, eager=True)
        lazy = self._play(root / "lazy", batches, gaps, flags, pool=4)
        assert lazy == eager

    def test_full_row_major_tail_gains_room_when_encoding_turns_on(
            self, tmp_path):
        # Four of these rows fill a 256-byte page row-major to the last
        # byte; dictionary-coded, each further copy costs three code
        # bytes. Written with encoding off and topped up after a reopen
        # with it on, the tail must take the rows the dictionary layout
        # has room for — a node that trusted its stored (row-major) size
        # would call the page full and start a new one.
        row = (7, "x" * 50, 3)
        assert 4 * (len(encode_row(row)) + SLOT_SIZE) == cell_capacity(256)
        rows = [row] * 40
        layout, images, scanned = self._play(
            tmp_path, [rows[:4], rows[4:]], ["reopen"], [False, True],
            pool=4)
        assert scanned == rows
        (page_id, count), *_ = layout
        assert count > 4
        assert decode_page(images[page_id])[0] == KIND_HEAP_DICT


class TestDictionaryLayoutShrinksDataFile:
    """The rent ``REPRO_ENCODE`` pays: a smaller ``data.pages``.

    Deterministic — layout choices and page fills depend only on the
    rows — so the bar is exact arithmetic, not a timing.
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
        monkeypatch.setenv("REPRO_BUFFER_PAGES", "5")
        monkeypatch.setenv("REPRO_PAGE_SIZE", "1024")
        db = Database(storage_path=str(tmp_path / "db"))
        try:
            assert db.storage is not None
            assert db.storage.pager.capacity == 5
            assert db.storage.page_size == 1024
        finally:
            db.shutdown()

    def test_existing_manifest_pins_page_size(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(storage="disk", storage_path=path, page_size=512)
        _load_reads(db, 20)
        db.shutdown()
        # Reopen with a different configured size: manifest wins.
        db2 = Database(storage="disk", storage_path=path, page_size=4096)
        try:
            assert db2.storage.page_size == 512
            assert len(db2.table("reads").rows) == 20
        finally:
            db2.shutdown()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Database(storage="papyrus")

    def test_memory_stays_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        db = Database()
        assert db.storage is None
        assert isinstance(Database().catalog, type(db.catalog))
