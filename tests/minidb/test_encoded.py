"""Encoded columnar execution: representation pins and parity.

Four layers of coverage for the ``REPRO_ENCODE`` knob:

- unit pins for :class:`DictColumn` / :class:`RLEColumn` /
  ``encode_column`` (round-trips, the NULL slot, sorted-dictionary
  bisects, float negative-zero distinctness, the append/extend
  protocol);
- the acceptance parity matrix — rows AND the full EXPLAIN ANALYZE
  render byte-identical between ``encode=True`` and ``encode=False``
  for every batch-size × storage combination;
- the exact-NDV satellite: a warm dictionary turns the append-patch
  ndv from a lower bound into an exact count, without losing the
  in-place patch (no re-analyze);
- the ``storage stat`` CLI footprint report shape;
- the per-storage ``encode`` override surviving a page's round trip
  through disk (a re-read page is topped up under the storage's flag,
  not the ambient knob's).
"""

import json
import random

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.storage.__main__ import stat
from repro.minidb.storage.page import KIND_HEAP, KIND_HEAP_DICT, decode_page
from repro.minidb.vector import (
    DictColumn,
    RLEColumn,
    encode_column,
    forced_batch_size,
    forced_encoding,
)


class TestDictColumn:
    def test_round_trip_and_null_slot(self):
        source = ["b", None, "a", "b", "a", None]
        column = encode_column(source)
        assert isinstance(column, DictColumn)
        assert column.values[0] is None  # code 0 reserved for NULL
        assert column.decode() == source
        assert list(column) == source
        assert [column[i] for i in range(len(source))] == source
        assert column.distinct_count() == 2

    def test_sorted_dictionary_bisect_compare(self):
        column = encode_column(["c", "a", None, "b", "c"])
        assert column.sorted
        truth = column.map_compare("<=", lambda a, b: a <= b, "b")
        # One slot per distinct value, not one per row.
        assert truth.values == [None, True, True, False]
        assert truth.codes is column.codes  # codes shared, never copied
        assert truth.decode() == [False, True, None, True, False]

    def test_negative_zero_stays_distinct(self):
        # The FLOAT codec is bit-exact, so -0.0 == 0.0 must not collapse
        # into one dictionary slot (decode would flip sign bits).
        source = [0.0, -0.0, 0.0, -0.0]
        column = encode_column(source)
        assert isinstance(column, DictColumn)
        assert [str(v) for v in column.decode()] == [str(v) for v in source]

    def test_extend_from_appends_without_reencoding(self):
        source = ["a", "c", "a"]
        column = encode_column(source)
        old_codes = list(column.codes)
        source += ["b", "c", None]
        column.extend_from(source, 3)
        assert column.codes[:3] == old_codes  # history untouched
        assert column.decode() == source
        assert column.distinct_count() == 3
        assert not column.sorted  # "b" arrived after "c"

    def test_take_preserves_dictionary(self):
        column = encode_column(["x", "y", None, "x"])
        taken = column.take([3, 2, 0])
        assert taken.decode() == ["x", None, "x"]
        assert taken.values is column.values


class TestRLEColumn:
    def test_round_trip_and_runs(self):
        source = ["a", "a", "a", None, None, "b"]
        column = RLEColumn.from_values(source)
        assert column.decode() == source
        assert list(column.runs()) == [(0, 3, "a"), (3, 2, None),
                                       (5, 1, "b")]

    def test_encoder_picks_rle_for_clustered_data(self):
        source = [f"L{i // 50}" for i in range(300)]
        column = encode_column(source)
        assert isinstance(column, RLEColumn)
        assert column.decode() == source
        assert len(list(column.runs())) == 6

    def test_map_compare_once_per_run(self):
        column = RLEColumn.from_values([5, 5, 5, 9, 9, None])
        truth = column.map_compare("<", lambda a, b: a < b, 7)
        assert truth.decode() == [True, True, True, False, False, None]

    def test_extend_from_merges_trailing_run(self):
        source = [1, 1, 2]
        column = RLEColumn.from_values(source)
        source = source + [2, 2, 3]
        column.extend_from(source, 3)
        assert column.decode() == source
        assert list(column.runs()) == [(0, 2, 1), (2, 3, 2), (5, 1, 3)]


READS_SCHEMA = TableSchema.of(
    ("id", SqlType.INTEGER), ("tag", SqlType.VARCHAR),
    ("loc", SqlType.VARCHAR), ("val", SqlType.INTEGER))

DIM_SCHEMA = TableSchema.of(
    ("tag", SqlType.VARCHAR), ("label", SqlType.VARCHAR))


def _reads_rows(count=300):
    rng = random.Random(7)
    return [(i,
             f"t{rng.randrange(7)}",          # scattered -> dictionary
             f"L{i // 50}",                   # clustered -> RLE
             None if rng.random() < 0.1 else rng.randrange(50))
            for i in range(count)]


DIM_ROWS = [("t0", "zero"), ("t1", "one"), ("t3", "three"),
            ("t3", "tres")]

PARITY_QUERIES = [
    "select count(*) as n, sum(val) as s from reads "
    "where tag >= 't2' and tag <= 't4'",
    "select loc, count(*) as n, min(val) as lo from reads "
    "where loc = 'L3' or val < 5 group by loc order by loc",
    "select r.tag, d.label from reads r, dim d "
    "where r.tag = d.tag and r.val > 40 order by r.id, d.label",
    "select tag, val from reads where val is not null "
    "order by tag desc, val, id limit 25",
]


def _build(encode, storage, path):
    if storage == "disk":
        db = Database(storage="disk", storage_path=str(path),
                      encode=encode)
    else:
        db = Database(encode=encode)
    db.create_table("reads", READS_SCHEMA)
    db.load("reads", _reads_rows())
    db.create_table("dim", DIM_SCHEMA)
    db.load("dim", DIM_ROWS)
    return db


def _observe(db, batch_size):
    """(rows, EXPLAIN ANALYZE text) per parity query, one knob combo."""
    out = []
    with forced_batch_size(batch_size):
        for sql in PARITY_QUERIES:
            db.plan_cache.clear()
            explained = db.explain_analyze(sql)
            out.append((db.execute(sql).rows, explained.text))
    return out


class TestEncodedParityMatrix:
    """The acceptance matrix: encoding must be invisible everywhere.

    For each batch × storage combination the encoded database must
    produce byte-identical rows AND an identical EXPLAIN ANALYZE render
    (operator labels and actual row counts) to the plain one.
    """

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    def test_rows_and_explain_identical(self, tmp_path, storage):
        encoded = _build(True, storage, tmp_path / "enc")
        plain = _build(False, storage, tmp_path / "plain")
        try:
            # Scalar vs batch EXPLAIN counters legitimately differ
            # (early-out under Limit), so parity is asserted encoded
            # vs plain *within* each batch size, never across sizes.
            for batch_size in (0, 1, 7):
                assert (_observe(encoded, batch_size)
                        == _observe(plain, batch_size)), (
                    f"encoding visible at batch size {batch_size}")
        finally:
            encoded.shutdown()
            plain.shutdown()


class TestExactNdvFromDictionary:
    """Satellite 1: the append patch reads exact ndv off a warm
    dictionary instead of keeping the outside-range lower bound."""

    SCHEMA = TableSchema.of(("id", SqlType.INTEGER),
                            ("tag", SqlType.VARCHAR))
    ROWS = [(i, f"t{'abcde'[i % 5]}") for i in range(40)]
    #: In range (ta .. te), previously unseen: the lower-bound patch
    #: cannot see it, the dictionary cannot miss it.
    APPEND = [(40, "tcc"), (41, "ta")]

    def _patched_ndv(self, encode):
        # Memory storage pinned: disk scans stream pages around the
        # columnar cache, so a query there would never warm the
        # dictionary this test relies on.
        with forced_encoding(encode):
            db = Database(storage="memory", encode=encode)
            db.create_table("t", self.SCHEMA)
            db.load("t", self.ROWS)
            db.analyze("t")
            with forced_batch_size(64):
                db.execute("select count(*) as n from t where tag >= 'ta'")
            patches_before = db.stats.patches
            db.append("t", self.APPEND)
            assert db.stats.patches == patches_before + 1, (
                "append must patch stats in place, not re-analyze")
            return db.stats.get("t").column("tag").ndv

    def test_warm_dictionary_makes_append_ndv_exact(self):
        # Plain columns: "tcc" falls inside [ta, te], so the patch can
        # only keep the stale lower bound.
        assert self._patched_ndv(encode=False) == 5
        # A warm dictionary has deduplicated every value ever appended:
        # the patch reports the exact distinct count.
        assert self._patched_ndv(encode=True) == 6


class TestStorageStatFootprint:
    """Satellite 2: the stat CLI reports encoded vs plain bytes."""

    def _stat_lines(self, path, encode):
        db = Database(storage="disk", storage_path=str(path),
                      encode=encode)
        db.create_table("reads", READS_SCHEMA)
        db.load("reads", _reads_rows())
        db.shutdown()
        return stat(str(path)).splitlines()

    def _footprint(self, lines):
        [line] = [text for text in lines
                  if text.startswith("table reads footprint:")]
        # "table reads footprint: S bytes stored (D dict pages),
        #  P bytes plain, ratio R"
        words = line.split()
        stored, dict_pages = int(words[3]), int(words[6].lstrip("("))
        plain, ratio = int(words[9]), float(words[-1])
        assert "bytes stored" in line and "bytes plain" in line
        assert "dict pages)" in line and "ratio" in line
        return stored, plain, dict_pages, ratio

    def test_encoded_directory_reports_compression(self, tmp_path):
        lines = self._stat_lines(tmp_path / "enc", encode=True)
        stored, plain, dict_pages, ratio = self._footprint(lines)
        assert dict_pages > 0
        assert stored < plain
        assert ratio == round(stored / plain, 2)

    def test_plain_directory_reports_unity(self, tmp_path):
        lines = self._stat_lines(tmp_path / "plain", encode=False)
        stored, plain, dict_pages, ratio = self._footprint(lines)
        assert dict_pages == 0
        assert stored == plain
        assert ratio == 1.0


class TestStorageEncodeOverrideSurvivesReread:
    """``Database(storage="disk", encode=False)`` must keep writing
    row-major pages after the pages it tops up came back from disk."""

    def _heap_page_kinds(self, path):
        with open(path / "MANIFEST.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        page_size = manifest["page_size"]
        kinds = []
        with open(path / "data.pages", "rb") as pages:
            for page_id, _count in manifest["tables"]["reads"]["heap_pages"]:
                pages.seek(page_id * page_size)
                kinds.append(decode_page(pages.read(page_size))[0])
        return kinds

    def _run(self, path, encode):
        rows = _reads_rows(100)
        db = Database(storage="disk", storage_path=str(path),
                      encode=encode)
        db.create_table("reads", READS_SCHEMA)
        db.load("reads", rows[:50])
        db.shutdown()
        first = self._heap_page_kinds(path)
        db = Database(storage="disk", storage_path=str(path),
                      encode=encode)
        db.append("reads", rows[50:])  # tops up the re-read tail page
        assert list(db.table("reads").scan()) == rows
        db.shutdown()
        return first, self._heap_page_kinds(path)

    @pytest.mark.parametrize("encode,knob,kind", [
        (False, "1", KIND_HEAP),      # the knob says yes, the storage no
        (True, "0", KIND_HEAP_DICT),  # and the other way round
    ])
    def test_override_beats_knob_across_reopen(self, tmp_path, monkeypatch,
                                               encode, knob, kind):
        monkeypatch.setenv("REPRO_ENCODE", knob)
        first, second = self._run(tmp_path / "db", encode)
        assert set(first) == {kind}
        assert set(second) == {kind}
