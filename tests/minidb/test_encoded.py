"""One column representation in the executor, dictionaries on disk only.

``REPRO_ENCODE`` / ``Database(encode=...)`` choose the layout of a disk
database's segment columns and nothing else. Coverage here:

- the parity matrix — batch size × storage: every batch size returns the
  reference evaluator's rows, and a disk database returns the memory
  database's rows AND EXPLAIN ANALYZE render byte for byte, whichever
  layout its segment columns took;
- the invariant that replaces the encode axis: every column of every
  batch any physical operator yields is a plain ``list``;
- the append-patch ndv staying the outside-``[min, max]`` lower bound,
  patched in place (no re-analyze);
- the ``storage stat`` CLI footprint report shape;
- the per-storage ``encode`` override beating the ambient knob across
  a reopen (segments appended after the reopen take the storage's
  flag).
"""

import json
import random

import pytest

from repro.fuzz import reference
from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.storage.__main__ import stat
from repro.minidb.storage.segment import segment_shape
from repro.minidb.vector import forced_batch_size

READS_SCHEMA = TableSchema.of(
    ("id", SqlType.INTEGER), ("tag", SqlType.VARCHAR),
    ("loc", SqlType.VARCHAR), ("val", SqlType.INTEGER))

DIM_SCHEMA = TableSchema.of(
    ("tag", SqlType.VARCHAR), ("label", SqlType.VARCHAR))


def _reads_rows(count=300):
    rng = random.Random(7)
    return [(i,
             f"t{rng.randrange(7)}",          # scattered, 7 distinct
             f"L{i // 50}",                   # clustered runs of 50
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


def _build(storage, path=None, encode=None):
    if storage == "disk":
        db = Database(storage="disk", storage_path=str(path),
                      encode=encode)
    else:
        db = Database(storage="memory")
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
    """The acceptance matrix: batch size × storage.

    Rows never depend on the batch size; rows and the EXPLAIN ANALYZE
    render (operator labels and actual row counts) never depend on
    where the table lives, nor on the layout its segment columns took.
    """

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    def test_rows_and_explain_identical(self, tmp_path, storage):
        memory = _build("memory")
        subjects = []
        if storage == "disk":
            subjects = [_build("disk", tmp_path / "dict", encode=True),
                        _build("disk", tmp_path / "plain", encode=False)]
        try:
            # Every parity query orders its output completely, so the
            # reference's rows are comparable in order.
            reference_rows = [reference.execute(memory, sql)
                              for sql in PARITY_QUERIES]
            # EXPLAIN counters legitimately differ across batch sizes
            # (early-out under Limit), so the render is compared
            # *within* each batch size, never across sizes.
            for batch_size in (1, 7, 1024):
                expected = _observe(memory, batch_size)
                assert [rows for rows, _ in expected] == reference_rows, (
                    f"rows changed at batch size {batch_size}")
                for db in subjects:
                    assert _observe(db, batch_size) == expected, (
                        f"{storage} visible at batch size {batch_size}")
        finally:
            for db in subjects:
                db.shutdown()


class TestBatchColumnsArePlainLists:
    """``RowBatch.columns`` holds plain lists, at every operator.

    The executor has one column representation; an operator that hands
    out anything else (a lazily decoded view, a code array) would bring
    back per-kernel type dispatch.
    """

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    @pytest.mark.parametrize("sql", PARITY_QUERIES,
                             ids=["range-agg", "group", "join", "top-n"])
    def test_every_operator_yields_lists(self, tmp_path, storage, sql):
        db = _build(storage, tmp_path / "db")
        try:
            checked = 0
            for node in db.plan(sql).walk():
                for batch in node.batches(7):
                    checked += 1
                    assert [type(column) for column in batch.columns] \
                        == [list] * len(node.schema), node.label()
            assert checked, "no operator emitted a batch"
        finally:
            db.shutdown()


class TestExactNdvFromDictionary:
    """The append patch keeps ndv as the outside-range lower bound,
    whether or not a query has scanned the table since it was loaded."""

    SCHEMA = TableSchema.of(("id", SqlType.INTEGER),
                            ("tag", SqlType.VARCHAR))
    ROWS = [(i, f"t{'abcde'[i % 5]}") for i in range(40)]
    #: In range (ta .. te), previously unseen: the lower-bound patch
    #: cannot see it.
    APPEND = [(40, "tcc"), (41, "ta")]

    def test_warm_dictionary_makes_append_ndv_exact(self):
        db = Database(storage="memory")
        db.create_table("t", self.SCHEMA)
        db.load("t", self.ROWS)
        db.analyze("t")
        with forced_batch_size(64):
            db.execute("select count(*) as n from t where tag >= 'ta'")
        patches_before = db.stats.patches
        db.append("t", self.APPEND)
        assert db.stats.patches == patches_before + 1, (
            "append must patch stats in place, not re-analyze")
        # "tcc" falls inside [ta, te], so the patch keeps the bound.
        assert db.stats.get("t").column("tag").ndv == 5


class TestStorageStatFootprint:
    """The stat CLI reports stored vs row-major bytes per table."""

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
        # "table reads footprint: S bytes stored (D dict columns),
        #  P bytes plain, ratio R"
        words = line.split()
        stored, dict_columns = int(words[3]), int(words[6].lstrip("("))
        plain, ratio = int(words[9]), float(words[-1])
        assert "bytes stored" in line and "bytes plain" in line
        assert "dict columns)" in line and "ratio" in line
        return stored, plain, dict_columns, ratio

    def test_encoded_directory_reports_compression(self, tmp_path):
        lines = self._stat_lines(tmp_path / "enc", encode=True)
        stored, plain, dict_columns, ratio = self._footprint(lines)
        assert dict_columns > 0
        assert stored < plain
        assert ratio == round(stored / plain, 2)

    def test_plain_directory_reports_unity(self, tmp_path):
        lines = self._stat_lines(tmp_path / "plain", encode=False)
        stored, plain, dict_columns, ratio = self._footprint(lines)
        assert dict_columns == 0
        assert stored == plain
        assert ratio == 1.0


class TestStorageEncodeOverrideSurvivesReread:
    """``Database(storage="disk", encode=False)`` must keep writing
    plain columns in the segments it appends after a reopen."""

    def _dict_columns(self, path):
        with open(path / "MANIFEST.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        counts = []
        with open(path / "data.pages", "rb") as data:
            for offset, length, _ in \
                    manifest["tables"]["reads"]["segments"]:
                data.seek(offset)
                counts.append(segment_shape(data.read(length))[1])
        return counts

    def _run(self, path, encode):
        rows = _reads_rows(100)
        db = Database(storage="disk", storage_path=str(path),
                      encode=encode)
        db.create_table("reads", READS_SCHEMA)
        db.load("reads", rows[:60])
        db.shutdown()
        db = Database(storage="disk", storage_path=str(path),
                      encode=encode)
        # A second segment after reopen (40 rows: too few to absorb the
        # first one).
        db.append("reads", rows[60:])
        assert list(db.table("reads").scan()) == rows
        db.shutdown()
        return self._dict_columns(path)

    @pytest.mark.parametrize("encode,knob", [
        (False, "1"),  # the knob says yes, the storage no
        (True, "0"),   # and the other way round
    ])
    def test_override_beats_knob_across_reopen(self, tmp_path, monkeypatch,
                                               encode, knob):
        monkeypatch.setenv("REPRO_ENCODE", knob)
        counts = self._run(tmp_path / "db", encode)
        assert len(counts) == 2
        if encode:
            assert all(count > 0 for count in counts)
        else:
            assert counts == [0, 0]
