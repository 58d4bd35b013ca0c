"""Disk-path tests: scans over reopened tables, commit durability,
checkpoint segments and image rewrites, reading directories written in
the older page format, and the storage stat CLI."""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.minidb.engine import Database
from repro.minidb.index import IndexRange
from repro.minidb.schema import TableSchema
from repro.minidb.storage.__main__ import main as storage_main, stat
from repro.minidb.storage.backend import MAX_SEGMENTS
from repro.minidb.storage.legacy import (
    KIND_HEAP,
    KIND_HEAP_DICT,
    decode_page,
)
from repro.minidb.storage.segment import FILE_HEADER_SIZE, read_generation
from repro.minidb.types import SqlType

SCHEMA = TableSchema.of(
    ("id", SqlType.INTEGER), ("epc", SqlType.VARCHAR),
    ("loc", SqlType.INTEGER), ("v", SqlType.DOUBLE))


#: id-sorted rows.
def _rows(count: int, start: int = 0) -> list[tuple]:
    return [(i, f"epc{i % 13}", i % 7, i * 0.5)
            for i in range(start, start + count)]


def _open(path, **kwargs) -> Database:
    return Database(storage="disk", storage_path=str(path), **kwargs)


def _manifest(path) -> dict:
    return json.loads((Path(path) / "MANIFEST.json").read_text(
        encoding="utf-8"))


def _assert_index_matches_memory(db: Database, rows: list[tuple],
                                 column: str = "epc") -> None:
    """*db*'s index on *column* scans exactly like a memory database's
    index over *rows*."""
    with Database(storage="memory") as mirror:
        mirror.create_table("reads", SCHEMA)
        mirror.load("reads", rows)
        mirror.create_index("reads", column)
        everything = IndexRange()
        assert list(db.table("reads").index_on(column).scan(everything)) \
            == list(mirror.table("reads").index_on(column).scan(everything))


def _reopened_rows(path, sql: str) -> list:
    """*sql*'s rows on a freshly reopened database."""
    with _open(path) as db:
        return db.execute(sql).rows


class TestSequentialScan:
    SQL = "SELECT epc, v FROM reads WHERE id >= 900 AND id < 1000"

    def _build(self, path) -> None:
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))

    def test_range_scan_correct_under_append_deltas(self, tmp_path):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            for ordinal in range(4):  # streaming ingest: delta appends
                db.append("reads", _rows(120, 2000 + ordinal * 120))
        rows = _reopened_rows(
            path, "SELECT id FROM reads WHERE id >= 2100 AND id < 2300")
        assert rows == [(i,) for i in range(2100, 2300)]

    def test_range_scan_correct_under_replace_splices(self, tmp_path):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            rows = _rows(2000)
            spliced = rows[:500] + _rows(300, 5000) + rows[1500:]
            db.table("reads").replace_rows(spliced, coerced=False)
        rows = _reopened_rows(
            path, "SELECT id, epc FROM reads WHERE id >= 5000")
        assert rows == [(row[0], row[1]) for row in _rows(300, 5000)]

    def test_small_and_default_batch_sizes_agree(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            default = db.explain_analyze(self.SQL)
        monkeypatch.setenv("REPRO_BATCH_SIZE", "7")
        with _open(path) as db:
            small = db.explain_analyze(self.SQL)
        assert small.text == default.text

    def test_explain_analyze_storage_section_is_opt_in(self, tmp_path):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            plain = db.explain_analyze(self.SQL)
            assert "Storage:" not in plain.text
            detailed = db.explain_analyze(self.SQL, include_storage=True)
            assert "Storage:" in detailed.text
            assert "segments_written=0" in detailed.text
            assert "wal_bytes=0" in detailed.text  # read-only query


class TestCommitDurability:
    def test_every_commit_fsyncs(self, tmp_path):
        with _open(tmp_path / "db") as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(10))
            for ordinal in range(8):
                db.append("reads", _rows(5, 100 + ordinal * 5))
            wal = db.storage.wal
            assert wal.syncs == wal.commits > 8


class TestCheckpointSegments:
    def test_append_to_four_indexes_writes_one_segment(self, tmp_path):
        """Indexes own no bytes: after a checkpoint, a 32-row append to
        a table with four indexes makes the next checkpoint append one
        segment holding just those rows, and rewrite nothing."""
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))
            for column in SCHEMA.names:
                db.create_index("reads", column)
            db.checkpoint()
            size = os.path.getsize(path / "data.pages")
            before = db.storage.counters
            db.append("reads", _rows(32, 2000))
            db.checkpoint()
            after = db.storage.counters
            assert after["segments_written"] - \
                before["segments_written"] == 1
            assert after["compactions"] == before["compactions"]
            grown = os.path.getsize(path / "data.pages") - size
            assert 0 < grown < size // 20
            assert len(_manifest(path)["tables"]["reads"]["segments"]) == 2
        with _open(path) as db:
            assert db.table("reads").rows == _rows(2032)
            _assert_index_matches_memory(db, _rows(2032), "v")

    def test_checkpoint_without_new_rows_writes_no_segment(self,
                                                           tmp_path):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(100))
            db.checkpoint()
            size = os.path.getsize(path / "data.pages")
            written = db.storage.counters["segments_written"]
            db.create_index("reads", "epc")
            db.checkpoint()
            assert db.storage.counters["segments_written"] == written
            assert os.path.getsize(path / "data.pages") == size
            assert "idx_reads_epc" in \
                _manifest(path)["tables"]["reads"]["indexes"]


class TestCompaction:
    """Reclaim is per table: a replaced table gets a fresh base segment,
    a dropped one's segments go dead, and a growing table's segments
    merge geometrically. The image is rewritten into a new file only
    once dead bytes exceed live ones."""

    def test_file_shrinks_after_bulk_replace(self, tmp_path):
        path = tmp_path / "db"
        data = str(path / "data.pages")
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))
            db.checkpoint()
            full_size = os.path.getsize(data)
            generation = read_generation(data)
            db.table("reads").replace_rows(_rows(100), coerced=False)
            db.checkpoint()
            shrunk = os.path.getsize(data)
            assert shrunk < full_size // 2, \
                f"data.pages {full_size} -> {shrunk}"
            assert read_generation(data) == generation + 1
            assert db.storage.counters["compactions"] == 1
            assert list(db.table("reads").scan()) == _rows(100)
        with _open(path) as db:  # the rewritten image survives reopen
            assert list(db.table("reads").scan()) == _rows(100)

    def test_compaction_remaps_indexes(self, tmp_path):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(1500))
            db.create_index("reads", "epc")
            db.checkpoint()
            keep = [row for row in _rows(1500) if row[0] % 5 == 0]
            db.table("reads").replace_rows(keep, coerced=False)
            db.checkpoint()
            _assert_index_matches_memory(db, keep)
            result = db.execute(
                "SELECT COUNT(*) AS n FROM reads WHERE epc = 'epc5'")
            expected = sum(1 for row in keep if row[1] == "epc5")
            assert result.rows == [(expected,)]
        with _open(path) as db:
            _assert_index_matches_memory(db, keep)
            assert list(db.table("reads").scan()) == keep

    def test_equal_batches_merge_like_a_binary_counter(self, tmp_path):
        """Each checkpoint's segment absorbs the trailing ones no larger
        than it, so after n equal batches the table has popcount(n)
        segments and another table's segment is never rewritten."""
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("static", SCHEMA)
            db.load("static", _rows(3000))
            db.create_table("reads", SCHEMA)
            db.checkpoint()
            [static] = _manifest(path)["tables"]["static"]["segments"]
            for ordinal in range(1, 17):
                db.append("reads", _rows(10, (ordinal - 1) * 10))
                db.checkpoint()
                tables = _manifest(path)["tables"]
                counts = [rows for _, _, rows in tables["reads"]["segments"]]
                assert len(counts) == bin(ordinal).count("1")
                assert counts == sorted(counts, reverse=True)
                assert tables["static"]["segments"] == [static]
            assert db.storage.counters["compactions"] == 0
        with _open(path) as db:
            assert db.table("reads").rows == _rows(160)
            assert db.table("static").rows == _rows(3000)

    def test_segment_count_is_capped(self, tmp_path):
        """Shrinking batches never absorb a larger segment; the cap
        merges them anyway."""
        path = tmp_path / "db"
        serial = 0
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            for size in range(100, 100 - 3 * MAX_SEGMENTS, -1):
                db.append("reads", _rows(size, serial))
                serial += size
                db.checkpoint()
                segments = _manifest(path)["tables"]["reads"]["segments"]
                assert len(segments) <= MAX_SEGMENTS
        with _open(path) as db:
            assert db.table("reads").rows == _rows(serial)

    def test_replace_gives_only_that_table_a_fresh_segment(self,
                                                           tmp_path):
        path = tmp_path / "db"
        data = str(path / "data.pages")
        with _open(path) as db:
            db.create_table("static", SCHEMA)
            db.load("static", _rows(3000))
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(200))
            db.checkpoint()
            static = _manifest(path)["tables"]["static"]["segments"]
            generation = read_generation(data)
            db.table("reads").replace_rows(_rows(50, 900), coerced=False)
            db.checkpoint()
            tables = _manifest(path)["tables"]
            assert tables["static"]["segments"] == static
            [[offset, _, rows]] = tables["reads"]["segments"]
            assert rows == 50 and offset > static[0][0]
            assert read_generation(data) == generation
            assert db.storage.counters["compactions"] == 0
        with _open(path) as db:
            assert db.table("reads").rows == _rows(50, 900)
            assert db.table("static").rows == _rows(3000)

    def test_drop_reclaims_the_dropped_segments(self, tmp_path):
        """Dropping the table that holds most bytes rewrites the image;
        the rewrite copies the live segments byte for byte."""
        path = tmp_path / "db"
        data = path / "data.pages"

        def reads_segment() -> bytes:
            [[offset, length, _]] = \
                _manifest(path)["tables"]["reads"]["segments"]
            with open(data, "rb") as handle:
                handle.seek(offset)
                return handle.read(length)

        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(100))
            db.create_table("bulk", SCHEMA)
            db.load("bulk", _rows(3000))
            db.checkpoint()
            full_size = os.path.getsize(data)
            kept = reads_segment()
            db.drop_table("bulk")
            db.checkpoint()
            assert db.storage.counters["compactions"] == 1
            assert os.path.getsize(data) < full_size // 10
            assert set(_manifest(path)["tables"]) == {"reads"}
            assert reads_segment() == kept
        with _open(path) as db:
            assert "bulk" not in db.catalog
            assert db.table("reads").rows == _rows(100)

    @given(st.lists(st.tuples(st.sampled_from(["append", "replace",
                                               "checkpoint", "reopen"]),
                              st.integers(1, 120)),
                    min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_compaction_preserves_rows_and_invariants(
            self, tmp_path_factory, ops):
        path = tmp_path_factory.mktemp("compact") / "db"
        db = _open(path)
        db.create_table("reads", SCHEMA)
        db.create_index("reads", "epc")
        model: list[tuple] = []
        serial = 0
        for op, size in ops:
            if op == "append":
                batch = _rows(size, serial)
                serial += size
                db.append("reads", batch)
                model.extend(batch)
            elif op == "replace":
                model = model[::2] + _rows(size % 30, serial)
                serial += size % 30
                db.table("reads").replace_rows(model, coerced=False)
            elif op == "checkpoint":
                db.checkpoint()
            else:
                db.shutdown()
                db = _open(path)
        db.checkpoint()
        assert list(db.table("reads").scan()) == model
        _assert_index_matches_memory(db, model)
        storage = db.storage
        # A quiesced checkpoint leaves exactly the committed image: no
        # tail past it, no rewrite file beside it; and an idle one finds
        # at most as many dead bytes as live ones, or rewrites the image.
        db.checkpoint()
        assert os.path.getsize(storage.data_path) == storage.data_length
        assert not os.path.exists(storage.data_path + ".tmp")
        segments = _manifest(path)["tables"]["reads"]["segments"]
        assert len(segments) <= MAX_SEGMENTS
        live = sum(length for _, length, _ in segments)
        dead = storage.data_length - FILE_HEADER_SIZE - live
        assert 0 <= dead <= live
        assert f"{live} live, {dead} dead" in stat(str(path))
        db.shutdown()
        with _open(path) as db:
            assert list(db.table("reads").scan()) == model


class _ParentDirectory:
    """Shared helpers for directories written in the older page format."""

    SQL = ("SELECT id, epc FROM reads WHERE id >= 100 AND epc = 'epc5' "
           "ORDER BY id")
    SOURCE: Path

    @staticmethod
    def _expected(count: int) -> list[tuple]:
        return [(row[0], row[1]) for row in _rows(count)
                if row[0] >= 100 and row[1] == "epc5"]

    def _copy(self, tmp_path) -> Path:
        path = tmp_path / "db"
        shutil.copytree(self.SOURCE, path)
        return path

    @staticmethod
    def _page_kinds(path) -> set[int]:
        manifest = _manifest(path)
        page_size = manifest["page_size"]
        image = (path / "data.pages").read_bytes()
        return {decode_page(image[page * page_size:
                                  (page + 1) * page_size])[0]
                for page, _ in manifest["tables"]["reads"]["heap_pages"]}

    @staticmethod
    def _is_segment_format(path) -> bool:
        return ("page_size" not in _manifest(path)
                and read_generation(str(path / "data.pages")) is not None)


#: Written once by the last version that kept indexes as on-disk
#: B-trees (commit 7ed9f0f): page size 512, ``reads`` created, indexed
#: on ``epc``, then three 200-row appends of ``_rows`` with a checkpoint
#: after each, so the B-tree's pages sit among and after the heap pages.
BTREE_DIR = Path(__file__).parent / "data" / "btree_db"

#: Written once by the last version with the slotted-page heap (commit
#: 69a953d): page size 512, ``reads`` created and indexed on ``epc``,
#: 300 ``_rows`` loaded with ``encode=False`` (row-major pages) and a
#: shutdown, then a reopen with ``encode=True``, 300 more appended
#: (dictionary pages) and a checkpoint, then 100 and 50 more appended
#: and the process abandoned: a committed WAL tail of 150 rows.
PAGES_DIR = Path(__file__).parent / "data" / "pages_db"


class TestParentWrittenDirectory(_ParentDirectory):
    """A manifest written by an older version can carry index specs with
    the B-tree's ``root``/``count``/``seq``/``pages`` and a ``zones`` map
    (``["h", ...]`` heap and ``["l", ...]`` leaf entries). Both are
    ignored on open, and the first checkpoint rewrites the directory as
    column segments with a manifest that has neither."""

    SOURCE = BTREE_DIR

    def test_opens_and_answers_like_memory(self, tmp_path):
        path = self._copy(tmp_path)
        [spec] = _manifest(path)["tables"]["reads"]["indexes"].values()
        assert {"root", "count", "seq", "pages"} <= spec.keys()
        with _open(path) as db:
            assert db.execute(self.SQL).rows == self._expected(600)
            _assert_index_matches_memory(db, _rows(600))
            db.append("reads", _rows(100, 600))
            assert db.execute(self.SQL).rows == self._expected(700)
            _assert_index_matches_memory(db, _rows(700))
        with _open(path) as db:
            assert list(db.table("reads").scan()) == _rows(700)
            _assert_index_matches_memory(db, _rows(700))

    def test_next_checkpoint_drops_the_btree_fields(self, tmp_path):
        path = self._copy(tmp_path)
        with _open(path) as db:
            assert not self._is_segment_format(path)  # opening writes nothing
            db.checkpoint()
            assert self._is_segment_format(path)
            entry = _manifest(path)["tables"]["reads"]
            assert entry["indexes"] == {"idx_reads_epc": {"column": "epc"}}
        with _open(path) as db:
            assert list(db.table("reads").scan()) == _rows(600)
            assert db.execute(self.SQL).rows == self._expected(600)

    def test_zones_in_manifest_are_ignored_then_dropped(self, tmp_path):
        path = self._copy(tmp_path)
        manifest = _manifest(path)
        entry = manifest["tables"]["reads"]
        # Bounds that would rule out every row if anything read them.
        zones = {str(page_id): ["h", count, [[-2, -1, 0]] * len(SCHEMA)]
                 for page_id, count in entry["heap_pages"]}
        for spec in entry["indexes"].values():
            zones.update({str(page_id): ["l", "zzz", "zzz"]
                          for page_id in spec["pages"]})
        manifest["zones"] = zones
        (path / "MANIFEST.json").write_text(json.dumps(manifest),
                                            encoding="utf-8")

        with _open(path) as db:
            assert db.execute(self.SQL).rows == self._expected(600)
            db.append("reads", _rows(100, 600))
            assert db.execute(self.SQL).rows == self._expected(700)
            db.checkpoint()
            assert "zones" not in _manifest(path)
            assert list(db.table("reads").scan()) == _rows(700)
        with _open(path) as db:
            assert db.execute(self.SQL).rows == self._expected(700)


class TestPageFormatDirectory(_ParentDirectory):
    """The fixture holds both page layouts, an index and a WAL tail.
    Opening it replays the tail, and the checkpoint that folds the
    replay in is its first: that one rewrites it as segments."""

    SOURCE = PAGES_DIR

    def test_fixture_holds_both_layouts_and_a_wal_tail(self, tmp_path):
        path = self._copy(tmp_path)
        assert self._page_kinds(path) == {KIND_HEAP, KIND_HEAP_DICT}
        assert os.path.getsize(path / "wal.log") > 0
        assert "page format of an older version" in stat(str(path))

    def test_opens_and_answers_like_memory(self, tmp_path):
        path = self._copy(tmp_path)
        with _open(path) as db:
            assert db.storage.checkpoints == 1  # the replay fold
            assert self._is_segment_format(path)
            assert os.path.getsize(path / "wal.log") == 0
            assert db.table("reads").rows == _rows(750)
            assert db.execute(self.SQL).rows == self._expected(750)
            _assert_index_matches_memory(db, _rows(750))
            db.append("reads", _rows(50, 750))
        with _open(path) as db:
            assert db.storage.checkpoints == 0
            assert db.table("reads").rows == _rows(800)
            _assert_index_matches_memory(db, _rows(800))

    def test_without_the_tail_it_migrates_at_its_first_checkpoint(
            self, tmp_path):
        path = self._copy(tmp_path)
        (path / "wal.log").write_bytes(b"")
        with _open(path) as db:
            assert db.table("reads").rows == _rows(600)
            _assert_index_matches_memory(db, _rows(600))
            assert not self._is_segment_format(path)
        # shutdown checkpointed: now, and only now, it is segments
        assert self._is_segment_format(path)
        with _open(path) as db:
            assert db.table("reads").rows == _rows(600)


class TestStatCli:
    def test_stat_reports_segments(self, tmp_path, capsys):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(500))
            db.create_index("reads", "epc")
            db.checkpoint()
            db.append("reads", _rows(20, 500))
        report = stat(str(path))
        assert "checkpoint epoch:" in report
        assert "image generation: 0" in report
        assert "table reads: 520 rows, 2 segments" in report
        assert "indexes on epc" in report
        assert " 0 dead" in report
        assert storage_main(["stat", str(path)]) == 0
        assert "table reads" in capsys.readouterr().out

    def test_stat_reports_a_page_format_directory(self, tmp_path):
        path = tmp_path / "db"
        shutil.copytree(BTREE_DIR, path)
        report = stat(str(path))
        assert "table reads: 600 rows, 23 heap pages" in report
        with _open(path) as db:
            db.checkpoint()
        report = stat(str(path))
        assert "table reads: 600 rows, 1 segments" in report
        assert "image generation: 1" in report

    def test_stat_counts_an_uncommitted_tail_as_dead(self, tmp_path):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(500))
        with open(path / "data.pages", "ab") as handle:
            handle.write(bytes(123))
        assert " 123 dead" in stat(str(path))
        with _open(path) as db:  # open cuts the file back
            assert db.table("reads").rows == _rows(500)
        assert " 0 dead" in stat(str(path))

    def test_stat_skips_a_torn_segment(self, tmp_path):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(500))
            db.checkpoint()
            db.append("reads", _rows(100, 500))

        def stored_bytes(report: str) -> int:
            [line] = [text for text in report.splitlines()
                      if text.startswith("table reads footprint:")]
            return int(line.split()[3])

        whole = stat(str(path))
        [offset, length, _], _ = _manifest(path)["tables"]["reads"]["segments"]
        with open(path / "data.pages", "r+b") as handle:
            handle.seek(offset + length // 2)
            handle.write(bytes(8))
        torn = stat(str(path))
        assert "table reads: 100 rows, 2 segments" in torn
        assert 0 < stored_bytes(torn) < stored_bytes(whole)

    def test_stat_on_fresh_directory(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert storage_main(["stat", str(tmp_path / "empty")]) == 0
        assert "no MANIFEST.json" in capsys.readouterr().out

    def test_usage_errors(self, tmp_path, capsys):
        assert storage_main([]) == 2
        assert storage_main(["stat", str(tmp_path / "nope")]) == 2


class TestContextManager:
    def test_with_block_shuts_down(self, tmp_path):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(50))
            storage = db.storage
        assert storage.closed  # shutdown ran: checkpointed + closed
        assert os.path.getsize(str(path / "wal.log")) == 0
        with _open(path) as db:
            assert len(list(db.table("reads").scan())) == 50

    def test_memory_mode_context_manager(self):
        with Database() as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(5))
            assert db.execute("SELECT COUNT(*) AS n FROM reads").rows == \
                [(5,)]
