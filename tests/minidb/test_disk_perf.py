"""Disk-path tests: sequential scans, commit durability, checkpoint
compaction, reading directories written by older versions, and the
storage stat CLI.

Every scan measurement runs on a freshly reopened database with a small
pool whose statistics were gathered first, so the measured query's page
traffic is its own: a sequential scan builds the table's columnar cache
from cold, one pass over the heap pages (once built, that cache and a
large pool would both hide page reads entirely).
"""

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
from repro.minidb.storage.page import KIND_HEAP, KIND_HEAP_DICT, decode_page
from repro.minidb.types import SqlType

SCHEMA = TableSchema.of(
    ("id", SqlType.INTEGER), ("epc", SqlType.VARCHAR),
    ("loc", SqlType.INTEGER), ("v", SqlType.DOUBLE))


#: id-sorted rows: heap pages get disjoint id ranges.
def _rows(count: int, start: int = 0) -> list[tuple]:
    return [(i, f"epc{i % 13}", i % 7, i * 0.5)
            for i in range(start, start + count)]


def _open(path, **kwargs) -> Database:
    kwargs.setdefault("buffer_pages", 8)
    kwargs.setdefault("page_size", 512)
    return Database(storage="disk", storage_path=str(path), **kwargs)


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


def _measured_scan(path, sql: str) -> tuple[list, int]:
    """(rows, pages_read) for *sql* on a reopened db."""
    with _open(path) as db:
        # Warm the statistics (which scan everything) before measuring,
        # so the measured delta is the target query's own page traffic.
        db.analyze()
        result, metrics = db.execute_with_metrics(sql)
        return result.rows, metrics.pages_read


class TestSequentialScan:
    SQL = "SELECT epc, v FROM reads WHERE id >= 900 AND id < 1000"

    def _build(self, path) -> int:
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))
            return len(db.table("reads").rows.page_ids)

    def test_cold_scan_reads_every_heap_page_once(self, tmp_path):
        path = tmp_path / "db"
        heap_pages = self._build(path)
        rows, pages_read = _measured_scan(path, self.SQL)
        assert rows == [(row[1], row[3]) for row in _rows(2000)[900:1000]]
        assert pages_read == heap_pages

    def test_range_scan_correct_under_append_deltas(self, tmp_path):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            for ordinal in range(4):  # streaming ingest: delta appends
                db.append("reads", _rows(120, 2000 + ordinal * 120))
        rows, _ = _measured_scan(
            path, "SELECT id FROM reads WHERE id >= 2100 AND id < 2300")
        assert rows == [(i,) for i in range(2100, 2300)]

    def test_range_scan_correct_under_replace_splices(self, tmp_path):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            rows = _rows(2000)
            spliced = rows[:500] + _rows(300, 5000) + rows[1500:]
            db.table("reads").replace_rows(spliced, coerced=False)
        rows, _ = _measured_scan(
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
            assert "pages_read=" in detailed.text
            assert "wal_bytes=0" in detailed.text  # read-only query


class TestReadPathDoesNoWriteWork:
    """Faulting a page in to read it must not re-serialize what is on
    it: sizes come off the stored page, and the fill accounting a
    writer needs is only rebuilt when the page is written to again."""

    SCAN = "SELECT epc, v FROM reads WHERE id >= 900 AND id < 1000"
    PROBE = "SELECT id, epc FROM reads WHERE v >= 100 AND v < 150"

    def _build(self, path) -> int:
        with _open(path, buffer_pages=64) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))
            db.create_index("reads", "v")
            return len(db.table("reads").rows.page_ids)

    @staticmethod
    def _count_encoder_calls(monkeypatch) -> dict[str, int]:
        """Wrap every binding of the value and row encoders."""
        from repro.minidb.storage import heap, serde

        calls: dict[str, int] = {}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)
            return wrapper

        for module in (serde, heap):
            for name in ("encode_value", "encode_row"):
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name,
                        counting(name, getattr(module, name)))
        return calls

    def test_scans_encode_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "db"
        heap_pages = self._build(path)
        with _open(path, buffer_pages=heap_pages // 4) as db:
            db.analyze()  # warm stats; the scan below builds the columns
            calls = self._count_encoder_calls(monkeypatch)
            before = db.storage.counters
            scan = db.explain_analyze(self.SCAN, include_storage=True)
            probe = db.explain_analyze(self.PROBE, include_storage=True)
            after = db.storage.counters
            assert "SeqScan(reads)" in scan.text
            assert "IndexRangeScan(reads.v" in probe.text
            for text in (scan.text, probe.text):
                assert "accounting_rebuilds=0" in text
            # The scan builds the column cache from every heap page, the
            # pool turning over under it; the probe reads that cache.
            assert "pages_decoded=0" not in scan.text
            assert "pages_decoded=0" in probe.text
            decoded = after["pages_decoded"] - before["pages_decoded"]
            assert decoded == after["pages_read"] - before["pages_read"]
            assert decoded == heap_pages
            assert after["accounting_rebuilds"] == 0
            assert calls == {}, f"read path encoded: {calls}"

    def test_decoded_node_has_no_fill_state_until_topped_up(
            self, tmp_path):
        path = tmp_path / "db"
        heap_pages = self._build(path)
        # A pool that holds the table: the tail stays resident between
        # the two appends below.
        with _open(path, buffer_pages=2 * heap_pages) as db:
            store = db.table("reads").rows
            storage = db.storage
            for page_id in store.page_ids:
                node = storage.pager.fetch(page_id)
                assert node._cols is None and node._plain_bytes is None
            assert storage.counters["accounting_rebuilds"] == 0
            db.append("reads", _rows(3, 2000))
            # Only the tail page was written to; one rebuild, not one
            # per page (the append cloned it off the manifest's copy).
            assert storage.counters["accounting_rebuilds"] == 1
            tail = storage.pager.fetch(store.page_ids[-1])
            assert tail._plain_bytes is not None
            assert [row[0] for row in tail.rows[-3:]] == [2000, 2001, 2002]
            db.append("reads", _rows(3, 2003))
            assert storage.counters["accounting_rebuilds"] == 1


class TestCommitDurability:
    def test_every_commit_fsyncs(self, tmp_path):
        with _open(tmp_path / "db") as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(10))
            for ordinal in range(8):
                db.append("reads", _rows(5, 100 + ordinal * 5))
            wal = db.storage.wal
            assert wal.syncs == wal.commits > 8


class TestCompaction:
    def test_file_shrinks_after_bulk_replace(self, tmp_path):
        path = tmp_path / "db"
        data = str(path / "data.pages")
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))
            db.checkpoint()
            full_size = os.path.getsize(data)
            db.table("reads").replace_rows(_rows(100), coerced=False)
            db.checkpoint()  # retires the old pages, then frees them
            db.checkpoint()  # relocates tail pages and truncates
            shrunk = os.path.getsize(data)
            assert shrunk < full_size // 2, \
                f"data.pages {full_size} -> {shrunk}"
            assert db.storage.counters["compactions"] >= 1
            assert db.storage.counters["pages_moved"] >= 1
            assert list(db.table("reads").scan()) == _rows(100)
        with _open(path) as db:  # relocation survives reopen
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
            db.checkpoint()
            _assert_index_matches_memory(db, keep)
            result = db.execute(
                "SELECT COUNT(*) AS n FROM reads WHERE epc = 'epc5'")
            expected = sum(1 for row in keep if row[1] == "epc5")
            assert result.rows == [(expected,)]
        with _open(path) as db:
            _assert_index_matches_memory(db, keep)
            assert list(db.table("reads").scan()) == keep

    @given(st.lists(st.tuples(st.sampled_from(["append", "replace",
                                               "checkpoint"]),
                              st.integers(1, 120)),
                    min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_compaction_preserves_rows_and_invariants(
            self, tmp_path_factory, ops):
        path = tmp_path_factory.mktemp("compact") / "db"
        with _open(path) as db:
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
                else:
                    db.checkpoint()
            db.checkpoint()
            db.checkpoint()  # second pass moves freed tails
            assert list(db.table("reads").scan()) == model
            _assert_index_matches_memory(db, model)
            storage = db.storage
            # After two quiesced checkpoints the file has no free tail.
            data_pages = os.path.getsize(
                os.path.join(storage.path, "data.pages")) \
                // storage.page_size
            assert data_pages == storage.next_page_id
            assert storage.next_page_id - 1 not in set(storage._free_now)
        with _open(path) as db:
            assert list(db.table("reads").scan()) == model


class TestAppendWritesOnlyHeapPages:
    def test_append_to_four_indexes(self, tmp_path):
        """Indexes own no pages: after a checkpoint, a 32-row append to a
        table with four indexes and the next checkpoint write the tail
        heap page (a copy-on-write clone) and at most one fresh one."""
        with _open(tmp_path / "db", buffer_pages=64,
                   page_size=4096) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))
            for column in SCHEMA.names:
                db.create_index("reads", column)
            db.checkpoint()
            before = db.storage.counters["pages_written"]
            db.append("reads", _rows(32, 2000))
            db.checkpoint()
            assert db.storage.counters["pages_written"] - before <= 2


#: Written once by the last version that kept indexes as on-disk
#: B-trees (commit 7ed9f0f): page size 512, ``reads`` created, indexed
#: on ``epc``, then three 200-row appends of ``_rows`` with a checkpoint
#: after each, so the B-tree's pages sit among and after the heap pages.
PARENT_DIR = Path(__file__).parent / "data" / "btree_db"


class TestParentWrittenDirectory:
    """A manifest written by an older version can carry index specs with
    the B-tree's ``root``/``count``/``seq``/``pages`` and a ``zones`` map
    (``["h", ...]`` heap and ``["l", ...]`` leaf entries). Both are
    ignored on open, the next checkpoint writes a manifest without them,
    and the checkpoint after that has compacted the B-tree pages away."""

    SQL = ("SELECT id, epc FROM reads WHERE id >= 100 AND epc = 'epc5' "
           "ORDER BY id")

    @staticmethod
    def _expected(count: int) -> list[tuple]:
        return [(row[0], row[1]) for row in _rows(count)
                if row[0] >= 100 and row[1] == "epc5"]

    @staticmethod
    def _copy(tmp_path) -> Path:
        path = tmp_path / "db"
        shutil.copytree(PARENT_DIR, path)
        return path

    @staticmethod
    def _manifest(path) -> dict:
        return json.loads((path / "MANIFEST.json").read_text(
            encoding="utf-8"))

    def test_opens_and_answers_like_memory(self, tmp_path):
        path = self._copy(tmp_path)
        [spec] = self._manifest(path)["tables"]["reads"]["indexes"].values()
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
            db.checkpoint()
            entry = self._manifest(path)["tables"]["reads"]
            assert entry["indexes"] == {"idx_reads_epc": {"column": "epc"}}

    def test_second_checkpoint_leaves_heap_pages_only(self, tmp_path):
        path = self._copy(tmp_path)
        data = path / "data.pages"
        with _open(path) as db:
            heap_pages = len(db.table("reads").rows.page_ids)
            db.checkpoint()
            # The trailing B-tree pages are trimmed at once; those among
            # the heap pages are free holes until the next pass moves
            # heap pages into them.
            assert os.path.getsize(data) // 512 > heap_pages
            db.checkpoint()
            assert os.path.getsize(data) // 512 == heap_pages
            assert sorted(db.table("reads").rows.page_ids) == \
                list(range(heap_pages))
            assert list(db.table("reads").scan()) == _rows(600)
        image = data.read_bytes()
        kinds = {decode_page(image[start:start + 512])[0]
                 for start in range(0, len(image), 512)}
        assert kinds <= {KIND_HEAP, KIND_HEAP_DICT}

    def test_zones_in_manifest_are_ignored_then_dropped(self, tmp_path):
        path = self._copy(tmp_path)
        manifest = self._manifest(path)
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
            assert "zones" not in self._manifest(path)
            assert list(db.table("reads").scan()) == _rows(700)
        with _open(path) as db:
            assert db.execute(self.SQL).rows == self._expected(700)


class TestStatCli:
    def test_stat_reports_pages(self, tmp_path, capsys):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(500))
            db.create_index("reads", "epc")
        report = stat(str(path))
        assert "checkpoint epoch:" in report
        assert "table reads: 500 rows" in report
        assert "indexes on epc" in report
        assert "B-tree" not in report
        assert "free list:" in report
        assert storage_main(["stat", str(path)]) == 0
        assert "table reads" in capsys.readouterr().out

    def test_stat_reports_btree_pages_awaiting_reclaim(self, tmp_path):
        path = tmp_path / "db"
        shutil.copytree(PARENT_DIR, path)
        line = "table reads: 26 B-tree pages of an older version"
        assert line in stat(str(path))
        with _open(path) as db:
            db.checkpoint()
        assert line not in stat(str(path))

    def test_stat_skips_a_torn_heap_page(self, tmp_path):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(500))

        def stored_bytes(report: str) -> int:
            [line] = [text for text in report.splitlines()
                      if text.startswith("table reads footprint:")]
            return int(line.split()[3])

        whole = stat(str(path))
        manifest = json.loads((path / "MANIFEST.json").read_text(
            encoding="utf-8"))
        page_size = manifest["page_size"]
        page_id, _ = manifest["tables"]["reads"]["heap_pages"][0]
        # Zero the page's second half, where its cells live: the CRC
        # no longer matches, as after a torn write.
        with open(path / "data.pages", "r+b") as handle:
            handle.seek(page_id * page_size + page_size // 2)
            handle.write(bytes(page_size // 2))
        torn = stat(str(path))
        assert "table reads: 500 rows" in torn
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
        assert storage.pager.closed  # shutdown ran: checkpointed + closed
        assert os.path.getsize(str(path / "wal.log")) == 0
        with _open(path) as db:
            assert len(list(db.table("reads").scan())) == 50

    def test_memory_mode_context_manager(self):
        with Database() as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(5))
            assert db.execute("SELECT COUNT(*) AS n FROM reads").rows == \
                [(5,)]
