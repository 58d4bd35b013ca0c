"""Fast-disk-path tests: zone pruning, readahead, group commit,
checkpoint compaction, and the storage stat CLI.

The pruning pins compare a zone-pruned scan against the same scan with
``REPRO_ZONE_PRUNE=0``: rows must be byte-identical and the pruned run
must fault at most half the pages. Measurements use the scalar row path
(``REPRO_BATCH_SIZE=0``) with a small pool, because the batch path's
columnar cache and a large pool would both hide page reads entirely.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.knobs import UnknownKnobWarning
from repro.minidb.engine import Database
from repro.minidb.schema import TableSchema
from repro.minidb.storage.__main__ import main as storage_main, stat
from repro.minidb.storage.wal import parse_group_commit
from repro.minidb.storage.zones import (
    heap_zone,
    page_qualifies,
    leaf_zone,
)
from repro.minidb.types import SqlType

SCHEMA = TableSchema.of(
    ("id", SqlType.INTEGER), ("epc", SqlType.VARCHAR),
    ("loc", SqlType.INTEGER), ("v", SqlType.DOUBLE))

#: id-sorted rows: heap pages get disjoint id ranges, so a range
#: predicate on id disqualifies most pages by zone map alone.
def _rows(count: int, start: int = 0) -> list[tuple]:
    return [(i, f"epc{i % 13}", i % 7, i * 0.5)
            for i in range(start, start + count)]


def _open(path, **kwargs) -> Database:
    kwargs.setdefault("buffer_pages", 8)
    kwargs.setdefault("page_size", 512)
    return Database(storage="disk", storage_path=str(path), **kwargs)


def _measured_scan(path, sql: str, prune: str,
                   monkeypatch) -> tuple[list, int, int]:
    """(rows, pages_read, pages_pruned) for *sql* on a reopened db."""
    monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
    monkeypatch.setenv("REPRO_ZONE_PRUNE", prune)
    with _open(path) as db:
        # Warm the statistics (which scan everything) before measuring,
        # so the measured delta is the target query's own page traffic.
        db.execute("SELECT id FROM reads WHERE id = -1")
        result, metrics = db.execute_with_metrics(sql)
        return result.rows, metrics.pages_read, metrics.pages_pruned


class TestZoneMapUnit:
    def test_heap_zone_bounds_and_nulls(self):
        rows = [(1, "a", None), (5, "c", None), (3, "b", None)]
        zone = heap_zone(rows, 3)
        assert zone == ["h", 3, [[1, 5, 0], ["a", "c", 0], [None, None, 3]]]

    def test_nan_and_surrogates_poison_bounds(self):
        zone = heap_zone([(float("nan"),), (1.0,)], 1)
        assert zone[2][0][:2] == [None, None]  # unprunable, still valid
        assert page_qualifies(zone, [(0, "<", 0.0)])
        zone = heap_zone([("\udc80",), ("a",)], 1)
        assert zone[2][0][:2] == [None, None]

    def test_qualification_ops(self):
        zone = heap_zone([(10, 1.0), (20, 2.0)], 2)
        assert page_qualifies(zone, [(0, "=", 15)])
        assert not page_qualifies(zone, [(0, "=", 25)])
        assert not page_qualifies(zone, [(0, "<", 10)])
        assert page_qualifies(zone, [(0, "<=", 10)])
        assert not page_qualifies(zone, [(0, ">", 20)])
        assert page_qualifies(zone, [(0, ">=", 20)])

    def test_all_null_column_disqualifies_any_comparison(self):
        zone = heap_zone([(None,), (None,)], 1)
        for op in ("=", "<", "<=", ">", ">="):
            assert not page_qualifies(zone, [(0, op, 0)])

    def test_mixed_type_page_is_unprunable(self):
        zone = heap_zone([(1,), ("text",)], 1)
        assert page_qualifies(zone, [(0, "=", 99)])

    def test_leaf_zone(self):
        assert leaf_zone([]) is None
        assert leaf_zone([1, 2, 9]) == ["l", 1, 9]


class TestZonePruning:
    SQL = "SELECT epc, v FROM reads WHERE id >= 900 AND id < 1000"

    def _build(self, path):
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))

    def test_selective_scan_reads_half_the_pages_or_less(
            self, tmp_path, monkeypatch):
        path = tmp_path / "db"
        self._build(path)
        pruned, read_pruned, pages_pruned = _measured_scan(
            path, self.SQL, "1", monkeypatch)
        baseline, read_all, zero = _measured_scan(
            path, self.SQL, "0", monkeypatch)
        assert pruned == baseline  # byte-identical rows
        assert len(pruned) == 100
        assert pages_pruned > 0 and zero == 0
        assert read_all > 0
        assert read_pruned <= read_all // 2, \
            f"pruned scan read {read_pruned}/{read_all} pages"

    def test_pruning_correct_under_append_deltas(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            for ordinal in range(4):  # streaming ingest: delta appends
                db.append("reads", _rows(120, 2000 + ordinal * 120))
        sql = "SELECT id FROM reads WHERE id >= 2100 AND id < 2300"
        pruned = _measured_scan(path, sql, "1", monkeypatch)
        baseline = _measured_scan(path, sql, "0", monkeypatch)
        assert pruned[0] == baseline[0]
        assert len(pruned[0]) == 200
        assert pruned[2] > 0

    def test_pruning_correct_under_replace_splices(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            rows = _rows(2000)
            spliced = rows[:500] + _rows(300, 5000) + rows[1500:]
            db.table("reads").replace_rows(spliced, coerced=False)
        sql = "SELECT id, epc FROM reads WHERE id >= 5000"
        pruned = _measured_scan(path, sql, "1", monkeypatch)
        baseline = _measured_scan(path, sql, "0", monkeypatch)
        assert pruned[0] == baseline[0]
        assert len(pruned[0]) == 300
        assert pruned[2] > 0

    def test_batch_and_scalar_paths_agree(self, tmp_path, monkeypatch):
        path = tmp_path / "db"
        self._build(path)
        monkeypatch.setenv("REPRO_ZONE_PRUNE", "1")
        with _open(path) as db:
            batched = db.explain_analyze(self.SQL)  # vectorized default
        monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
        with _open(path) as db:
            tuple_at_a_time = db.explain_analyze(self.SQL)
        assert batched.text == tuple_at_a_time.text

    def test_explain_analyze_storage_section_is_opt_in(self, tmp_path):
        path = tmp_path / "db"
        self._build(path)
        with _open(path) as db:
            plain = db.explain_analyze(self.SQL)
            assert "Storage:" not in plain.text
            detailed = db.explain_analyze(self.SQL, include_storage=True)
            assert "Storage:" in detailed.text
            assert "pages_pruned=" in detailed.text
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
        """Wrap every binding of the value/row/entry encoders."""
        from repro.minidb.storage import btree, heap, serde

        calls: dict[str, int] = {}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)
            return wrapper

        for module in (serde, heap, btree):
            for name in ("encode_value", "encode_row", "_encode_entry",
                         "_encode_separator"):
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name,
                        counting(name, getattr(module, name)))
        return calls

    def test_scans_encode_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "db"
        heap_pages = self._build(path)
        with _open(path, buffer_pages=heap_pages // 4) as db:
            db.execute("SELECT id FROM reads WHERE id = -1")  # warm stats
            calls = self._count_encoder_calls(monkeypatch)
            before = db.storage.counters
            scan = db.explain_analyze(self.SCAN, include_storage=True)
            probe = db.explain_analyze(self.PROBE, include_storage=True)
            after = db.storage.counters
            assert "SeqScan(reads)" in scan.text
            assert "pages_pruned=0" not in scan.text
            assert "IndexRangeScan(reads.v" in probe.text
            for text in (scan.text, probe.text):
                assert "accounting_rebuilds=0" in text
                assert "pages_decoded=0" not in text
            decoded = after["pages_decoded"] - before["pages_decoded"]
            assert decoded == after["pages_read"] - before["pages_read"]
            assert decoded > heap_pages  # the pool turned over
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


class TestReadahead:
    def test_sequential_scan_prefetches(self, tmp_path, monkeypatch):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(2000))
        monkeypatch.setenv("REPRO_BATCH_SIZE", "0")
        with _open(path) as plain_db:
            plain_db.execute("SELECT id FROM reads WHERE id = -1")
            baseline, plain = plain_db.execute_with_metrics(
                "SELECT COUNT(*) AS n FROM reads")
        with _open(path, readahead=8) as ra_db:
            ra_db.execute("SELECT id FROM reads WHERE id = -1")
            result, metrics = ra_db.execute_with_metrics(
                "SELECT COUNT(*) AS n FROM reads")
        assert result.rows == baseline.rows
        assert metrics.pages_prefetched > 0
        # Prefetch hits replace demand reads one-for-one.
        assert metrics.pages_read < plain.pages_read
        counters = ra_db.storage.counters
        assert counters["prefetch_hits"] > 0

    def test_readahead_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_READAHEAD", "16")
        with _open(tmp_path / "db") as db:
            assert db.storage.pager.readahead == 16
        monkeypatch.setenv("REPRO_READAHEAD", "junk")
        with pytest.warns(UnknownKnobWarning, match="REPRO_READAHEAD"):
            with _open(tmp_path / "db2") as db:
                assert db.storage.pager.readahead == 0


class TestGroupCommit:
    @pytest.mark.parametrize("spec,expected", [
        (None, (0, 0.0)),
        ("", (0, 0.0)),
        ("8", (8, 0.0)),
        (8, (8, 0.0)),
        ("25ms", (0, 0.025)),
        ("junk", (0, 0.0)),
        ("-3", (0, 0.0)),
    ])
    def test_parse_group_commit(self, spec, expected):
        assert parse_group_commit(spec) == expected

    def test_coalesces_fsyncs(self, tmp_path):
        with _open(tmp_path / "db", group_commit="8") as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(10))
            for ordinal in range(32):
                db.append("reads", _rows(5, 100 + ordinal * 5))
            wal = db.storage.wal
            assert wal.group_enabled
            assert wal.commits > 30
            assert wal.syncs < wal.commits // 2
            assert wal.group_syncs > 0

    def test_without_group_commit_every_commit_fsyncs(self, tmp_path):
        with _open(tmp_path / "db") as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(10))
            for ordinal in range(8):
                db.append("reads", _rows(5, 100 + ordinal * 5))
            wal = db.storage.wal
            assert not wal.group_enabled
            assert wal.syncs >= wal.commits > 8
            assert wal.group_syncs == 0

    def test_pending_commits_durable_across_clean_shutdown(self, tmp_path):
        path = tmp_path / "db"
        with _open(path, group_commit="100") as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(10))
            db.append("reads", _rows(5, 100))
        with _open(path) as db:
            assert len(list(db.table("reads").scan())) == 15

    def test_env_knob_configures_wal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "4")
        with _open(tmp_path / "db") as db:
            assert db.storage.wal.group_count == 4


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
            index = db.table("reads").index_on("epc")
            index.tree.check_invariants()
            result = db.execute(
                "SELECT COUNT(*) AS n FROM reads WHERE epc = 'epc5'")
            expected = sum(1 for row in keep if row[1] == "epc5")
            assert result.rows == [(expected,)]
        with _open(path) as db:
            db.table("reads").index_on("epc").tree.check_invariants()
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
            db.table("reads").index_on("epc").tree.check_invariants()
            storage = db.storage
            # After two quiesced checkpoints the file has no free tail.
            data_pages = os.path.getsize(
                os.path.join(storage.path, "data.pages")) \
                // storage.page_size
            assert data_pages == storage.next_page_id
            assert storage.next_page_id - 1 not in set(storage._free_now)
        with _open(path) as db:
            assert list(db.table("reads").scan()) == model


class TestStatCli:
    def test_stat_reports_pages_and_zones(self, tmp_path, capsys):
        path = tmp_path / "db"
        with _open(path) as db:
            db.create_table("reads", SCHEMA)
            db.load("reads", _rows(500))
            db.create_index("reads", "epc")
        report = stat(str(path))
        assert "checkpoint epoch:" in report
        assert "table reads: 500 rows" in report
        assert "zone maps:" in report
        assert "free list:" in report
        assert storage_main(["stat", str(path)]) == 0
        assert "table reads" in capsys.readouterr().out

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
