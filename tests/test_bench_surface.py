"""The frozen benchmark's import surface, checked by tier-1.

``bench/`` may not change in a PR that touches ``src/``, so whatever it
imports from ``src/`` and reads off ``ExecutionMetrics`` and a disk
storage's settings and counters has to keep working. Without this test
a deletion in ``src/`` that breaks it is found by the benchmark
pipeline, not by ``pytest``.
"""

from __future__ import annotations

import os
import warnings
from collections import defaultdict

from repro import knobs
from repro.minidb import Database
from repro.minidb.vector import encode_stats, forced_batch_size, materialize
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry

from tests.conftest import READS, make_reads_db

#: Every key ``bench.statements._count_execution`` writes.
COUNTER_KEYS = {
    "exec.rows_sorted", "exec.sort_operators", "exec.rows_emitted",
    "exec.batches", "filter_input_rows", "filter_output_rows",
    "exec.encoded_columns", "exec.decode_fallbacks",
    "codegen.fused_pipelines", "codegen.compile_ms",
    "shard.segments", "shard.workers", "qerrors",
}


def test_bench_modules_import_and_count_an_executed_plan():
    import bench.statements as statements
    import bench.worker  # noqa: F401 — importing is the test
    import bench.workloads  # noqa: F401

    db = make_reads_db([(f"e{i % 3}", i, "r1", "loc", "step")
                        for i in range(20)])
    before = (statements.cache_stats(), encode_stats())
    plan = db.plan("select epc, rtime from r where rtime >= 5 "
                   "order by epc, rtime")
    assert len(materialize(plan)) == 15
    counts = defaultdict(float)
    statements._count_execution(plan, counts, before)
    assert set(counts) == COUNTER_KEYS
    assert counts["exec.rows_emitted"] > 0
    assert counts["exec.rows_sorted"] == 15
    # Stubs: the executor has no encoded columns to count or decode.
    assert counts["exec.encoded_columns"] == 0
    assert counts["exec.decode_fallbacks"] == 0


def test_encode_stats_is_two_zeros_and_bytes_saved():
    encoded_columns, decode_fallbacks, bytes_saved = encode_stats()
    assert (encoded_columns, decode_fallbacks) == (0, 0)
    assert isinstance(bytes_saved, int) and bytes_saved >= 0


def test_waterfall_batch_leg_knob_stays_known(monkeypatch):
    """The waterfall's ``batch`` leg sets ``REPRO_ENCODE=0``; the knob
    still exists (it picks the heap-page layout on disk), so the leg
    must not trip ``UnknownKnobWarning``."""
    import bench.worker as worker

    assert dict(worker.WATERFALL)["batch"] == {"REPRO_ENCODE": "0"}
    monkeypatch.setenv("REPRO_ENCODE", "0")
    monkeypatch.setattr(knobs, "_validated", False)  # restored afterwards
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert knobs.validate_environment(force=True) == []


def test_forced_batch_size_zero_is_a_silent_no_op(monkeypatch):
    """``bench/statements.py`` wraps every oracle query in
    ``forced_batch_size(0)``; with no tuple-at-a-time mode left, the
    call must change nothing and say nothing."""
    for ambient in (None, "64"):
        if ambient is None:
            monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        else:
            monkeypatch.setenv("REPRO_BATCH_SIZE", ambient)
        before = dict(os.environ)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with forced_batch_size(0):
                assert dict(os.environ) == before
        assert dict(os.environ) == before


def test_disk_workload_policy_and_storage_counters(tmp_path):
    """``DiskIngestQuery.policy`` and ``worker._storage_metrics`` read
    the disk storage's settings and every counter they difference."""
    from bench.worker import _storage_metrics
    from bench.workloads import SELFTEST_PINS, DiskIngestQuery

    workload = DiskIngestQuery(0, SELFTEST_PINS["disk_ingest_query"], 1)
    workload.path = str(tmp_path / "db")
    workload.database = Database(storage="disk",
                                 storage_path=workload.path)
    try:
        database = workload.database
        policy = workload.policy()
        assert policy["group_commit_count"] == 0
        assert policy["readahead_pages"] == 0
        assert policy["zone_prune"] is False
        assert policy["wal_fsync"] is True
        database.create_table("caser", READS)
        database.load("caser", [(f"e{i}", i, "r1", "loc", "step")
                                for i in range(10)])
        database.checkpoint()
        before = database.storage.counters
        database.append("caser", [("e0", 99, "r1", "loc", "step")])
        metrics = _storage_metrics(workload, before,
                                   database.storage.counters, 1, None)
        for stub in ("pages_pruned", "prefetch_hits", "prefetch_wasted",
                     "group_syncs"):
            assert metrics[f"storage.{stub}"] == 0.0
        assert metrics["storage.wal_syncs"] == 1.0
        assert metrics["disk_bytes_per_row"] > 0
    finally:
        workload.teardown()


def test_cleansed_query_oracle_is_the_naive_rewrite():
    from bench.statements import CleansedQuery

    db = make_reads_db([("e1", 10, "r1", "dock", "s"),
                        ("e1", 12, "r1", "dock", "s"),
                        ("e1", 400, "r2", "shelf", "s"),
                        ("e2", 20, "r1", "dock", "s")])
    registry = RuleRegistry(db)
    registry.define("DEFINE dup ON r CLUSTER BY epc SEQUENCE BY rtime\n"
                    "AS (A, B)\n"
                    "WHERE b.rtime - a.rtime < 10 AND a.biz_loc = b.biz_loc\n"
                    "ACTION DELETE B")
    engine = DeferredCleansingEngine(db, registry)
    sql = "select epc, rtime, biz_loc from r where rtime <= 300"
    expected = engine.execute(sql, {"naive"}).canonical()
    assert CleansedQuery("q", engine, sql).oracle() == expected
    assert len(expected) == 2  # the duplicate read at t=12 is cleansed
