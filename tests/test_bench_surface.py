"""The frozen benchmark's import surface, checked by tier-1.

``bench/`` may not change in a PR that touches ``src/``, so whatever it
imports from ``src/`` and reads off ``ExecutionMetrics`` has to keep
working. Without this test a deletion in ``src/`` that breaks it is
found by the benchmark pipeline, not by ``pytest``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.minidb.vector import encode_stats, materialize

from tests.conftest import make_reads_db

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
