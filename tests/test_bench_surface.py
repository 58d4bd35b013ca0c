"""The frozen benchmark's import surface, checked by tier-1.

``bench/`` may not change in a PR that touches ``src/``, so whatever it
imports from ``src/`` and reads off ``ExecutionMetrics`` has to keep
working. Without this test a deletion in ``src/`` that breaks it is
found by the benchmark pipeline, not by ``pytest``.
"""

from __future__ import annotations

import warnings
from collections import defaultdict

from repro import knobs
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
