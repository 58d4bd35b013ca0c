"""Region-cache patching: decisions, splice identity, determinism.

An append to the reads table no longer discards warm cleansing regions:
the cache consults the table's delta log and re-cleanses only the dirty
cluster-key sequences, splicing them over the cached clean ones. These
tests pin the patch-vs-invalidate decision tree (NULL cluster keys,
MODIFY-ed cluster keys, threshold overruns, truncated history) and the
headline guarantee: the patched region and query results are
byte-identical to a cold full recompute, at both batch settings.
"""

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.sqlparse import parse_expression
from repro.minidb.table import _DELTA_LOG_LIMIT
from repro.minidb.types import sort_key
from repro.rewrite import DeferredCleansingEngine
from repro.rewrite.cache import CacheOptions, CleansingRegionCache
from repro.sqlts import RuleRegistry

SCHEMA = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("reader", SqlType.VARCHAR),
    ("biz_loc", SqlType.VARCHAR),
)

RULES = {
    "duplicate": """
        DEFINE duplicate ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 50
        ACTION DELETE B""",
    "reader": """
        DEFINE reader ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, *B) WHERE B.reader = 'rx' AND B.rtime - A.rtime < 60
        ACTION DELETE A""",
    "retag": """
        DEFINE retag ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 40
        ACTION MODIFY B.epc = 'retagged'""",
}


def base_rows(epcs=12, per_epc=8):
    return [(f"e{e:02d}", e * 7 + t * 25,
             "rx" if (e + t) % 5 == 0 else f"r{t % 3}",
             ["l1", "l2", "la", "lb"][(e + t) % 4])
            for e in range(epcs) for t in range(per_epc)]


def make_engines(rows, rule_names=("reader", "duplicate"), **cache_kwargs):
    db = Database()
    db.create_table("r", SCHEMA)
    db.load("r", rows)
    db.create_index("r", "rtime")
    registry = RuleRegistry()
    for name in rule_names:
        registry.define(RULES[name])
    cached = DeferredCleansingEngine(db, registry,
                                     cache=CacheOptions(**cache_kwargs))
    plain = DeferredCleansingEngine(db, registry)
    return db, cached, plain


SQL = "select epc, rtime, reader, biz_loc from r where rtime <= 250"


def only_entry(engine):
    (entry,) = engine.region_cache._entries.values()
    return entry


class TestPatchDecision:
    def test_small_append_patches_and_recleans_only_dirty(self):
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        db.append("r", [("e00", 55, "r0", "l1"),    # existing sequence
                        ("e99", 60, "r1", "l2")])   # brand-new sequence
        result, metrics, _ = cached.execute_with_metrics(SQL)
        assert sorted(result.rows) == sorted(plain.execute(SQL).rows)
        assert metrics.cache_patches == 1
        assert metrics.sequences_recleaned == 2  # exactly the dirty ones
        assert metrics.delta_epochs_applied == 1
        assert cached.region_cache.invalidations == 0

    def test_null_cluster_key_append_invalidates(self):
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        db.append("r", [(None, 55, "r0", "l1")])

        def canon(rows):
            return sorted(rows, key=lambda row: tuple(
                sort_key(value) for value in row))

        assert canon(cached.execute(SQL).rows) == \
            canon(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 0
        assert cached.region_cache.invalidations == 1
        assert cached.region_cache.stores == 2  # re-materialized

    def test_modified_cluster_key_invalidates(self):
        db, cached, plain = make_engines(base_rows(),
                                         rule_names=("retag",))
        cached.execute(SQL)
        assert only_entry(cached).cluster_key_modified
        db.append("r", [("e00", 55, "r0", "l1")])
        assert sorted(cached.execute(SQL).rows) == \
            sorted(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 0
        assert cached.region_cache.invalidations == 1

    def test_too_many_dirty_keys_invalidates(self):
        db, cached, plain = make_engines(base_rows(), max_patch_keys=2)
        cached.execute(SQL)
        db.append("r", [(f"n{i}", 60 + i, "r0", "l1") for i in range(3)])
        assert sorted(cached.execute(SQL).rows) == \
            sorted(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 0
        assert cached.region_cache.invalidations == 1

    def test_truncated_delta_history_invalidates(self):
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        table = db.table("r")
        for i in range(_DELTA_LOG_LIMIT + 1):
            table.insert((f"e{i % 3:02d}", 1000 + i, "r0", "l1"))
        db.analyze("r")
        assert sorted(cached.execute(SQL).rows) == \
            sorted(plain.execute(SQL).rows)
        assert cached.region_cache.patches == 0
        assert cached.region_cache.invalidations == 1

    def test_patch_recomputes_under_entry_ec_not_probe_ec(self):
        # Warm a wide region, append, then probe with a narrower window:
        # the patch must re-cleanse the dirty sequence under the wide ec,
        # or the later wide probe would see a half-narrow region.
        wide = "select epc, rtime, reader, biz_loc from r where rtime <= 250"
        narrow = "select epc, rtime, reader, biz_loc from r where rtime <= 90"
        db, cached, plain = make_engines(base_rows())
        cached.execute(wide)
        db.append("r", [("e00", 55, "r0", "l1"), ("e00", 200, "r1", "l2")])
        assert sorted(cached.execute(narrow).rows) == \
            sorted(plain.execute(narrow).rows)
        assert cached.region_cache.patches == 1
        assert sorted(cached.execute(wide).rows) == \
            sorted(plain.execute(wide).rows)
        assert cached.region_cache.stores == 1  # never re-materialized

    def test_schema_only_staleness_stays_warm(self):
        # An index creation bumps the schema epoch but appends no rows:
        # staleness is keyed on the *data* epoch, so the entry is not
        # even considered stale — it serves warm with zero patching and
        # zero re-cleansing.
        db, cached, plain = make_engines(base_rows())
        cached.execute(SQL)
        db.create_index("r", "biz_loc")
        result, metrics, _ = cached.execute_with_metrics(SQL)
        assert sorted(result.rows) == sorted(plain.execute(SQL).rows)
        assert metrics.cache_patches == 0
        assert metrics.sequences_recleaned == 0
        assert cached.region_cache.invalidations == 0
        assert cached.region_cache.stores == 1  # never re-materialized


class TestDirectCacheLookup:
    """Unit-level: lookup() with and without a patcher."""

    def _db_and_cache(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", base_rows())
        cache = CleansingRegionCache(db)
        table = db.table("r")
        ec = (parse_expression("rtime <= 250"),)
        rows = sorted(
            (row for row in table.rows if row[1] <= 250),
            key=lambda row: (row[0], row[1]))
        cache.store(table, ("k",), ec, rows, cluster_key="epc")
        return db, cache, table, ec

    def test_without_patcher_stale_entry_drops(self):
        db, cache, table, ec = self._db_and_cache()
        table.append_rows([("e00", 55, "r0", "l1")])
        assert cache.lookup(table, ("k",), ec) is None
        assert cache.invalidations == 1

    def test_patcher_receives_dirty_values_and_entry(self):
        db, cache, table, ec = self._db_and_cache()
        table.append_rows([("e03", 55, "r0", "l1"),
                           ("e01", 60, "r0", "l1")])
        calls = []

        def patcher(entry, dirty_values):
            calls.append((entry.cluster_key, list(dirty_values)))
            return [row for row in table.rows
                    if row[0] in dirty_values and row[1] <= 250]

        entry = cache.lookup(table, ("k",), ec, patcher=patcher)
        assert entry is not None
        assert calls == [("epc", ["e01", "e03"])]  # sorted dirty keys
        assert cache.patches == 1 and cache.sequences_recleaned == 2

    def test_patched_rows_replace_dirty_runs_in_key_order(self):
        db, cache, table, ec = self._db_and_cache()
        table.append_rows([("e03", 41, "r9", "l9")])

        def patcher(entry, dirty_values):
            return [row for row in sorted(table.rows,
                                          key=lambda r: (r[0], r[1]))
                    if row[0] in dirty_values and row[1] <= 250]

        entry = cache.lookup(table, ("k",), ec, patcher=patcher)
        rows = entry.table.rows
        expected = sorted(
            (row for row in table.rows if row[1] <= 250),
            key=lambda row: (row[0], row[1]))
        assert rows == expected  # splice == full recompute, key order kept

    def test_unsorted_region_declines_patch(self):
        db = Database()
        db.create_table("r", SCHEMA)
        db.load("r", base_rows())
        cache = CleansingRegionCache(db)
        table = db.table("r")
        ec = (parse_expression("rtime <= 250"),)
        rows = [row for row in table.rows if row[1] <= 250]
        rows.reverse()  # NOT sorted by cluster key: no contiguous runs
        cache.store(table, ("k",), ec, rows, cluster_key="epc")
        table.append_rows([("e00", 55, "r0", "l1")])
        assert cache.lookup(table, ("k",), ec,
                            patcher=lambda e, d: []) is None
        assert cache.patches == 0 and cache.invalidations == 1


@pytest.mark.parametrize("batch", [0, 7])
def test_patched_region_byte_identical_to_cold(monkeypatch, batch):
    """Determinism: incremental == full recompute, byte for byte.

    Two engines over the same data history — one queries between appends
    (so its region is patched twice), one only queries at the end (cold
    full cleanse). The materialized regions and the final result rows
    must be identical at the default batch size (``batch=0`` leaves the
    knob unset) and at a small odd one.
    """
    if batch:
        monkeypatch.setenv("REPRO_BATCH_SIZE", str(batch))
    else:
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)

    prefix = base_rows(epcs=30, per_epc=10)
    chunks = [
        [("e00", 53, "r0", "l1"), ("x01", 60, "rx", "l2")],
        [("x01", 95, "r1", "la"), ("e07", 101, "r2", "lb")],
    ]
    sql = "select epc, rtime, reader, biz_loc from r where rtime <= 400"

    db_inc, incremental, _ = make_engines(prefix)
    incremental.execute(sql)
    for chunk in chunks:
        db_inc.append("r", chunk)
        incremental.execute(sql)
    patched_region = list(only_entry(incremental).table.rows)
    patched_rows = incremental.execute(sql).rows
    assert incremental.region_cache.patches == len(chunks)
    assert incremental.region_cache.stores == 1

    db_cold, cold, _ = make_engines(prefix)
    for chunk in chunks:
        db_cold.append("r", chunk)
    cold_rows = cold.execute(sql).rows
    cold_region = list(only_entry(cold).table.rows)

    assert patched_region == cold_region
    assert patched_rows == cold_rows
