"""Cleansing-region cache: subsumption, correctness, invalidation.

The cache serves Φ_C(σ_ec(R)) materializations to later queries whose
cleansing region is provably contained in a cached one (predicate
subsumption via the difference-closure machinery). Correctness demands
that a cache hit is *observationally invisible*: identical rows to a
cold rewrite, and staleness detected whenever the base table changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.sqlparse import parse_expression
from repro.rewrite import DeferredCleansingEngine
from repro.rewrite.cache import (
    CacheOptions,
    CleansingRegionCache,
    conjunction_implies,
)
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
    "replacing": """
        DEFINE replacing ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = 'l2' AND B.biz_loc = 'la'
          AND B.rtime - A.rtime < 80
        ACTION MODIFY A.biz_loc = 'l1'""",
    "cycle": """
        DEFINE cycle ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B, C) WHERE A.biz_loc = C.biz_loc AND A.biz_loc != B.biz_loc
        ACTION DELETE B""",
}

ROW = st.tuples(
    st.sampled_from(["e1", "e2", "e3"]),
    st.integers(0, 400),
    st.sampled_from(["r0", "r1", "rx"]),
    st.sampled_from(["l1", "l2", "la", "lb"]),
)


def _unique_sequence_times(rows):
    seen = set()
    out = []
    for row in rows:
        if (row[0], row[1]) in seen:
            continue
        seen.add((row[0], row[1]))
        out.append(row)
    return out


def make_engines(rows, rule_names):
    """One database shared by a cached and an uncached engine."""
    db = Database()
    db.create_table("r", SCHEMA)
    db.load("r", rows)
    db.create_index("r", "rtime")
    registry = RuleRegistry()
    for name in rule_names:
        registry.define(RULES[name])
    cached = DeferredCleansingEngine(db, registry, cache=CacheOptions())
    plain = DeferredCleansingEngine(db, registry)
    return db, cached, plain


def q(predicate):
    suffix = f" where {predicate}" if predicate else ""
    return f"select epc, rtime, reader, biz_loc from r{suffix}"


class TestConjunctionImplies:
    def imp(self, facts, goals):
        return conjunction_implies(
            [parse_expression(f) for f in facts],
            [parse_expression(g) for g in goals])

    def test_structural_and_reflexive(self):
        assert self.imp(["rtime <= 100"], ["rtime <= 100"])
        assert self.imp(["biz_loc = 'l1'"], ["biz_loc = 'l1'"])

    def test_range_tightening(self):
        assert self.imp(["rtime <= 100"], ["rtime <= 200"])
        assert self.imp(["rtime < 100"], ["rtime <= 100"])
        assert self.imp(["rtime >= 50"], ["rtime >= 10"])
        assert not self.imp(["rtime <= 200"], ["rtime <= 100"])
        assert not self.imp(["rtime <= 100"], ["rtime < 100"])

    def test_conjunction_of_goals_needs_every_goal(self):
        assert self.imp(["rtime <= 100", "rtime >= 10"],
                        ["rtime <= 150", "rtime >= 5"])
        assert not self.imp(["rtime <= 100"],
                            ["rtime <= 150", "rtime >= 5"])

    def test_disjunctive_goal(self):
        assert self.imp(["rtime <= 100"],
                        ["rtime <= 150 or biz_loc = 'l1'"])

    def test_disjunctive_fact_case_split(self):
        assert self.imp(["rtime <= 50 or rtime <= 90"], ["rtime <= 100"])
        assert not self.imp(["rtime <= 50 or rtime <= 300"],
                            ["rtime <= 100"])

    def test_unrelated_columns_decline(self):
        # Sound but incomplete: unknown structure must answer False.
        assert not self.imp(["reader = 'r1'"], ["rtime <= 100"])


ROWS = [("e1", t, "r0" if t % 3 else "rx", loc)
        for t, loc in zip(range(0, 400, 10),
                          ["l1", "l2", "la", "lb"] * 10)]


class TestRegionCacheHits:
    def test_narrower_window_hits_and_matches(self):
        db, cached, plain = make_engines(ROWS, ("reader", "duplicate"))
        wide, narrow = q("rtime <= 300"), q("rtime <= 120")

        assert sorted(cached.execute(wide).rows) == \
            sorted(plain.execute(wide).rows)
        cache = cached.region_cache
        assert cache.stores == 1 and cache.misses == 1

        assert sorted(cached.execute(narrow).rows) == \
            sorted(plain.execute(narrow).rows)
        assert cache.hits == 1

    def test_wider_window_is_a_miss(self):
        db, cached, plain = make_engines(ROWS, ("duplicate",))
        cached.execute(q("rtime <= 100"))
        assert sorted(cached.execute(q("rtime <= 300")).rows) == \
            sorted(plain.execute(q("rtime <= 300")).rows)
        assert cached.region_cache.hits == 0
        assert cached.region_cache.stores == 2

    def test_insert_patches_instead_of_invalidating(self):
        db, cached, plain = make_engines(ROWS, ("reader", "duplicate"))
        sql = q("rtime <= 300")
        cached.execute(sql)
        cached.execute(sql)
        cache = cached.region_cache
        assert cache.hits == 1

        db.run("insert into r values ('e9', 155, 'rx', 'la')")

        # The appended row dirties one new sequence; the rows past the
        # region's row count let the cache re-cleanse just that sequence
        # and splice it in.
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)
        assert cache.invalidations == 0
        assert cache.patches == 1
        assert cache.sequences_recleaned == 1
        assert cache.hits == 2  # the patched entry was served

    def test_infeasible_rules_bypass_cache(self):
        db, cached, plain = make_engines(ROWS, ("cycle",))
        sql = q("rtime <= 300")
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)
        assert len(cached.region_cache) == 0

    def test_disabled_cache_has_no_region_cache(self):
        db, _, plain = make_engines(ROWS, ("duplicate",))
        disabled = DeferredCleansingEngine(db, plain.registry, cache=None)
        assert disabled.region_cache is None
        sql = q("rtime <= 300")
        assert sorted(disabled.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)


def _no_patch(entry, dirty_values):
    raise AssertionError("no region here can be patched")


def _cache_db():
    db = Database()
    db.create_table("r", SCHEMA)
    db.load("r", ROWS)
    db.create_index("r", "rtime")
    return db


class TestEviction:
    def test_lru_entry_count_budget(self):
        db = _cache_db()
        table = db.catalog.table("r")
        cache = CleansingRegionCache(db, CacheOptions(max_entries=2))
        rows = [tuple(r) for r in ROWS]
        # Distinct rule keys so the entries can never subsume each other.
        evicted, _, kept = [
            cache.store(table, (key,),
                        (parse_expression("rtime <= 300"),), rows)
            for key in ("a", "b", "c")]
        assert len(cache) == 2
        assert cache.evictions == 1
        # The oldest entry ("a") was evicted; its statistics went too.
        assert cache.lookup(table, ("a",),
                            (parse_expression("rtime <= 300"),),
                            patcher=_no_patch) is None
        assert cache.lookup(table, ("c",),
                            (parse_expression("rtime <= 100"),),
                            patcher=_no_patch) is not None
        assert db.stats.get(evicted.table.name) is None
        assert db.stats.get(kept.table.name).row_count == len(rows)
        # No region is ever in the catalog.
        assert db.catalog.table_names() == ["r"]

    def test_byte_budget_rejects_oversized_region(self):
        db = _cache_db()
        cache = CleansingRegionCache(db, CacheOptions(max_bytes=1))
        stored = cache.store(db.catalog.table("r"), ("duplicate",),
                             (parse_expression("rtime <= 300"),),
                             [tuple(r) for r in ROWS])
        assert stored is None
        assert len(cache) == 0


PREDS = st.sampled_from(["rtime <= {t}", "rtime <= {t} and reader != 'r1'"])


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(ROW, min_size=0, max_size=30)
       .map(_unique_sequence_times),
       rule_names=st.lists(st.sampled_from(sorted(RULES)), min_size=1,
                           max_size=2, unique=True),
       predicate=PREDS,
       t_wide=st.integers(100, 400),
       narrows=st.lists(st.integers(0, 400), min_size=1, max_size=4))
def test_cached_results_identical_to_cold(rows, rule_names, predicate,
                                          t_wide, narrows):
    """Property: with the cache on, every query — hit, cold store, or
    bypass — returns exactly the rows of an uncached engine."""
    db, cached, plain = make_engines(rows, rule_names)
    workload = [predicate.format(t=t_wide)]
    workload += [predicate.format(t=min(t, t_wide)) for t in narrows]
    for pred in workload:
        sql = q(pred)
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows), (pred, rule_names)


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(ROW, min_size=1, max_size=25)
       .map(_unique_sequence_times),
       extra=ROW, t=st.integers(50, 400))
def test_insert_invalidation_property(rows, extra, t):
    """Property: an INSERT between identical queries never yields stale
    rows."""
    db, cached, plain = make_engines(rows, ("reader", "duplicate"))
    sql = q(f"rtime <= {t}")
    cached.execute(sql)
    values = ", ".join(repr(v) for v in extra)
    db.run(f"insert into r values ({values})")
    assert sorted(cached.execute(sql).rows) == \
        sorted(plain.execute(sql).rows)


class TestInvalidationRaces:
    """Appends landing at every awkward point of the warm path.

    The cache records the source table's row count at store time and
    prunes on every lookup; these tests pin the equivalence guarantee
    when the append races the store/lookup/hit sequence rather than
    arriving between well-separated queries.
    """

    def test_bump_between_store_and_lookup(self):
        db = _cache_db()
        table = db.catalog.table("r")
        cache = CleansingRegionCache(db)
        ec = (parse_expression("rtime <= 300"),)
        entry = cache.store(table, ("duplicate",), ec,
                            [tuple(r) for r in ROWS])
        table.insert({"epc": "e9", "rtime": 401, "reader": "r0",
                      "biz_loc": "l1"})
        # Stored without a cluster key: no run index, so never patched.
        assert cache.lookup(table, ("duplicate",), ec,
                            patcher=_no_patch) is None
        assert cache.invalidations == 1
        # No region is ever in the catalog; the stale one's statistics
        # are gone.
        assert db.catalog.table_names() == ["r"]
        assert db.stats.get(entry.table.name) is None

    def test_bump_between_two_warm_hits(self):
        db, cached, plain = make_engines(ROWS, ("reader", "duplicate"))
        sql = q("rtime <= 300")
        cached.execute(sql)                      # cold store
        cached.execute(sql)                      # warm hit
        cache = cached.region_cache
        assert cache.hits == 1
        db.run("insert into r values ('e9', 155, 'rx', 'la')")
        # The next execution must not serve the stale rows as-is: the
        # entry is patched (dirty sequence re-cleansed) before serving.
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)
        assert cache.patches == 1 and cache.hits == 2
        assert cache.invalidations == 0
        # ... and the patched region keeps serving plain hits.
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)
        assert cache.hits == 3

    def test_every_interleaved_append_patches(self):
        db, cached, plain = make_engines(ROWS, ("reader", "duplicate"))
        sql = q("rtime <= 300")
        for step in range(3):
            cached.execute(sql)  # store (step 0) / warm hit (patched)
            db.run(f"insert into r values ('e{step}', {150 + step}, "
                   "'rx', 'la')")
            assert sorted(cached.execute(sql).rows) == \
                sorted(plain.execute(sql).rows), step
        # One cold store, then every post-insert execution patched the
        # same entry in place; no invalidation ever fired.
        assert cached.region_cache.invalidations == 0
        assert cached.region_cache.patches == 3
        assert cached.region_cache.hits == 5
        assert cached.region_cache.stores == 1

    def test_whole_region_dirty_invalidates_not_patches(self):
        # ROWS is a single sequence (epc e1); appending to it dirties
        # 100% of the region's sequences, over max_patch_fraction — the
        # patch-vs-invalidate decision must fall back to invalidation.
        db, cached, plain = make_engines(ROWS, ("reader", "duplicate"))
        cached.region_cache.options.max_patch_fraction = 0.4
        sql = q("rtime <= 300")
        cached.execute(sql)
        db.run("insert into r values ('e1', 155, 'rx', 'la')")
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)
        assert cached.region_cache.invalidations == 1
        assert cached.region_cache.patches == 0

    def test_load_append_patches(self):
        db, cached, plain = make_engines(ROWS, ("duplicate",))
        sql = q("rtime <= 300")
        cached.execute(sql)
        # a bulk load grows the table like an append, so a post-load
        # query patches rather than re-cleansing the whole region.
        db.load("r", [("e9", 42, "r0", "l1")])
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)
        assert cached.region_cache.invalidations == 0
        assert cached.region_cache.patches == 1

    def test_table_replacement_detected_without_version_bump(self):
        # Dropping and recreating the table yields a fresh object whose
        # version counter may coincide with the recorded one; staleness
        # must be detected by object identity, not the counter alone.
        db = _cache_db()
        table = db.catalog.table("r")
        cache = CleansingRegionCache(db)
        ec = (parse_expression("rtime <= 300"),)
        cache.store(table, ("duplicate",), ec, [tuple(r) for r in ROWS])
        db.drop_table("r")
        db.create_table("r", SCHEMA)
        db.load("r", ROWS)
        db.create_index("r", "rtime")
        replacement = db.catalog.table("r")
        assert replacement.version == table.version
        assert cache.lookup(replacement, ("duplicate",), ec,
                            patcher=_no_patch) is None
        assert cache.invalidations == 1

    def test_bump_through_second_engine_sharing_db(self):
        # A different engine (no cache) mutating the shared database
        # must still be seen by the cached engine's regions — the append
        # grows the shared table, so it patches.
        db, cached, plain = make_engines(ROWS, ("reader", "duplicate"))
        sql = q("rtime <= 300")
        cached.execute(sql)
        plain.database.run("insert into r values ('e9', 155, 'rx', 'la')")
        assert sorted(cached.execute(sql).rows) == \
            sorted(plain.execute(sql).rows)
        assert cached.region_cache.patches == 1
        assert cached.region_cache.invalidations == 0
