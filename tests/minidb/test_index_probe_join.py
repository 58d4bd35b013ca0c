"""Hash joins that fetch their probe side through an index.

A dimension table scanned only to be probed against a short build side
is read at the positions its index returns for the built keys instead
(``HashJoinOp`` / ``SeqScan.keyed_batches``). Every test here compares
rows *and their order* with the full-scan path, which is forced by
raising the rows-per-key threshold out of reach.
"""

from __future__ import annotations

from repro.datagen import GeneratorConfig
from repro.datagen.generator import RFIDGen
from repro.datagen.loader import load_into_database
from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.plan import physical
from repro.minidb.plan.physical import HashJoinOp, SeqScan
from repro.minidb.vector import materialize
from repro.rewrite import DeferredCleansingEngine
from repro.workloads import make_registry

DIM_ROWS = 640

JOIN = "select f.v, d.label from f, d where f.k = d.k"


def _database(fact_rows, dim_rows=None, *, fact_type=SqlType.INTEGER,
              storage="memory", **options) -> Database:
    """``d(k, label, w)`` indexed on ``k`` and a short ``f(k, v)``, in
    memory whatever ``REPRO_STORAGE`` says, unless *storage* is given."""
    db = Database(storage=storage, **options)
    db.create_table("d", TableSchema.of(
        ("k", SqlType.INTEGER), ("label", SqlType.VARCHAR),
        ("w", SqlType.INTEGER)))
    db.load("d", dim_rows if dim_rows is not None else
            [(i % 320, f"l{i}", i) for i in range(DIM_ROWS)])
    db.create_index("d", "k")
    db.create_table("f", TableSchema.of(("k", fact_type),
                                        ("v", SqlType.INTEGER)))
    db.load("f", fact_rows)
    db.analyze()
    return db


def _probe_scan(plan) -> SeqScan:
    """The plain scan a hash join probes (the dimension here)."""
    joins = [node for node in plan.walk() if isinstance(node, HashJoinOp)]
    assert len(joins) == 1
    assert isinstance(joins[0].left, SeqScan)
    return joins[0].left


def _run(plan, runner=materialize) -> tuple[list[tuple], int]:
    plan.reset_metrics()
    rows = runner(plan)
    return rows, _probe_scan(plan).actual_rows


def _both_paths(plan, monkeypatch, runner=materialize):
    """(probed rows, rows the probe side read) for the index path and
    for the forced full scan."""
    probed = _run(plan, runner)
    with monkeypatch.context() as patch:
        patch.setattr(physical, "_ROWS_PER_PROBED_KEY", 10 ** 9)
        scanned = _run(plan, runner)
    return probed, scanned


class TestSameRowsSameOrder:
    def test_duplicate_keys_on_both_sides(self, monkeypatch):
        db = _database([(7, 1), (3, 2), (7, 3), (3, 4), (11, 5)])
        plan = db.plan(JOIN)
        (rows, read), (expected, scanned) = _both_paths(plan, monkeypatch)
        assert rows == expected
        assert len(rows) == 10  # two f rows x two d rows per key, + 11
        assert read == 6 and scanned == DIM_ROWS

    def test_null_keys(self, monkeypatch):
        dim = [(None if i % 7 == 0 else i % 320, f"l{i}", i)
               for i in range(DIM_ROWS)]
        db = _database([(None, 1), (5, 2), (None, 3), (14, 4)], dim)
        plan = db.plan(JOIN)
        (rows, read), (expected, _) = _both_paths(plan, monkeypatch)
        assert rows == expected
        assert all(v in (2, 4) for v, _ in rows)
        assert read == len(rows)

    def test_mixed_integer_and_float_keys(self, monkeypatch):
        db = _database([(1.0, 1), (2.5, 2), (3, 3), (-0.0, 4)],
                       fact_type=SqlType.DOUBLE)
        plan = db.plan(JOIN)
        (rows, read), (expected, _) = _both_paths(plan, monkeypatch)
        assert rows == expected
        assert sorted({v for v, _ in rows}) == [1, 3, 4]
        assert read == 6

    def test_residual_predicate(self, monkeypatch):
        db = _database([(7, 300), (9, 5), (12, 400)])
        plan = db.plan("select f.v, d.w from f, d "
                       "where f.k = d.k and d.w < f.v")
        join = next(node for node in plan.walk()
                    if isinstance(node, HashJoinOp))
        assert join.residual_expr is not None
        (rows, read), (expected, _) = _both_paths(plan, monkeypatch)
        assert rows == expected
        assert rows == [(300, 7), (400, 12), (400, 332)]
        assert read == 6

    def test_pinned_snapshot_ignores_later_dimension_appends(
            self, monkeypatch):
        db = _database([(7, 1), (8, 2)])
        with db.snapshot() as snap:
            db.append("d", [(7, "late", 1), (8, "late", 2)])
            plan = snap.plan(JOIN)  # memoized: execute() runs this plan
            (rows, read), (expected, _) = _both_paths(
                plan, monkeypatch, lambda _: snap.execute(JOIN).rows)
            assert rows == expected
            assert "late" not in {label for _, label in rows}
            assert read == 4
        live = db.execute(JOIN).rows
        assert sum(label == "late" for _, label in live) == 2

    def test_disk_storage(self, monkeypatch, tmp_path):
        # Indexes are rebuilt on open, so a reopened disk table probes
        # like a memory one.
        fact = [(7, 1), (3, 2), (7, 3)]
        path = str(tmp_path / "db")
        _database(fact, storage="disk", storage_path=path).shutdown()
        db = Database(storage="disk", storage_path=path)
        try:
            plan = db.plan(JOIN)
            (rows, read), (expected, scanned) = _both_paths(plan,
                                                            monkeypatch)
            assert rows == expected == _database(fact).execute(JOIN).rows
            assert read == 4 and scanned == DIM_ROWS
        finally:
            db.shutdown()


class TestKeepsTheScan:
    def test_left_join(self):
        db = _database([(7, 1)])
        plan = db.plan("select d.label, f.v from d left join f "
                       "on d.k = f.k")
        _, read = _run(plan)
        assert read == DIM_ROWS

    def test_too_many_keys_for_the_table(self):
        db = _database([(k, k) for k in range(0, 320, 10)])  # 32 keys
        plan = db.plan(JOIN)
        _, read = _run(plan)
        assert read == DIM_ROWS  # 640 rows < 32 keys x 32 rows per key

    def test_nan_build_key(self):
        # NaN equals nothing, so an ordered index lookup cannot serve it.
        db = _database([(float("nan"), 1), (7, 2)],
                       fact_type=SqlType.DOUBLE)
        plan = db.plan(JOIN)
        rows, read = _run(plan)
        assert read == DIM_ROWS
        assert rows == [(2, "l7"), (2, "l327")]


class TestTraceReadsOnlyItsLocations:
    """A single-EPC cleansed trace joins a handful of reads to the
    location dimension; the dimension scan reads exactly the locations
    the trace visits, not the whole table."""

    CONFIG = GeneratorConfig(scale=2, seed=5, anomaly_percent=10.0,
                             stores=10, warehouses=5,
                             distribution_centers=3, locations_per_site=100,
                             products=20, manufacturers=5,
                             min_cases_per_pallet=2, max_cases_per_pallet=4)

    def test_single_epc_trace(self):
        data = RFIDGen(self.CONFIG).generate()
        db = load_into_database(data, Database(storage="memory"))
        try:
            engine = DeferredCleansingEngine(
                db, make_registry(None, data,
                                  ("reader", "duplicate", "replacing")))
            epc = sorted({row[0] for row in data.case_reads})[0]
            result = engine.rewrite(
                f"select c.rtime, l.loc_desc, s.type "
                f"from caser c, locs l, steps s "
                f"where c.epc = '{epc}' and c.biz_loc = l.gln "
                f"and c.biz_step = s.biz_step")
            rows = materialize(result.physical)
            visited = {loc for loc, in engine.execute(
                f"select biz_loc from caser where epc = '{epc}'").rows}
            scans = [node for node in result.physical.walk()
                     if isinstance(node, SeqScan)
                     and node.table.name == "locs"]
            assert len(scans) == 1
            assert len(db.table("locs")) == 1800
            assert rows and scans[0].actual_rows == len(visited)
        finally:
            db.shutdown()
