"""Fixpoint rule application: arbitrary-length cycles and convergence."""

import pytest

from repro.errors import RuleError
from repro.minidb import Database
from repro.sqlts import compile_rule, parse_rule
from repro.sqlts.fixpoint import apply_to_fixpoint
from tests.conftest import READS, make_reads_db

CYCLE = compile_rule(parse_rule("""
    DEFINE cyc ON r CLUSTER BY epc SEQUENCE BY rtime
    AS (A, B, C) WHERE A.biz_loc = C.biz_loc AND A.biz_loc != B.biz_loc
    ACTION DELETE B"""))

DUPLICATE = compile_rule(parse_rule("""
    DEFINE dup ON r CLUSTER BY epc SEQUENCE BY rtime
    AS (A, B) WHERE A.biz_loc = B.biz_loc
    ACTION DELETE B"""))


def locations(result):
    position = result.result.columns.index("biz_loc")
    return [row[position] for row in result.result.rows]


def db_with_locations(locs):
    return make_reads_db([("e1", i * 100, "rd", loc, "s")
                          for i, loc in enumerate(locs)])


class TestArbitraryCycles:
    def test_single_pass_suffices_for_xyx(self):
        db = db_with_locations(["X", "Y", "X"])
        result = apply_to_fixpoint(db, [CYCLE], "r")
        assert result.converged
        assert result.iterations == 2  # one change + one confirming pass
        assert locations(result) == ["X", "X"]

    def test_nested_cycle_needs_iteration(self):
        # [X Y Z Y X]: one pass removes Z (Y_Z_Y); the next sees [X Y Y X]
        # (no flanked rows: Y's neighbours are X,Y and Y,X)... the nested
        # X-cycle emerges only after deduplication, so combine both rules.
        db = db_with_locations(["X", "Y", "Z", "Y", "X"])
        result = apply_to_fixpoint(db, [CYCLE, DUPLICATE], "r")
        assert result.converged
        assert locations(result) == ["X"]

    def test_long_alternation_collapses(self):
        db = db_with_locations(["X", "Y"] * 5)
        result = apply_to_fixpoint(db, [CYCLE], "r")
        assert result.converged
        assert locations(result) == ["X", "Y"]

    def test_stable_input_converges_in_one_pass(self):
        db = db_with_locations(["X", "Y", "Z"])
        result = apply_to_fixpoint(db, [CYCLE], "r")
        assert result.converged
        assert result.iterations == 1
        assert locations(result) == ["X", "Y", "Z"]

    def test_source_table_untouched(self):
        db = db_with_locations(["X", "Y", "X"])
        apply_to_fixpoint(db, [CYCLE], "r")
        assert len(db.table("r")) == 3
        assert db.catalog.table_names() == ["r"]

    def test_iteration_bound(self):
        db = db_with_locations(["X", "Y"] * 8)
        result = apply_to_fixpoint(db, [CYCLE], "r", max_iterations=1)
        assert not result.converged
        assert result.iterations == 1

    def test_requires_rules(self):
        db = db_with_locations(["X"])
        with pytest.raises(RuleError):
            apply_to_fixpoint(db, [], "r")

    def test_modify_rules_supported(self):
        relabel = compile_rule(parse_rule("""
            DEFINE relabel ON r CLUSTER BY epc SEQUENCE BY rtime
            AS (A, B) WHERE A.biz_loc = 'X' AND B.biz_loc = 'Y'
            ACTION MODIFY A.biz_loc = 'Y'"""))
        # X X X Y -> each pass turns the X adjacent to a Y into Y.
        db = db_with_locations(["X", "X", "X", "Y"])
        result = apply_to_fixpoint(db, [relabel], "r")
        assert result.converged
        assert locations(result) == ["Y", "Y", "Y", "Y"]


def test_disk_database_logs_nothing_and_keeps_its_catalog(tmp_path):
    """The scratch table is private: iterating to fixpoint on a disk
    database writes no WAL byte and adds no table, even transiently."""
    with Database(storage="disk", storage_path=str(tmp_path / "db")) as db:
        db.create_table("r", READS)
        db.load("r", [("e1", i * 100, "rd", loc, "s")
                      for i, loc in enumerate(["X", "Y", "Z", "Y", "X"])])
        wal_bytes = db.storage.wal.bytes_written
        catalog_version = db.catalog.version
        result = apply_to_fixpoint(db, [CYCLE, DUPLICATE], "r")
        assert result.converged and result.iterations > 2
        assert locations(result) == ["X"]
        assert db.storage.wal.bytes_written == wal_bytes
        assert db.catalog.version == catalog_version
        assert db.catalog.table_names() == ["r"]
