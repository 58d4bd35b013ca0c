"""Rule-compiler semantics: every §4.3 rule archetype applied to data.

Each test loads a tiny reads table, applies the compiled rule's plan
transform, and checks the exact surviving/modified rows. The SQL
template path is exercised by round-tripping the generated text through
the engine and comparing with the plan-transform result.
"""

import pytest

from repro.errors import RuleValidationError
from repro.minidb.plan.logical import LogicalScan, LogicalWindow
from repro.sqlts import compile_rule, parse_rule


def apply_rule(db, rule_text):
    compiled = compile_rule(parse_rule(rule_text))
    plan = compiled.apply(LogicalScan(db.table("r")))
    return compiled, db.execute(plan)


DUPLICATE = """
DEFINE dup ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 mins
ACTION DELETE B
"""


class TestDuplicateRule:
    ROWS = [
        ("e1", 0, "rd", "a", "s"),
        ("e1", 100, "rd", "a", "s"),    # dup of previous (within 300s)
        ("e1", 500, "rd", "a", "s"),    # same loc but gap too big
        ("e1", 600, "rd", "b", "s"),    # different loc
        ("e2", 0, "rd", "a", "s"),      # different sequence
    ]

    def test_deletes_only_close_duplicates(self, reads_db):
        db = reads_db(self.ROWS)
        _, result = apply_rule(db, DUPLICATE)
        assert [(r[0], r[1]) for r in result] == [
            ("e1", 0), ("e1", 500), ("e1", 600), ("e2", 0)]

    def test_first_read_of_sequence_kept(self, reads_db):
        db = reads_db([("e1", 0, "rd", "a", "s")])
        _, result = apply_rule(db, DUPLICATE)
        assert len(result) == 1

    def test_chain_of_duplicates_keeps_first(self, reads_db):
        db = reads_db([("e1", t, "rd", "a", "s") for t in (0, 100, 200)])
        _, result = apply_rule(db, DUPLICATE)
        assert [r[1] for r in result] == [0]

    def test_output_schema_matches_input(self, reads_db):
        db = reads_db(self.ROWS)
        _, result = apply_rule(db, DUPLICATE)
        assert result.columns == ["epc", "rtime", "reader", "biz_loc",
                                  "biz_step"]


READER = """
DEFINE rdr ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A, *B) WHERE B.reader = 'readerX' AND B.rtime - A.rtime < 10 mins
ACTION DELETE A
"""


class TestReaderRule:
    def test_deletes_reads_shortly_before_readerx(self, reads_db):
        db = reads_db([
            ("e1", 0, "r0", "a", "s"),       # 500s before readerX: delete
            ("e1", 500, "readerX", "b", "s"),
            ("e1", 1500, "r0", "c", "s"),    # after readerX: keep
            ("e2", 0, "r0", "a", "s"),       # no readerX in sequence
        ])
        _, result = apply_rule(db, READER)
        assert {(r[0], r[1]) for r in result} == {
            ("e1", 500), ("e1", 1500), ("e2", 0)}

    def test_window_bound_strict(self, reads_db):
        db = reads_db([
            ("e1", 0, "r0", "a", "s"),
            ("e1", 600, "readerX", "b", "s"),   # exactly 10 min later
        ])
        _, result = apply_rule(db, READER)
        # B.rtime - A.rtime < 600 is strict: the read survives.
        assert len(result) == 2

    def test_existential_requires_same_row_match(self, reads_db):
        # A later read by another reader within the window and a readerX
        # read outside it must NOT combine to delete the row.
        db = reads_db([
            ("e1", 0, "r0", "a", "s"),
            ("e1", 100, "r1", "b", "s"),
            ("e1", 5000, "readerX", "c", "s"),
        ])
        _, result = apply_rule(db, READER)
        assert ("e1", 0, "r0", "a", "s") in result.as_set()

    def test_compiles_to_range_frame(self):
        compiled = compile_rule(parse_rule(READER))
        (name, function), = compiled.window_columns
        assert function.frame.mode == "range"
        assert function.frame.start == 1
        assert function.frame.end == 599


REPLACING = """
DEFINE rep ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A, B)
WHERE A.biz_loc = 'loc2' AND B.biz_loc = 'locA'
  AND B.rtime - A.rtime < 20 mins
ACTION MODIFY A.biz_loc = 'loc1'
"""


class TestReplacingRule:
    def test_cross_read_relocated(self, reads_db):
        db = reads_db([
            ("e1", 0, "rd", "loc2", "s"),
            ("e1", 60, "rd", "locA", "s"),
        ])
        _, result = apply_rule(db, REPLACING)
        assert result.column("biz_loc") == ["loc1", "locA"]

    def test_no_modify_outside_window(self, reads_db):
        db = reads_db([
            ("e1", 0, "rd", "loc2", "s"),
            ("e1", 5000, "rd", "locA", "s"),
        ])
        _, result = apply_rule(db, REPLACING)
        assert result.column("biz_loc") == ["loc2", "locA"]

    def test_row_count_unchanged(self, reads_db):
        db = reads_db([
            ("e1", 0, "rd", "loc2", "s"),
            ("e1", 60, "rd", "locA", "s"),
            ("e2", 0, "rd", "x", "s"),
        ])
        _, result = apply_rule(db, REPLACING)
        assert len(result) == 3


CYCLE = """
DEFINE cyc ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A, B, C) WHERE A.biz_loc = C.biz_loc AND A.biz_loc != B.biz_loc
ACTION DELETE B
"""


class TestCycleRule:
    def test_xyx_collapses_middle(self, reads_db):
        db = reads_db([
            ("e1", 0, "rd", "X", "s"),
            ("e1", 100, "rd", "Y", "s"),
            ("e1", 200, "rd", "X", "s"),
        ])
        _, result = apply_rule(db, CYCLE)
        assert result.column("biz_loc") == ["X", "X"]

    def test_xyxyxy_reduces(self, reads_db):
        locs = ["X", "Y", "X", "Y", "X", "Y"]
        db = reads_db([("e1", i * 100, "rd", loc, "s")
                       for i, loc in enumerate(locs)])
        _, result = apply_rule(db, CYCLE)
        # Single application removes every read flanked by equal
        # neighbours: Y@1, X@2, Y@3, X@4 go; [X Y] remains.
        assert result.column("biz_loc") == ["X", "Y"]

    def test_no_cycle_untouched(self, reads_db):
        db = reads_db([("e1", i * 100, "rd", loc, "s")
                       for i, loc in enumerate(["X", "Y", "Z"])])
        _, result = apply_rule(db, CYCLE)
        assert len(result) == 3


KEEP = """
DEFINE keeper ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A) WHERE A.biz_loc = 'keepme'
ACTION KEEP A
"""


class TestKeepAndSingleReference:
    def test_keep_filters_to_matching_rows(self, reads_db):
        db = reads_db([
            ("e1", 0, "rd", "keepme", "s"),
            ("e1", 100, "rd", "other", "s"),
        ])
        compiled, result = apply_rule(db, KEEP)
        assert len(result) == 1
        # A single-reference rule needs no window computation at all.
        assert compiled.window_columns == []

    def test_keep_drops_unknown_condition_rows(self, reads_db):
        db = reads_db([("e1", 0, "rd", None, "s")])
        _, result = apply_rule(db, KEEP)
        assert len(result) == 0


class TestModifyCreatesColumns:
    def test_new_column_appended_with_default(self, reads_db):
        db = reads_db([
            ("e1", 0, "rd", "a", "s"),
            ("e1", 100, "rd", "a", "s"),
        ])
        compiled, result = apply_rule(db, """
            DEFINE flagger ON r CLUSTER BY epc SEQUENCE BY rtime
            AS (A, B) WHERE A.biz_loc = B.biz_loc
            ACTION MODIFY B.suspect = 1""")
        assert result.columns[-1] == "suspect"
        assert result.column("suspect") == [0, 1]


class TestCompilerErrors:
    def test_set_ref_cross_column_correlation_rejected(self):
        with pytest.raises(RuleValidationError, match="sequence-key"):
            compile_rule(parse_rule("""
                DEFINE bad ON r CLUSTER BY epc SEQUENCE BY rtime
                AS (A, *B) WHERE B.biz_loc = A.biz_loc
                ACTION DELETE A"""))

    def test_modify_cannot_read_set_reference(self):
        with pytest.raises(RuleValidationError, match="set reference"):
            compile_rule(parse_rule("""
                DEFINE bad ON r CLUSTER BY epc SEQUENCE BY rtime
                AS (A, *B) WHERE B.rtime - A.rtime < 5 mins
                ACTION MODIFY A.biz_loc = B.biz_loc"""))

    def test_aux_collision_detected_at_apply(self, reads_db):
        compiled = compile_rule(parse_rule(DUPLICATE))
        aux_name = compiled.window_columns[0][0]
        from repro.minidb import Database, SqlType, TableSchema
        db = Database()
        db.create_table("r", TableSchema.of(
            ("epc", SqlType.VARCHAR), ("rtime", SqlType.TIMESTAMP),
            ("biz_loc", SqlType.VARCHAR), (aux_name, SqlType.INTEGER)))
        with pytest.raises(RuleValidationError, match="collides"):
            compiled.apply(LogicalScan(db.table("r")))


BRACED = """
DEFINE braced ON r CLUSTER BY epc SEQUENCE BY rtime
AS (A) WHERE A.biz_loc = 'keepme'
ACTION MODIFY A.biz_loc = '{kept}'
"""


class TestSqlTemplate:
    @pytest.mark.parametrize("rule_text", [DUPLICATE, READER, REPLACING,
                                           CYCLE, KEEP, BRACED])
    def test_template_agrees_with_plan_transform(self, reads_db, rule_text):
        rows = [
            ("e1", 0, "r0", "loc2", "s"),
            ("e1", 60, "readerX", "locA", "s"),
            ("e1", 120, "r0", "locA", "s"),
            ("e1", 400, "r0", "loc2", "s"),
            ("e1", 650, "r0", "keepme", "s"),
            ("e2", 0, "r0", "keepme", "s"),
            ("e2", 100, "r0", "keepme", "s"),
        ]
        db = reads_db(rows)
        compiled, via_plan = apply_rule(db, rule_text)
        template = compiled.sql_template(
            ["epc", "rtime", "reader", "biz_loc", "biz_step"])
        via_sql = db.execute(template.format(input="r"))
        assert sorted(via_sql.rows) == sorted(via_plan.rows)

    def test_template_contains_placeholder(self):
        compiled = compile_rule(parse_rule(DUPLICATE))
        assert "{input}" in compiled.sql_template(["epc", "rtime"])

    def test_required_columns(self):
        compiled = compile_rule(parse_rule(READER))
        assert compiled.required_columns() == {"epc", "rtime", "reader"}


class TestWindowSharingAcrossRules:
    def test_chained_rules_share_partition_order(self, reads_db):
        db = reads_db([("e1", i * 100, "rd", "a", "s") for i in range(4)])
        first = compile_rule(parse_rule(DUPLICATE))
        second = compile_rule(parse_rule(READER))
        plan = second.apply(first.apply(LogicalScan(db.table("r"))))
        windows = [node for node in plan.walk()
                   if isinstance(node, LogicalWindow)]
        assert len(windows) == 2
        keys = {(w.partition_by, w.order_by) for w in windows}
        assert len(keys) == 1  # same ordering requirement: one sort


class TestMinMatchesExtension:
    """The §4.3 count() extension: *B{k} requires at least k set rows."""

    RULE = """
        DEFINE two_rx ON r CLUSTER BY epc SEQUENCE BY rtime
        AS (A, *B{2})
        WHERE B.reader = 'readerX' AND B.rtime - A.rtime < 10 mins
        ACTION DELETE A"""

    def test_parses_min_matches(self):
        rule = parse_rule(self.RULE)
        assert rule.pattern[1].min_matches == 2

    def test_two_matches_required(self, reads_db):
        db = reads_db([
            ("e1", 0, "r0", "a", "s"),
            ("e1", 100, "readerX", "b", "s"),
            ("e1", 200, "readerX", "c", "s"),
            ("e2", 0, "r0", "a", "s"),
            ("e2", 100, "readerX", "b", "s"),
        ])
        _, result = apply_rule(db, self.RULE)
        kept = {(row[0], row[1]) for row in result}
        assert ("e1", 0) not in kept  # two readerX follow: deleted
        assert ("e2", 0) in kept      # only one: kept

    def test_compiles_to_sum_window(self):
        compiled = compile_rule(parse_rule(self.RULE))
        (name, function), = compiled.window_columns
        assert function.name == "sum"
        assert ">= 2" in compiled.condition.to_sql()

    def test_default_threshold_still_uses_max(self):
        compiled = compile_rule(parse_rule(READER))
        (name, function), = compiled.window_columns
        assert function.name == "max"

    def test_qualifier_on_singleton_rejected(self):
        import pytest as _pytest
        from repro.errors import RuleValidationError
        with _pytest.raises(RuleValidationError, match="match-count"):
            parse_rule("""
                DEFINE bad ON r CLUSTER BY epc SEQUENCE BY rtime
                AS (A{2}, B) WHERE A.biz_loc = B.biz_loc
                ACTION DELETE B""")

    def test_zero_threshold_rejected(self):
        import pytest as _pytest
        from repro.errors import RuleValidationError
        with _pytest.raises(RuleValidationError, match="min_matches"):
            parse_rule("""
                DEFINE bad ON r CLUSTER BY epc SEQUENCE BY rtime
                AS (A, *B{0}) WHERE B.rtime - A.rtime < 10 mins
                ACTION DELETE A""")

    def test_rewrite_strategies_agree_with_threshold(self, reads_db):
        from repro.rewrite import DeferredCleansingEngine
        from repro.sqlts import RuleRegistry

        db = reads_db([
            ("e1", 0, "r0", "a", "s"),
            ("e1", 100, "readerX", "b", "s"),
            ("e1", 200, "readerX", "c", "s"),
            ("e2", 0, "r0", "a", "s"),
            ("e2", 100, "readerX", "b", "s"),
        ])
        registry = RuleRegistry(db)
        registry.define(self.RULE)
        engine = DeferredCleansingEngine(db, registry)
        sql = "select epc, rtime from r where rtime <= 150"
        naive = engine.execute(sql, strategies={"naive"}).as_set()
        for strategy in ("expanded", "joinback"):
            got = engine.execute(sql, strategies={strategy}).as_set()
            assert got == naive, strategy
