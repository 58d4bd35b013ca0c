"""Soundness property for derived context conditions (Figure 4).

``derive_context_conjuncts`` produces the condition the expanded
rewrite pushes below cleansing to fetch a rule's context rows. For the
rewrite to be correct the derived condition may only ever *widen*:
every context tuple X that genuinely participates — i.e. some target
tuple T satisfies the query condition and (X, T) jointly satisfy the
correlation conjuncts — must satisfy every derived conjunct. A derived
condition stronger than that premise would silently drop required
context rows from σ_ec(R).

The property samples random (X, T) tuple pairs and random conjunct
sets; whenever the premise holds on a pair, every derived conjunct must
evaluate true on it (completeness of the derivation is NOT asserted —
deriving nothing is always sound).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import reference
from repro.minidb.expressions import ColumnRef
from repro.minidb.plan.planschema import Field, PlanSchema
from repro.minidb.sqlparse import parse_expression
from repro.minidb.types import SqlType
from repro.rewrite.transitivity import derive_context_conjuncts

COLUMNS = (("epc", SqlType.VARCHAR), ("rtime", SqlType.INTEGER),
           ("biz_loc", SqlType.VARCHAR), ("reader", SqlType.VARCHAR))

#: Row layout for evaluation: X's columns then T's columns.
_SCHEMA = PlanSchema([Field(name, sql_type, qualifier)
                      for qualifier in ("x", "t")
                      for name, sql_type in COLUMNS])


def _holds(conjunct_sql: str, row: tuple) -> bool:
    expr = parse_expression(conjunct_sql)
    # Derived conjuncts refer only to the context reference; treat
    # unqualified references as context-side.
    expr = expr.substitute({ref: ColumnRef(ref.name, "x")
                            for ref in expr.referenced_columns()
                            if ref.qualifier is None})
    return reference.scalar(expr, _SCHEMA)(row) is True


ROW = st.tuples(
    st.sampled_from(["e1", "e2"]),
    st.integers(0, 500),
    st.sampled_from(["l1", "l2", "la"]),
    st.sampled_from(["r0", "r1", "rx"]),
)

CORRELATION = st.lists(st.sampled_from([
    "x.epc = t.epc",
    "x.rtime <= t.rtime",
    "t.rtime - x.rtime < 120",
    "t.rtime - x.rtime <= 60",
    "x.rtime - t.rtime > -300",
    "x.biz_loc = t.biz_loc",
    "x.reader = 'rx'",
]), min_size=1, max_size=4, unique=True)

QUERY = st.lists(st.sampled_from([
    "t.rtime <= 400",
    "t.rtime <= 250",
    "t.rtime >= 100",
    "t.rtime > 50",
    "t.epc = 'e1'",
    "t.biz_loc = 'l1'",
    "t.reader != 'r0'",
]), min_size=0, max_size=3, unique=True)


@settings(max_examples=300, deadline=None)
@given(correlation=CORRELATION, query=QUERY,
       pairs=st.lists(st.tuples(ROW, ROW), min_size=1, max_size=8))
def test_derived_conjuncts_never_stronger_than_premise(
        correlation, query, pairs) -> None:
    derived = derive_context_conjuncts(
        [parse_expression(text) for text in correlation],
        [parse_expression(text) for text in query],
        "x", "t")
    derived_sql = [conjunct.to_sql() for conjunct in derived]

    for x_row, t_row in pairs:
        row = x_row + t_row
        premise = all(_holds(text, row) for text in correlation) \
            and all(_holds(text, row) for text in query)
        if not premise:
            continue
        for conjunct_sql in derived_sql:
            assert _holds(conjunct_sql, row), (
                f"derived conjunct {conjunct_sql} is stronger than the "
                f"premise: violated by X={x_row}, T={t_row} under "
                f"correlation={correlation}, query={query}")


@settings(max_examples=100, deadline=None)
@given(query=QUERY, x_row=ROW)
def test_derived_refers_only_to_context(query, x_row) -> None:
    """Every derived conjunct must be evaluable on the context tuple
    alone — no residual target references."""
    correlation = ["x.epc = t.epc", "x.rtime <= t.rtime",
                   "t.rtime - x.rtime < 120"]
    derived = derive_context_conjuncts(
        [parse_expression(text) for text in correlation],
        [parse_expression(text) for text in query],
        "x", "t")
    for conjunct in derived:
        qualifiers = {ref.qualifier
                      for ref in conjunct.referenced_columns()}
        assert qualifiers <= {"x", None}, conjunct.to_sql()
