"""Expression evaluation, substitution, traversal, and null semantics.

Every evaluation case runs twice: through the engine's batch kernel
(:meth:`Expr.bind_batch` over a one-row batch) and through the
reference's interpreter (:func:`repro.fuzz.reference.scalar`), which
share no evaluation code. ``run`` asserts that the two agree — on the
value and its type, or on the error raised — before the case checks
the value itself. A property then compares them over random expression
trees and multi-row batches.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PlanningError, TypeMismatchError
from repro.fuzz import reference
from repro.minidb.expressions import (
    AggregateCall,
    BinaryOp,
    Case,
    ColumnRef,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    UnaryOp,
    WindowFunction,
    and_all,
    column,
    lit,
    or_all,
)
from repro.minidb.plan.planschema import Field, PlanSchema
from repro.minidb.sqlparse import parse_select
from repro.minidb.types import SqlType
from repro.minidb.vector import RowBatch


def schema(**cols):
    return PlanSchema([Field(name, sql_type) for name, sql_type
                       in cols.items()])


SCHEMA = schema(a=SqlType.INTEGER, b=SqlType.INTEGER, s=SqlType.VARCHAR)


def _outcome(evaluate):
    """``("value", type, value)``, or ``("raises", error)``."""
    try:
        value = evaluate()
    except TypeMismatchError as error:
        return ("raises", error)
    return ("value", type(value), value)


def run(expr, row):
    """*expr* on *row*, once by the kernel and once by the reference."""
    kernel = _outcome(lambda: expr.bind_batch(SCHEMA.resolver())(
        RowBatch.from_rows([row], len(row)))[0])
    interpreted = _outcome(lambda: reference.scalar(expr, SCHEMA)(row))
    if kernel[0] == "raises" or interpreted[0] == "raises":
        assert (kernel[0], type(kernel[1])) \
            == (interpreted[0], type(interpreted[1])), (kernel, interpreted)
        raise kernel[1]
    assert kernel == interpreted
    return kernel[2]


class TestEvaluation:
    def test_column_and_literal(self):
        assert run(column("b"), (1, 2, "x")) == 2
        assert run(lit(42), (0, 0, "")) == 42

    def test_arithmetic(self):
        expr = BinaryOp("+", column("a"), BinaryOp("*", column("b"), lit(3)))
        assert run(expr, (1, 2, "")) == 7

    def test_integer_division_exact(self):
        assert run(BinaryOp("/", lit(6), lit(3)), ()) == 2

    def test_division_inexact_gives_float(self):
        assert run(BinaryOp("/", lit(7), lit(2)), ()) == pytest.approx(3.5)

    def test_division_by_zero(self):
        with pytest.raises(TypeMismatchError):
            run(BinaryOp("/", lit(1), lit(0)), ())

    def test_null_propagates_through_arithmetic(self):
        expr = BinaryOp("-", column("a"), column("b"))
        assert run(expr, (None, 2, "")) is None

    def test_comparison_null_is_unknown(self):
        expr = BinaryOp("<", column("a"), column("b"))
        assert run(expr, (None, 2, "")) is None
        assert run(expr, (1, 2, "")) is True

    def test_and_or_three_valued(self):
        true = lit(True)
        null = BinaryOp("=", lit(None), lit(1))
        assert run(BinaryOp("or", true, null), ()) is True
        assert run(BinaryOp("and", true, null), ()) is None

    def test_unary_not_and_negate(self):
        assert run(UnaryOp("not", lit(False)), ()) is True
        assert run(UnaryOp("-", column("a")), (5, 0, "")) == -5
        assert run(UnaryOp("-", lit(None)), ()) is None

    def test_is_null(self):
        assert run(IsNull(column("a")), (None, 0, "")) is True
        assert run(IsNull(column("a"), negated=True), (None, 0, "")) is False

    def test_case_first_match_wins(self):
        expr = Case(((BinaryOp(">", column("a"), lit(0)), lit("pos")),
                     (BinaryOp("<", column("a"), lit(0)), lit("neg"))),
                    lit("zero"))
        assert run(expr, (3, 0, "")) == "pos"
        assert run(expr, (-3, 0, "")) == "neg"
        assert run(expr, (0, 0, "")) == "zero"

    def test_case_unknown_condition_skipped(self):
        expr = Case(((BinaryOp(">", column("a"), lit(0)), lit("pos")),),
                    lit("other"))
        assert run(expr, (None, 0, "")) == "other"

    def test_case_without_else_defaults_null(self):
        expr = Case(((lit(False), lit(1)),))
        assert run(expr, ()) is None

    def test_case_arm_not_taken_never_raises(self):
        expr = Case(((BinaryOp("=", column("b"), lit(0)), lit(0)),),
                    BinaryOp("/", column("a"), column("b")))
        assert run(expr, (6, 0, "")) == 0
        assert run(expr, (6, 3, "")) == 2

    def test_null_literal_operand_still_evaluates_the_other(self):
        expr = BinaryOp("=", BinaryOp("/", column("a"), lit(0)), lit(None))
        assert run(expr, (None, 0, "")) is None
        with pytest.raises(TypeMismatchError):
            run(expr, (1, 0, ""))

    def test_kleene_truth_tables(self):
        truth = (lit(True), lit(False), lit(None))
        for left in truth:
            for right in truth:
                values = {left.value, right.value}
                both_and = run(BinaryOp("and", left, right), ())
                both_or = run(BinaryOp("or", left, right), ())
                assert both_and is (False if False in values
                                    else None if None in values else True)
                assert both_or is (True if True in values
                                   else None if None in values else False)
        assert run(UnaryOp("not", lit(None)), ()) is None

    def test_unplanned_nodes_are_planning_errors(self):
        subquery = parse_select("select a from t")
        for expr in (InSubquery(column("a"), subquery),
                     AggregateCall("sum", column("a")),
                     WindowFunction("row_number", None)):
            with pytest.raises(PlanningError):
                expr.bind_batch(SCHEMA.resolver())
            with pytest.raises(PlanningError):
                reference.scalar(expr, SCHEMA)((1, 2, ""))


class TestInList:
    def test_membership(self):
        expr = InList(column("a"), (lit(1), lit(2)))
        assert run(expr, (2, 0, "")) is True
        assert run(expr, (3, 0, "")) is False

    def test_negated(self):
        expr = InList(column("a"), (lit(1),), negated=True)
        assert run(expr, (2, 0, "")) is True

    def test_null_operand_unknown(self):
        expr = InList(column("a"), (lit(1),))
        assert run(expr, (None, 0, "")) is None

    def test_null_item_makes_nonmatch_unknown(self):
        expr = InList(column("a"), (lit(1), lit(None)))
        assert run(expr, (1, 0, "")) is True
        assert run(expr, (2, 0, "")) is None

    def test_expression_items(self):
        expr = InList(column("a"), (column("b"), BinaryOp("+", column("b"),
                                                          lit(1))))
        assert run(expr, (3, 2, "")) is True
        assert run(expr, (5, 2, "")) is False
        assert run(expr, (5, None, "")) is None
        negated = InList(column("a"), (column("b"), lit(7)), negated=True)
        assert run(negated, (7, None, "")) is False
        assert run(negated, (5, None, "")) is None
        assert run(negated, (5, 6, "")) is True


class TestScalarFunctions:
    def test_coalesce(self):
        expr = FuncCall("coalesce", (column("a"), lit(9)))
        assert run(expr, (None, 0, "")) == 9
        assert run(expr, (4, 0, "")) == 4

    def test_coalesce_evaluates_only_what_it_needs(self):
        expr = FuncCall("coalesce", (column("a"), column("b"),
                                     BinaryOp("/", lit(1), lit(0))))
        assert run(expr, (4, None, "")) == 4
        assert run(expr, (None, 5, "")) == 5
        with pytest.raises(TypeMismatchError):
            run(expr, (None, None, ""))

    def test_abs_and_lower(self):
        assert run(FuncCall("abs", (column("a"),)), (-4, 0, "")) == 4
        assert run(FuncCall("abs", (column("a"),)), (None, 0, "")) is None
        assert run(FuncCall("lower", (column("s"),)), (0, 0, "AbC")) == "abc"

    def test_string_functions(self):
        assert run(FuncCall("length", (column("s"),)), (0, 0, "abc")) == 3
        assert run(FuncCall("upper", (column("s"),)), (0, 0, "ab")) == "AB"
        assert run(FuncCall("substr", (lit("hello"), lit(2), lit(3))), ()) \
            == "ell"

    def test_substr_edges(self):
        def substr(*args):
            return run(FuncCall("substr", tuple(map(lit, args))), ())
        assert substr("hello", 3) == "llo"
        assert substr("hello", 0, 3) == "hel"  # a start below 1 is 1
        assert substr("hello", -2) == "hello"
        assert substr("hello", 2, 0) == ""
        assert substr("hello", 1, -1) == ""
        assert substr("hello", 9, 2) == ""
        assert substr("hello", None, 2) is None
        assert substr("hello", 2, None) is None

    def test_like(self):
        like = FuncCall("like", (column("s"), lit("a%c")))
        assert run(like, (0, 0, "abbbc")) is True
        assert run(like, (0, 0, "abd")) is False
        underscore = FuncCall("like", (column("s"), lit("a_c")))
        assert run(underscore, (0, 0, "abc")) is True
        assert run(underscore, (0, 0, "abbc")) is False

    def test_like_matches_the_whole_text(self):
        like = FuncCall("like", (column("s"), lit("ab")))
        assert run(like, (0, 0, "ab\n")) is False
        assert run(like, (0, 0, "xab")) is False
        anything = FuncCall("like", (column("s"), lit("%")))
        assert run(anything, (0, 0, "")) is True
        assert run(anything, (0, 0, "a\nb")) is True
        case = FuncCall("like", (column("s"), lit("A%")))
        assert run(case, (0, 0, "abc")) is False  # case-sensitive
        special = FuncCall("like", (column("s"), lit("a.*")))
        assert run(special, (0, 0, "a.*")) is True
        assert run(special, (0, 0, "abc")) is False
        pattern = FuncCall("like", (lit("abc"), column("s")))
        assert run(pattern, (0, 0, "_b%")) is True
        assert run(pattern, (0, 0, None)) is None

    def test_nullif_least_greatest(self):
        assert run(FuncCall("nullif", (lit(3), lit(3))), ()) is None
        assert run(FuncCall("least", (lit(3), lit(1))), ()) == 1
        assert run(FuncCall("greatest", (lit(3), lit(1))), ()) == 3

    def test_nullif_and_extremes_with_nulls(self):
        assert run(FuncCall("nullif", (lit(3), lit(4))), ()) == 3
        assert run(FuncCall("nullif", (lit(None), lit(4))), ()) is None
        assert run(FuncCall("nullif", (lit(3), lit(None))), ()) == 3
        assert run(FuncCall("least", (lit(3), lit(None), lit(1))), ()) \
            is None
        assert run(FuncCall("greatest", (lit("b"), lit("a"))), ()) == "b"

    def test_unknown_function_rejected(self):
        with pytest.raises(PlanningError):
            FuncCall("frobnicate", ()).bind_batch(SCHEMA.resolver())

    def test_wrong_arity_rejected(self):
        for expr in (FuncCall("abs", ()), FuncCall("nullif", (lit(1),)),
                     FuncCall("substr", (lit("a"),) * 4)):
            with pytest.raises(PlanningError, match="arguments"):
                expr.bind_batch(SCHEMA.resolver())


class TestStructural:
    def test_equality_and_hash(self):
        first = BinaryOp("<", column("a"), lit(1))
        second = BinaryOp("<", column("a"), lit(1))
        assert first == second
        assert len({first, second}) == 1

    def test_substitute_replaces_subtree(self):
        expr = BinaryOp("<", column("a"), lit(1))
        replaced = expr.substitute({column("a"): column("b")})
        assert replaced == BinaryOp("<", column("b"), lit(1))

    def test_substitute_is_top_down(self):
        inner = BinaryOp("+", column("a"), lit(1))
        outer = BinaryOp("<", inner, lit(5))
        replaced = outer.substitute({inner: column("b"),
                                     column("a"): column("s")})
        assert replaced == BinaryOp("<", column("b"), lit(5))

    def test_referenced_columns(self):
        expr = BinaryOp("and",
                        BinaryOp("=", column("x", "t"), lit(1)),
                        IsNull(column("y")))
        assert expr.referenced_columns() == {ColumnRef("x", "t"),
                                             ColumnRef("y")}

    def test_and_all_or_all(self):
        conjuncts = [lit(True), lit(False)]
        assert and_all(conjuncts).op == "and"
        assert or_all(conjuncts).op == "or"
        assert and_all([]) is None
        assert and_all([lit(True)]) == lit(True)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_to_sql_reparses_to_equal_tree(self, x, y):
        from repro.minidb.sqlparse import parse_expression
        expr = BinaryOp("and",
                        BinaryOp("<", column("a"), lit(x)),
                        BinaryOp(">=", column("b"), lit(y)))
        assert parse_expression(expr.to_sql()) == expr

    def test_operator_normalization(self):
        assert BinaryOp("<>", column("a"), lit(1)).op == "!="
        assert BinaryOp("AND", lit(True), lit(True)).op == "and"

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanningError):
            BinaryOp("%%", column("a"), lit(1))


# ----------------------------------------------------------------------
# Property: the kernel over a batch is the reference, row by row.
# ----------------------------------------------------------------------

TREE_SCHEMA = schema(a=SqlType.INTEGER, b=SqlType.INTEGER,
                     s=SqlType.VARCHAR, t=SqlType.VARCHAR,
                     p=SqlType.BOOLEAN)

INTS = (-2, -1, 0, 1, 2, 3)
TEXTS = ("", "a", "ab", "Ab_", "b%a", "a\nb", "a\n")
PATTERNS = ("a", "%", "_b", "a%", "%b_", "A%", "a_")


def _nullable(values):
    """One of *values*, or NULL about as often as any one of them (last,
    so that it is not what Hypothesis tries first)."""
    return st.sampled_from((*values, None))


TREE_ROWS = st.lists(st.tuples(
    _nullable(INTS), _nullable(INTS), _nullable(TEXTS), _nullable(PATTERNS),
    _nullable((True, False)),
), min_size=1, max_size=6)

#: Per value kind: the columns and the literals a leaf may be.
LEAVES = {
    "int": (("a", "b"), INTS),
    "str": (("s", "t"), ("", "a", "B", "ab", "%")),
    "bool": (("p",), (True, False)),
}


def _case(sub, pick, kind):
    whens = tuple((sub("bool"), sub(kind)) for _ in range(pick((1, 2))))
    return Case(whens, pick((None, sub(kind))))


def _call(name, *args):
    return FuncCall(name, args)


#: Per value kind, the inner nodes a tree may have, each built from
#: ``sub(kind)`` (a random subtree) and ``pick(options)`` (a random
#: choice). "int" trees never divide, so they fit SUBSTR's arguments;
#: "num" trees do (exactly, inexactly, or by zero).
INNER = {
    "int": [
        lambda sub, pick: BinaryOp(pick("+-*"), sub("int"), sub("int")),
        lambda sub, pick: UnaryOp("-", sub("int")),
        lambda sub, pick: _call("abs", sub("int")),
        lambda sub, pick: _call("length", sub("str")),
        lambda sub, pick: _call("coalesce", sub("int"), sub("int")),
        lambda sub, pick: _call("nullif", sub("int"), sub("int")),
        lambda sub, pick: _call(pick(("least", "greatest")),
                                *[sub("int") for _ in range(pick((1, 3)))]),
        lambda sub, pick: _case(sub, pick, "int"),
    ],
    "num": [
        lambda sub, pick: BinaryOp("/", sub("num"), sub("num")),
        lambda sub, pick: BinaryOp(pick("+-*"), sub("num"), sub("num")),
        lambda sub, pick: _call("abs", sub("num")),
        lambda sub, pick: _call("coalesce", sub("num"), sub("num")),
        lambda sub, pick: _case(sub, pick, "num"),
        lambda sub, pick: sub("int"),
    ],
    "str": [
        lambda sub, pick: _call(pick(("lower", "upper")), sub("str")),
        lambda sub, pick: _call("substr", sub("str"), sub("int")),
        lambda sub, pick: _call("substr", sub("str"), sub("int"),
                                sub("int")),
        lambda sub, pick: _call("coalesce", sub("str"), sub("str")),
        lambda sub, pick: _call("nullif", sub("str"), sub("str")),
        lambda sub, pick: _call(pick(("least", "greatest")), sub("str"),
                                sub("str")),
        lambda sub, pick: _case(sub, pick, "str"),
    ],
    "bool": [
        lambda sub, pick: BinaryOp(pick(("and", "or")), sub("bool"),
                                   sub("bool")),
        lambda sub, pick: UnaryOp("not", sub("bool")),
        lambda sub, pick: _compare(pick(("num", "str")), sub, pick),
        lambda sub, pick: IsNull(sub(pick(("num", "str", "bool"))),
                                 pick((False, True))),
        lambda sub, pick: InList(
            sub("num"), tuple(sub("num") for _ in range(pick((1, 2, 3)))),
            pick((False, True))),
        lambda sub, pick: InList(
            sub("str"), tuple(lit(pick((None, *TEXTS))) for _ in range(2)),
            pick((False, True))),
        lambda sub, pick: _call("like", sub("str"), sub("str")),
        lambda sub, pick: _case(sub, pick, "bool"),
    ],
}


def _compare(kind, sub, pick):
    return BinaryOp(pick(("=", "!=", "<", "<=", ">", ">=")), sub(kind),
                    sub(kind))


def random_tree(rng, kind, depth):
    """A well-typed expression of *kind*, at most *depth* levels deep
    below its root: every node class the engine evaluates, every scalar
    function, NULL literals and NULL columns."""
    if depth == 0 or rng.random() < 0.25:
        names, values = LEAVES["int" if kind == "num" else kind]
        if rng.random() < 0.5:
            return column(rng.choice(names))
        return lit(rng.choice((None, *values)))
    inner = rng.choice(INNER[kind])
    return inner(lambda sub_kind: random_tree(rng, sub_kind, depth - 1),
                 rng.choice)


#: Trees checked per example: one tree rarely meets the rows that tell
#: a broken kernel apart, and a tree costs far less than an example.
TREES_PER_EXAMPLE = 10


@pytest.mark.parametrize("kind", ["int", "num", "str", "bool"])
@given(rng=st.randoms(use_true_random=True), rows=TREE_ROWS)
def test_kernel_matches_reference_row_by_row(kind, rng, rows):
    batch = RowBatch.from_rows(rows, len(TREE_SCHEMA))
    for _ in range(TREES_PER_EXAMPLE):
        expr = random_tree(rng, kind, rng.choice((1, 2, 3, 4)))
        interpreted = reference.scalar(expr, TREE_SCHEMA)
        expected = [_outcome(lambda row=row: interpreted(row))
                    for row in rows]
        kernel = _outcome(
            lambda: expr.bind_batch(TREE_SCHEMA.resolver())(batch))
        if kernel[0] == "raises":
            assert any(outcome[0] == "raises" for outcome in expected), \
                expr.to_sql()
        else:
            assert [("value", type(value), value) for value in kernel[2]] \
                == expected, expr.to_sql()
