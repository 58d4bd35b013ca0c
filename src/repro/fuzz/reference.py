"""The reference evaluator: a logical plan, run one tuple at a time.

The fuzz oracle's baseline and the executor tests' expected answers come
from here. It evaluates a :mod:`~repro.minidb.plan.logical` tree
directly — the plan the SQL builder and the rewrite engine produce,
before the optimizer sees it — with the plainest algorithm for every
operator:

* joins are nested loops over the two inputs, left row major;
* sorts are ``sorted()`` passes over :func:`~repro.minidb.types.sort_key`
  (NULLs first ascending, last descending, ties in input order);
* every window frame is found by rescanning the partition for each row
  (:func:`in_frame`), then aggregated from scratch — quadratic, which is
  fine at the sizes the fuzzer and the property tests use.

Expressions are interpreted here too, one row at a time, by
:func:`scalar` — a stateless visitor over the node classes written from
SQL's definitions (Kleene logic as an order on truth values, ``IN`` as
an OR of equalities, LIKE as a pattern walk), not from the executor's
kernels. Nothing here imports the physical operators, the window
kernels, the batch machinery or the optimizer, and from
``minidb.expressions`` only node classes and constants, so a bug in any
of them cannot reach both sides of a comparison (a test pins the
imports).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Any, Callable

from repro.errors import PlanningError, TypeMismatchError
from repro.minidb.expressions import (
    UNBOUNDED,
    AggregateCall,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    UnaryOp,
    WindowFrame,
    WindowFunction,
)
from repro.minidb.plan.builder import build_plan
from repro.minidb.plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalRequalify,
    LogicalScan,
    LogicalSemiJoin,
    LogicalSort,
    LogicalUnion,
    LogicalWindow,
)
from repro.minidb.plan.planschema import PlanSchema
from repro.minidb.sqlparse import parse_select
from repro.minidb.types import sort_key

__all__ = ["cleansed", "evaluate", "execute", "in_frame", "scalar"]


def execute(database, sql: str) -> list[tuple]:
    """Rows of the plain SELECT *sql* over *database*'s tables."""
    return evaluate(build_plan(parse_select(sql), database.catalog))


def cleansed(engine, sql: str) -> list[tuple]:
    """``Q(Φ_C(R))``: the naive rewrite of *sql* under *engine*'s rules
    (cleanse every governed table, then query), evaluated here."""
    logical = engine.rewrite(sql, {"naive"}).chosen.logical
    if logical is None:  # no rule governs the query's tables
        return execute(engine.database, sql)
    return evaluate(logical)


def evaluate(node: LogicalNode) -> list[tuple]:
    """The rows *node* produces, in the order its semantics fixes."""
    try:
        evaluator = _EVALUATORS[type(node)]
    except KeyError:
        raise PlanningError(
            f"the reference cannot evaluate {type(node).__name__}") from None
    return evaluator(node)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def scalar(expr: Expr, schema: PlanSchema) -> Callable[[tuple], Any]:
    """*expr* as a function of one row of *schema*. Column positions are
    resolved once; each call interprets the tree afresh."""
    positions = {ref: schema.resolve(ref.qualifier, ref.name)
                 for ref in expr.referenced_columns()}
    return lambda row: _value(expr, row, positions)


def _value(expr: Expr, row: tuple, positions: dict) -> Any:
    """The value of *expr* on *row* (NULL is None)."""
    try:
        visit = _VISITORS[type(expr)]
    except KeyError:
        raise PlanningError(
            f"the reference cannot evaluate {expr.to_sql()}") from None
    return visit(expr, row, positions)


#: SQL's truth values in Kleene order: AND is the lesser of its
#: operands, OR the greater, NOT the mirror image.
_TRUTH_ORDER = {False: 0, None: 1, True: 2}
_TRUTH_VALUES = (False, None, True)


def _and(*values: bool | None) -> bool | None:
    return _TRUTH_VALUES[min(_TRUTH_ORDER[value] for value in values)]


def _or(*values: bool | None) -> bool | None:
    return _TRUTH_VALUES[max(_TRUTH_ORDER[value] for value in values)]


def _not(value: bool | None) -> bool | None:
    return _TRUTH_VALUES[2 - _TRUTH_ORDER[value]]


def _equals(left: Any, right: Any) -> bool | None:
    return None if left is None or right is None else left == right


def _binary(expr: BinaryOp, row: tuple, positions: dict) -> Any:
    # Both operands are evaluated on every row: SQL promises no
    # short circuit, and a raising operand raises either way.
    left = _value(expr.left, row, positions)
    right = _value(expr.right, row, positions)
    if expr.op == "and":
        return _and(left, right)
    if expr.op == "or":
        return _or(left, right)
    return _strict(expr.op, left, right)


def _unary(expr: UnaryOp, row: tuple, positions: dict) -> Any:
    value = _value(expr.operand, row, positions)
    if expr.op == "not":
        return _not(value)
    return None if value is None else -value


def _is_null(expr: IsNull, row: tuple, positions: dict) -> bool:
    return (_value(expr.operand, row, positions) is None) != expr.negated


def _case(expr: Case, row: tuple, positions: dict) -> Any:
    """The result of the first WHEN that is TRUE; the conditions after
    it and every other result are never evaluated."""
    for condition, result in expr.whens:
        if _value(condition, row, positions) is True:
            return _value(result, row, positions)
    if expr.else_result is None:
        return None
    return _value(expr.else_result, row, positions)


def _in_list(expr: InList, row: tuple, positions: dict) -> bool | None:
    """``x IN (a, b)`` is ``x = a OR x = b``; NOT IN is its negation."""
    operand = _value(expr.operand, row, positions)
    found = _or(*[_equals(operand, _value(item, row, positions))
                  for item in expr.items])
    return _not(found) if expr.negated else found


def _like(text: str, pattern: str) -> bool:
    """Does *pattern* match all of *text*? ``%`` matches any run of
    characters (the empty one too), ``_`` exactly one, anything else
    itself. Walks the pattern keeping every text offset reachable."""
    reachable = {0}
    for symbol in pattern:
        if symbol == "%":
            reachable = set(range(min(reachable), len(text) + 1)) \
                if reachable else set()
        else:
            reachable = {offset + 1 for offset in reachable
                         if offset < len(text)
                         and (symbol == "_" or text[offset] == symbol)}
    return len(text) in reachable


def _substr(text: str, start: int, count: int | None = None) -> str:
    """The characters at 1-based positions ``first .. first + count - 1``
    where *first* is *start* raised to 1 (all from *first* on without a
    count, none for a count below 1)."""
    first = max(start, 1)
    return "".join(char for position, char in enumerate(text, 1)
                   if position >= first
                   and (count is None or position < first + count))


def _divide(left: Any, right: Any) -> Any:
    """This engine's ``/``: an exact quotient of two integers is an
    integer, every other quotient is real."""
    if right == 0:
        raise TypeMismatchError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        exact = Fraction(left, right)
        if exact.denominator == 1:
            return exact.numerator
    return left / right


#: Operators and functions that are NULL on any NULL operand.
_STRICT: dict[str, Callable[..., Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "abs": abs,
    "length": len,
    "lower": str.lower,
    "upper": str.upper,
    "substr": _substr,
    "like": _like,
    "least": lambda *values: min(values),
    "greatest": lambda *values: max(values),
}


def _strict(name: str, *values: Any) -> Any:
    if name not in _STRICT:
        raise PlanningError(f"unknown scalar function {name!r}")
    if any(value is None for value in values):
        return None
    return _STRICT[name](*values)


def _function(expr: FuncCall, row: tuple, positions: dict) -> Any:
    if expr.name == "coalesce":  # arguments after the first non-NULL
        for arg in expr.args:  # one are never evaluated
            value = _value(arg, row, positions)
            if value is not None:
                return value
        return None
    args = [_value(arg, row, positions) for arg in expr.args]
    if expr.name == "nullif":  # CASE WHEN a = b THEN NULL ELSE a END
        return None if _equals(*args) is True else args[0]
    return _strict(expr.name, *args)


def _unplanned(expr: Expr, row: tuple, positions: dict) -> Any:
    raise PlanningError(
        f"{expr.to_sql()} is evaluated by its own plan node, not as a "
        "scalar expression")


_VISITORS: dict[type, Callable[[Any, tuple, dict], Any]] = {
    ColumnRef: lambda expr, row, positions: row[positions[expr]],
    Literal: lambda expr, row, positions: expr.value,
    BinaryOp: _binary,
    UnaryOp: _unary,
    IsNull: _is_null,
    Case: _case,
    InList: _in_list,
    FuncCall: _function,
    InSubquery: _unplanned,
    AggregateCall: _unplanned,
    WindowFunction: _unplanned,
}


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------


def _scan(node: LogicalScan) -> list[tuple]:
    return [tuple(row) for row in node.table.rows]


def _filter(node: LogicalFilter) -> list[tuple]:
    predicate = scalar(node.predicate, node.child.schema)
    return [row for row in evaluate(node.child) if predicate(row) is True]


def _project(node: LogicalProject) -> list[tuple]:
    items = [scalar(expr, node.child.schema) for expr, _ in node.items]
    return [tuple(item(row) for item in items)
            for row in evaluate(node.child)]


def _join(node: LogicalJoin) -> list[tuple]:
    condition = None if node.condition is None \
        else scalar(node.condition, node.schema)
    right_rows = evaluate(node.right)
    null_pad = (None,) * len(node.right.schema)
    out: list[tuple] = []
    for left_row in evaluate(node.left):
        matched = False
        for right_row in right_rows:
            joined = left_row + right_row
            if condition is None or condition(joined) is True:
                matched = True
                out.append(joined)
        if not matched and node.kind == "left":
            out.append(left_row + null_pad)
    return out


def _semi_join(node: LogicalSemiJoin) -> list[tuple]:
    """``left_expr [NOT] IN (right)`` with SQL's NULL rules: against no
    members IN is FALSE and NOT IN is TRUE for every row, a NULL operand
    included; otherwise a NULL operand never qualifies, and a NULL
    member makes NOT IN unknown for every row."""
    members = [row[0] for row in evaluate(node.right)]
    if not members:
        return evaluate(node.left) if node.negated else []
    if node.negated and None in members:
        return []
    operand = scalar(node.left_expr, node.left.schema)
    out = []
    for row in evaluate(node.left):
        value = operand(row)
        if value is not None and (value in members) != node.negated:
            out.append(row)
    return out


def _left_fold_sum(values: list) -> Any:
    """*values* (non-empty) added left to right from the first one.
    Not builtin ``sum()``: it starts at 0, so ``[-0.0]`` sums to 0.0,
    and on Python 3.12 it compensates float rounding."""
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


def _aggregate_values(name: str, values: list) -> Any:
    """*name* over the non-NULL *values* of a group or frame."""
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return _left_fold_sum(values)
    if name == "avg":
        return _left_fold_sum(values) / len(values)
    return min(values) if name == "min" else max(values)


def _aggregate(node: LogicalAggregate) -> list[tuple]:
    keys = [scalar(expr, node.child.schema) for expr, _ in node.group]
    groups: dict[tuple, list[tuple]] = {}
    for row in evaluate(node.child):
        groups.setdefault(tuple(key(row) for key in keys), []).append(row)
    if not groups and not keys:
        groups[()] = []  # a global aggregate over no rows is one row
    calls = [(call, None if call.argument is None
              else scalar(call.argument, node.child.schema))
             for call, _ in node.aggregates]
    out = []
    for key, rows in groups.items():
        results = []
        for call, argument in calls:
            if argument is None:  # count(*)
                results.append(len(rows))
                continue
            values = [value for value in map(argument, rows)
                      if value is not None]
            if call.distinct:
                values = list(dict.fromkeys(values))
            results.append(_aggregate_values(call.name, values))
        out.append(key + tuple(results))
    return out


def _sorted(rows: list[tuple],
            keys: list[tuple[Callable[[tuple], Any], bool]]) -> list[tuple]:
    """*rows* ordered by *keys* (``(key, ascending)`` pairs): one stable
    ``sorted()`` pass per key, last key first."""
    for key, ascending in reversed(keys):
        rows = sorted(rows, key=lambda row: sort_key(key(row)),
                      reverse=not ascending)
    return rows


def _sort(node: LogicalSort) -> list[tuple]:
    keys = [(scalar(spec.expr, node.child.schema), spec.ascending)
            for spec in node.keys]
    return _sorted(evaluate(node.child), keys)


def in_frame(frame: WindowFrame | None, peers: list[tuple] | None,
             descending: bool, i: int, j: int) -> bool:
    """Is row *j* of a sorted partition in the frame of row *i*?

    *peers* holds each row's ORDER BY key tuple, or is None without
    ORDER BY; *descending* is the direction of the first ORDER BY key,
    the one RANGE offsets count in.
    """
    if frame is None:
        # RANGE UNBOUNDED PRECEDING .. CURRENT ROW: every row up to the
        # current row's last peer; the whole partition without ORDER BY.
        return peers is None or j <= i or peers[j] == peers[i]
    start = None if frame.start == UNBOUNDED else frame.start
    end = None if frame.end == UNBOUNDED else frame.end
    if frame.mode == "rows":
        return (start is None or start <= j - i) \
            and (end is None or j - i <= end)
    if start is None and end is None:
        return True
    key, other = peers[i][0], peers[j][0]
    if key is None or other is None:
        # NULL keys are peers of each other; anything else reaches them,
        # or is reached from them, only through an UNBOUNDED side.
        return (key is None and other is None) \
            or (j < i and start is None) or (j > i and end is None)
    if descending:  # offsets count towards later rows, i.e. lower keys
        key, other = -key, -other
    return (start is None or key + start <= other) \
        and (end is None or other <= key + end)


def _window(node: LogicalWindow) -> list[tuple]:
    schema = node.child.schema
    partition = [scalar(expr, schema) for expr in node.partition_by]
    order = [(scalar(spec.expr, schema), spec.ascending)
             for spec in node.order_by]
    rows = _sorted(evaluate(node.child), order)
    rows = sorted(rows, key=lambda row: tuple(sort_key(key(row))
                                              for key in partition))
    descending = bool(order) and not order[0][1]
    calls = [(call, None if call.argument is None
              else scalar(call.argument, schema))
             for call, _ in node.functions]
    out: list[tuple] = []
    start = 0
    while start < len(rows):
        group = tuple(key(rows[start]) for key in partition)
        end = start + 1
        while end < len(rows) \
                and tuple(key(rows[end]) for key in partition) == group:
            end += 1
        members = rows[start:end]
        peers = [tuple(key(row) for key, _ in order) for row in members] \
            if order else None
        for i, row in enumerate(members):
            out.append(row + tuple(
                _window_value(call, argument, members, peers, descending, i)
                for call, argument in calls))
        start = end
    return out


def _window_value(call, argument, members: list[tuple], peers,
                  descending: bool, i: int) -> Any:
    """One window function's value at row *i* of a sorted partition."""
    if call.name == "row_number":
        return i + 1
    if call.name in ("lag", "lead"):
        j = i - call.offset if call.name == "lag" else i + call.offset
        return argument(members[j]) if 0 <= j < len(members) else None
    frame = [row for j, row in enumerate(members)
             if in_frame(call.frame, peers, descending, i, j)]
    if argument is None:  # count(*)
        return len(frame)
    values = [value for value in map(argument, frame) if value is not None]
    return _aggregate_values(call.name, values)


def _distinct(node: LogicalDistinct) -> list[tuple]:
    return list(dict.fromkeys(evaluate(node.child)))


def _union(node: LogicalUnion) -> list[tuple]:
    # UNION (without ALL) is a LogicalDistinct over this node.
    return evaluate(node.left) + evaluate(node.right)


def _limit(node: LogicalLimit) -> list[tuple]:
    return evaluate(node.child)[:max(node.count, 0)]


def _requalify(node: LogicalRequalify) -> list[tuple]:
    return evaluate(node.child)


_EVALUATORS: dict[type, Callable[[Any], list[tuple]]] = {
    LogicalScan: _scan,
    LogicalFilter: _filter,
    LogicalProject: _project,
    LogicalJoin: _join,
    LogicalSemiJoin: _semi_join,
    LogicalAggregate: _aggregate,
    LogicalWindow: _window,
    LogicalSort: _sort,
    LogicalDistinct: _distinct,
    LogicalUnion: _union,
    LogicalLimit: _limit,
    LogicalRequalify: _requalify,
}
