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

Scalar semantics come from :meth:`Expr.bind`, the specification the
executor's batch kernels are tested against. Nothing here imports the
physical operators, the window kernels, the batch machinery or the
optimizer, so a bug in any of them cannot reach both sides of a
comparison (a test pins the imports).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import PlanningError
from repro.minidb.expressions import UNBOUNDED, Expr, WindowFrame
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

__all__ = ["cleansed", "evaluate", "execute", "in_frame"]


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


def _bind(expr: Expr, schema: PlanSchema) -> Callable[[tuple], Any]:
    return expr.bind(schema.resolver())


def _scan(node: LogicalScan) -> list[tuple]:
    return [tuple(row) for row in node.table.rows]


def _filter(node: LogicalFilter) -> list[tuple]:
    predicate = _bind(node.predicate, node.child.schema)
    return [row for row in evaluate(node.child) if predicate(row) is True]


def _project(node: LogicalProject) -> list[tuple]:
    items = [_bind(expr, node.child.schema) for expr, _ in node.items]
    return [tuple(item(row) for item in items)
            for row in evaluate(node.child)]


def _join(node: LogicalJoin) -> list[tuple]:
    condition = None if node.condition is None \
        else _bind(node.condition, node.schema)
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
    """``left_expr [NOT] IN (right)`` with SQL's NULL rules: a NULL
    operand never qualifies, and a NULL member makes NOT IN unknown for
    every row."""
    members = [row[0] for row in evaluate(node.right)]
    if node.negated and None in members:
        return []
    operand = _bind(node.left_expr, node.left.schema)
    out = []
    for row in evaluate(node.left):
        value = operand(row)
        if value is not None and (value in members) != node.negated:
            out.append(row)
    return out


def _aggregate_values(name: str, values: list) -> Any:
    """*name* over the non-NULL *values* of a group or frame."""
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    return min(values) if name == "min" else max(values)


def _aggregate(node: LogicalAggregate) -> list[tuple]:
    keys = [_bind(expr, node.child.schema) for expr, _ in node.group]
    groups: dict[tuple, list[tuple]] = {}
    for row in evaluate(node.child):
        groups.setdefault(tuple(key(row) for key in keys), []).append(row)
    if not groups and not keys:
        groups[()] = []  # a global aggregate over no rows is one row
    calls = [(call, None if call.argument is None
              else _bind(call.argument, node.child.schema))
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
    keys = [(_bind(spec.expr, node.child.schema), spec.ascending)
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
    partition = [_bind(expr, schema) for expr in node.partition_by]
    order = [(_bind(spec.expr, schema), spec.ascending)
             for spec in node.order_by]
    rows = _sorted(evaluate(node.child), order)
    rows = sorted(rows, key=lambda row: tuple(sort_key(key(row))
                                              for key in partition))
    descending = bool(order) and not order[0][1]
    calls = [(call, None if call.argument is None
              else _bind(call.argument, schema))
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
