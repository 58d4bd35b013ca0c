"""SQL text of a logical plan: the one printer behind ``rewritten_sql``
(the plan the rewrite engine chose) and every rule's persisted template
(Φ_C over a placeholder scan).

Each of the twelve node kinds renders itself as one SELECT over its
children's text. Every child becomes a derived table under a fresh alias
(``_t1``, ``_t2``, ...) whose output columns are named by position
(``c0 .. cn``), so duplicate or differently qualified field names never
clash; expressions are rebound onto those names through the child's
:class:`PlanSchema`. :func:`plan_sql` renames the root's columns back to
the plan's field names. Built and executed, the text returns the plan's
own rows: the same bag, in the same order below a root ``ORDER BY``.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.errors import PlanningError
from repro.minidb.expressions import ColumnRef, Expr, Literal, SortSpec
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

__all__ = ["plan_sql"]


def plan_sql(plan: LogicalNode) -> str:
    """SQL text computing *plan*, its columns named as the plan's."""
    source, alias = _Printer().derived(plan)
    items = ", ".join(f"{alias}.c{position} AS {field.name}"
                      for position, field in enumerate(plan.schema))
    return f"SELECT {items} FROM {source}"


def _columns(alias: str | None, count: int) -> list[ColumnRef]:
    """The positional output columns ``alias.c0 .. c<count-1>``."""
    return [ColumnRef(f"c{position}", alias) for position in range(count)]


def _bind(expr: Expr, schema: PlanSchema,
          columns: Sequence[ColumnRef]) -> Expr:
    """*expr* over *schema*, rebound onto the positional *columns*."""
    return expr.substitute({
        ref: columns[schema.resolve(ref.qualifier, ref.name)]
        for ref in expr.referenced_columns()})


def _items(exprs: Sequence[Expr], start: int = 0) -> str:
    """A select list naming *exprs* ``c<start>, c<start+1>, ...``."""
    return ", ".join(f"{expr.to_sql()} AS c{start + offset}"
                     for offset, expr in enumerate(exprs))


class _Printer:
    def __init__(self) -> None:
        self._aliases = 0

    def _alias(self) -> str:
        self._aliases += 1
        return f"_t{self._aliases}"

    def derived(self, node: LogicalNode) -> tuple[str, str]:
        """``(<node's SQL>) alias`` as a FROM item, and the alias."""
        text = self.sql(node)
        alias = self._alias()
        return f"({text}) {alias}", alias

    def sql(self, node: LogicalNode) -> str:
        if isinstance(node, LogicalRequalify):
            # Positional names carry no qualifier to re-bind.
            return self.sql(node.child)
        if isinstance(node, LogicalScan):
            alias = self._alias()
            stored = [ColumnRef(field.name, alias) for field in node.schema]
            return (f"SELECT {_items(stored)} "
                    f"FROM {node.table.name} {alias}")
        if isinstance(node, LogicalJoin):
            left, left_alias = self.derived(node.left)
            right, right_alias = self.derived(node.right)
            columns = (_columns(left_alias, len(node.left.schema))
                       + _columns(right_alias, len(node.right.schema)))
            head = f"SELECT {_items(columns)} FROM {left}"
            if node.condition is None and node.kind == "inner":
                return f"{head}, {right}"
            keyword = "JOIN" if node.kind == "inner" else "LEFT JOIN"
            condition = _bind(node.condition or Literal(True), node.schema,
                              columns)
            return f"{head} {keyword} {right} ON {condition.to_sql()}"
        if isinstance(node, LogicalUnion):
            keyword = "UNION ALL" if node.all_rows else "UNION"
            left, _ = self.derived(node.left)
            right, _ = self.derived(node.right)
            return f"SELECT * FROM {left} {keyword} SELECT * FROM {right}"
        if isinstance(node, LogicalSemiJoin):
            left, alias = self.derived(node.left)
            operand = _bind(node.left_expr, node.left.schema,
                            _columns(alias, len(node.left.schema)))
            keyword = "NOT IN" if node.negated else "IN"
            return (f"SELECT * FROM {left} WHERE {operand.to_sql()} "
                    f"{keyword} ({self.sql(node.right)})")
        child, alias = self.derived(node.children()[0])
        schema = node.children()[0].schema
        bind = partial(_bind, schema=schema,
                       columns=_columns(alias, len(schema)))
        if isinstance(node, LogicalFilter):
            predicate = bind(node.predicate).to_sql()
            return f"SELECT * FROM {child} WHERE {predicate}"
        if isinstance(node, LogicalProject):
            items = _items([bind(expr) for expr, _ in node.items])
            return f"SELECT {items} FROM {child}"
        if isinstance(node, LogicalWindow):
            calls = _items([bind(call) for call, _ in node.functions],
                           start=len(schema))
            return f"SELECT *, {calls} FROM {child}"
        if isinstance(node, LogicalAggregate):
            keys = [bind(expr) for expr, _ in node.group]
            calls = [bind(call) for call, _ in node.aggregates]
            text = f"SELECT {_items(keys + calls)} FROM {child}"
            if keys:
                text += " GROUP BY " + ", ".join(key.to_sql() for key in keys)
            return text
        if isinstance(node, LogicalDistinct):
            return f"SELECT DISTINCT * FROM {child}"
        if isinstance(node, LogicalSort):
            # Unqualified keys resolve against the select list's names.
            names = _columns(None, len(schema))
            keys = ", ".join(
                SortSpec(_bind(spec.expr, schema, names),
                         spec.ascending).to_sql() for spec in node.keys)
            return f"SELECT * FROM {child} ORDER BY {keys}"
        if isinstance(node, LogicalLimit):
            return f"SELECT * FROM {child} LIMIT {node.count}"
        raise PlanningError(f"cannot print {type(node).__name__} as SQL")

