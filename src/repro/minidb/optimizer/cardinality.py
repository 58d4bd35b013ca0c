"""Selectivity and cardinality estimation.

Estimates are deliberately textbook-simple (System-R style): per-conjunct
selectivities multiplied with independence assumed, equality 1/NDV,
ranges from histograms, equi-joins 1/max(NDV). What matters for the
reproduction is that the estimates *rank* candidate rewrites sensibly —
the rewrite engine picks among m+1 candidate statements by comparing
root-plan costs, exactly as the paper does with DB2's estimates.
"""

from __future__ import annotations

from repro.errors import PlanningError
from repro.minidb.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.minidb.optimizer.stats import ColumnStats, StatsRepository
from repro.minidb.plan.planschema import PlanSchema

__all__ = ["SelectivityEstimator", "DEFAULT_SELECTIVITY"]

#: Fallback selectivity for predicates the estimator cannot analyze.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Floor applied to every estimate to avoid zero-cardinality plans.
MIN_SELECTIVITY = 1e-6


class SelectivityEstimator:
    """Estimates predicate selectivities against plan schemas."""

    def __init__(self, stats: StatsRepository) -> None:
        self._stats = stats

    # ------------------------------------------------------------------

    def _column_stats(self, ref: ColumnRef,
                      schema: PlanSchema) -> ColumnStats | None:
        stats = self._column_stats_with_rows(ref, schema)
        return stats[0] if stats else None

    def _column_stats_with_rows(
            self, ref: ColumnRef,
            schema: PlanSchema) -> tuple[ColumnStats, int] | None:
        try:
            position = schema.resolve(ref.qualifier, ref.name)
        except PlanningError:
            return None
        origin = schema.fields[position].origin
        if origin is None:
            return None
        table_stats = self._stats.get(origin[0])
        if table_stats is None:
            return None
        column_stats = table_stats.column(origin[1])
        if column_stats is None:
            return None
        return column_stats, table_stats.row_count

    @staticmethod
    def _as_literal(expr: Expr):
        """Fold Literal and simple literal arithmetic to a Python value."""
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, UnaryOp) and expr.op == "-":
            inner = SelectivityEstimator._as_literal(expr.operand)
            return None if inner is None else -inner
        if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*", "/"):
            left = SelectivityEstimator._as_literal(expr.left)
            right = SelectivityEstimator._as_literal(expr.right)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            return left / right if right else None
        return None

    # ------------------------------------------------------------------

    def selectivity(self, predicate: Expr, schema: PlanSchema) -> float:
        """Estimated fraction of rows satisfying *predicate*."""
        estimate = self._selectivity(predicate, schema)
        return min(1.0, max(MIN_SELECTIVITY, estimate))

    def _selectivity(self, predicate: Expr, schema: PlanSchema) -> float:
        if isinstance(predicate, BinaryOp):
            if predicate.op == "and":
                return (self._selectivity(predicate.left, schema)
                        * self._selectivity(predicate.right, schema))
            if predicate.op == "or":
                left = self._selectivity(predicate.left, schema)
                right = self._selectivity(predicate.right, schema)
                return left + right - left * right
            if predicate.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison_selectivity(predicate, schema)
        if isinstance(predicate, UnaryOp) and predicate.op == "not":
            return 1.0 - self._selectivity(predicate.operand, schema)
        if isinstance(predicate, InList):
            return self._in_list_selectivity(predicate, schema)
        if isinstance(predicate, InSubquery):
            return DEFAULT_SELECTIVITY
        if isinstance(predicate, IsNull):
            return self._is_null_selectivity(predicate, schema)
        if isinstance(predicate, FuncCall) and predicate.name == "like":
            return 0.1
        if isinstance(predicate, Literal):
            return 1.0 if predicate.value is True else 0.0
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, predicate: BinaryOp,
                                schema: PlanSchema) -> float:
        left, right = predicate.left, predicate.right
        op = predicate.op
        if not isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            op = flipped.get(op, op)
            left, right = right, left
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            left_stats = self._column_stats(left, schema)
            right_stats = self._column_stats(right, schema)
            if op == "=":
                left_ndv = left_stats.ndv if left_stats else 0
                right_ndv = right_stats.ndv if right_stats else 0
                largest = max(left_ndv, right_ndv)
                return 1.0 / largest if largest else DEFAULT_SELECTIVITY
            return DEFAULT_SELECTIVITY
        if isinstance(left, ColumnRef):
            value = self._as_literal(right)
            if value is None:
                return DEFAULT_SELECTIVITY
            stats = self._column_stats(left, schema)
            if stats is None:
                return DEFAULT_SELECTIVITY
            if op == "=":
                return 1.0 / stats.ndv if stats.ndv else 0.0
            if op == "!=":
                return 1.0 - (1.0 / stats.ndv if stats.ndv else 0.0)
            if op in ("<", "<="):
                return stats.range_fraction(None, value)
            return stats.range_fraction(value, None)
        return DEFAULT_SELECTIVITY

    def _in_list_selectivity(self, predicate: InList,
                             schema: PlanSchema) -> float:
        if not isinstance(predicate.operand, ColumnRef):
            return DEFAULT_SELECTIVITY
        stats = self._column_stats(predicate.operand, schema)
        if stats is None or not stats.ndv:
            return DEFAULT_SELECTIVITY
        base = min(1.0, len(predicate.items) / stats.ndv)
        return 1.0 - base if predicate.negated else base

    def _is_null_selectivity(self, predicate: IsNull,
                             schema: PlanSchema) -> float:
        if not isinstance(predicate.operand, ColumnRef):
            return DEFAULT_SELECTIVITY
        resolved = self._column_stats_with_rows(predicate.operand, schema)
        if resolved is None:
            return 0.05
        stats, row_count = resolved
        fraction = stats.null_count / row_count if row_count else 0.0
        return 1.0 - fraction if predicate.negated else fraction
