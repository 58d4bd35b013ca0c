"""Lowering logical plans to costed physical plans.

The planner performs the optimizations the reproduction depends on:

* **predicate pushdown** (see ``optimizer.rules``), with the window
  barrier that motivates the paper's rewrite engine;
* **access-path selection** — single-column range predicates over
  indexed columns become index range scans, and a literal ``IN`` list
  on an indexed column a keyed scan, with exact matching-row counts
  probed from the index (standing in for DB2's index statistics);
* **greedy join ordering** over inner-join groups, hash joins for
  equi-predicates with the smaller side as build input;
* **sort avoidance / order sharing** — Window and Sort operators are
  planned without a sort whenever the input already carries the required
  order, which is what makes the expanded rewrite of q1 nearly free
  (Figure 7(c) of the paper);
* **cost estimation** on every operator, surfaced through EXPLAIN and
  used by the rewrite engine to choose among candidate rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanningError
from repro.minidb.catalog import Catalog
from repro.minidb.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    Literal,
    and_all,
)
from repro.minidb.index import IndexRange
from repro.minidb.optimizer.cardinality import SelectivityEstimator
from repro.minidb.optimizer.cost import CostModel
from repro.minidb.optimizer.rules import push_down_filters
from repro.minidb.optimizer.stats import StatsRepository
from repro.minidb.plan.builder import split_conjuncts
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
from repro.minidb.plan.physical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    IndexRangeScan,
    LimitOp,
    NestedLoopJoinOp,
    Ordering,
    PassThroughOp,
    PhysicalNode,
    ProjectOp,
    SemiJoinOp,
    SeqScan,
    SortOp,
    UnionAllOp,
)
from repro.minidb.plan.planschema import PlanSchema
from repro.minidb.plan.window import WindowFuncSpec, WindowOp

__all__ = ["Planner", "PlannerOptions"]


@dataclass
class PlannerOptions:
    """Feature toggles, mostly for ablation experiments and the
    optimizer-equivalence property tests."""

    use_indexes: bool = True
    order_sharing: bool = True
    push_filters: bool = True


class Planner:
    """Stateless-per-query physical planner."""

    def __init__(self, catalog: Catalog, stats: StatsRepository,
                 cost_model: CostModel | None = None,
                 options: PlannerOptions | None = None) -> None:
        self._catalog = catalog
        self._stats = stats
        self._cost = cost_model or CostModel()
        self._options = options or PlannerOptions()
        self._estimator = SelectivityEstimator(stats)

    # ------------------------------------------------------------------

    def plan(self, logical: LogicalNode) -> PhysicalNode:
        """Optimize and lower *logical* into an executable plan."""
        optimized = push_down_filters(logical) \
            if self._options.push_filters else logical
        return self._lower(optimized)

    # ------------------------------------------------------------------

    def _lower(self, node: LogicalNode) -> PhysicalNode:
        if isinstance(node, LogicalScan):
            return self._lower_scan(node, [])
        if isinstance(node, LogicalFilter):
            return self._lower_filter(node)
        if isinstance(node, LogicalProject):
            return self._lower_project(node)
        if isinstance(node, LogicalJoin):
            return self._lower_join_tree(node)
        if isinstance(node, LogicalSemiJoin):
            return self._lower_semi_join(node)
        if isinstance(node, LogicalAggregate):
            return self._lower_aggregate(node)
        if isinstance(node, LogicalWindow):
            return self._lower_window(node)
        if isinstance(node, LogicalDistinct):
            child = self._lower(node.child)
            op = DistinctOp(child)
            op.estimated_rows = self._estimate_distinct_rows(node, child)
            op.estimated_cost = (child.estimated_cost
                                 + self._cost.distinct(child.estimated_rows))
            return op
        if isinstance(node, LogicalUnion):
            left = self._lower(node.left)
            right = self._lower(node.right)
            op = UnionAllOp(left, right)
            op.estimated_rows = left.estimated_rows + right.estimated_rows
            op.estimated_cost = left.estimated_cost + right.estimated_cost
            return op
        if isinstance(node, LogicalSort):
            return self._lower_sort(node)
        if isinstance(node, LogicalLimit):
            child = self._lower(node.child)
            op = LimitOp(child, node.count)
            op.estimated_rows = min(float(node.count), child.estimated_rows)
            op.estimated_cost = child.estimated_cost
            return op
        if isinstance(node, LogicalRequalify):
            child = self._lower(node.child)
            op = PassThroughOp(child, child.schema.requalify(node.binding),
                               node.binding)
            op.estimated_rows = child.estimated_rows
            op.estimated_cost = child.estimated_cost
            return op
        raise PlanningError(f"cannot lower {type(node).__name__}")

    def _estimate_distinct_rows(self, node: LogicalDistinct,
                                child: PhysicalNode) -> float:
        """Distinct-row estimate, correlation-aware for sequence keys.

        The generic estimate is ``min(NDV, input rows)``. For the
        paper-critical pattern ``DISTINCT(project(key))`` under a range
        predicate on an order column of the same table (the join-back
        sequence list Π_epc(σ_rtime(R))), the per-group span statistic
        refines it: a sequence intersects the queried window only if its
        own short lifetime overlaps it, so the distinct count is roughly
        ``NDV * (window fraction + average sequence span fraction)``.
        """
        generic = max(1.0, child.estimated_rows * 0.5)
        if len(node.schema) != 1:
            return generic
        field = node.schema.fields[0]
        if field.origin is None:
            return min(generic, child.estimated_rows)
        table_name, key_column = field.origin
        table_stats = self._stats.get(table_name)
        if table_stats is None:
            return generic
        key_stats = table_stats.column(key_column)
        if key_stats is None or not key_stats.ndv:
            return generic
        ndv = float(key_stats.ndv)
        estimate = min(ndv, child.estimated_rows)
        # Look for range bounds on a correlated order column.
        for logical in node.walk():
            if not isinstance(logical, LogicalFilter):
                continue
            for order_column, fraction in self._range_fractions(
                    logical.predicate, logical.child.schema, table_name):
                span = table_stats.span_fraction(key_column, order_column)
                if span is None:
                    continue
                correlated = ndv * min(1.0, fraction + span)
                estimate = min(estimate, max(1.0, correlated))
        return max(1.0, estimate)

    def _range_fractions(self, predicate: Expr, schema,
                         table_name: str):
        """(order column, selected fraction) pairs implied by range
        conjuncts of *predicate* over columns of *table_name*."""
        from repro.analysis.linear import normalize_comparison

        bounds: dict[str, list] = {}
        for conjunct in split_conjuncts(predicate):
            normalized = normalize_comparison(conjunct)
            if normalized is None:
                continue
            form, op = normalized
            ref = form.single_reference()
            if ref is None:
                negated = form.negate()
                ref = negated.single_reference()
                if ref is None:
                    continue
                flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                if op not in flip:
                    continue
                op = flip[op]
                form = negated
            if op in ("=", "!="):
                continue
            try:
                position = schema.resolve(ref.qualifier, ref.name)
            except PlanningError:
                continue
            origin = schema.fields[position].origin
            if origin is None or origin[0] != table_name:
                continue
            entry = bounds.setdefault(origin[1], [None, None])
            value = -form.constant
            if op in ("<", "<="):
                entry[1] = value if entry[1] is None else min(entry[1], value)
            else:
                entry[0] = value if entry[0] is None else max(entry[0], value)
        table_stats = self._stats.get(table_name)
        if table_stats is None:
            return
        for column, (low, high) in bounds.items():
            column_stats = table_stats.column(column)
            if column_stats is None:
                continue
            yield column, column_stats.range_fraction(low, high)

    # -- scans and filters ------------------------------------------------

    def _table_rows(self, node: LogicalScan) -> float:
        stats = self._stats.get(node.table.name)
        if stats is not None:
            return float(stats.row_count)
        return float(len(node.table))

    def _lower_scan(self, node: LogicalScan,
                    conjuncts: list[Expr]) -> PhysicalNode:
        """Plan base-table access for *node* filtered by *conjuncts*."""
        table = node.table
        base_rows = self._table_rows(node)
        access: PhysicalNode | None = None
        residual = list(conjuncts)
        if self._options.use_indexes and conjuncts:
            choice = self._choose_index(node, conjuncts)
            if choice is not None:
                index, probe, used, matching = choice
                if isinstance(probe, IndexRange):
                    access = IndexRangeScan(table, node.schema, index, probe)
                else:
                    access = SeqScan(table, node.schema, index, probe)
                access.estimated_rows = float(matching)
                access.estimated_cost = self._cost.index_scan(matching)
                residual = [c for c in conjuncts if c not in used]
        if access is None:
            access = SeqScan(table, node.schema)
            access.estimated_rows = base_rows
            access.estimated_cost = self._cost.seq_scan(base_rows)
        if not residual:
            return access
        predicate = and_all(residual)
        op = FilterOp(access, predicate)
        # Conditional selectivity: the index range already enforced part
        # of the predicate, so estimate the residual as
        # P(all conjuncts) / P(index range) rather than multiplying the
        # overlapping restriction in twice (matters for the expanded
        # rewrite's "bound AND (s OR cc)" shape, where the factored bound
        # repeats inside the disjunction).
        joint = self._estimator.selectivity(and_all(conjuncts), node.schema)
        access_fraction = max(access.estimated_rows / max(base_rows, 1.0),
                              1e-9)
        selectivity = min(1.0, joint / access_fraction)
        op.estimated_rows = max(1.0, access.estimated_rows * selectivity)
        op.estimated_cost = (access.estimated_cost
                             + self._cost.filter(access.estimated_rows,
                                                 len(residual)))
        return op

    def _choose_index(self, node: LogicalScan, conjuncts: list[Expr]):
        """Pick the most selective usable index, or None.

        Returns (index, probe, conjuncts-consumed, matching entries). The
        probe is an :class:`IndexRange` for range and equality conjuncts,
        or a tuple of keys for a literal ``col IN (...)``; an IN list is
        never consumed, so it stays a filter over the keyed scan.
        """
        best = None
        by_column: dict[str, list[tuple[Expr, str, object]]] = {}
        for conjunct in conjuncts:
            keyed = self._parse_in_list(conjunct, node)
            if keyed is not None:
                column, keys = keyed
                index = node.table.index_on(column)
                if index is not None:
                    matching = index.count_of(keys)
                    if best is None or matching < best[3]:
                        best = (index, keys, [], matching)
                continue
            parsed = self._parse_range_conjunct(conjunct, node)
            if parsed is None:
                continue
            ref, op, value = parsed
            by_column.setdefault(ref.name, []).append((conjunct, op, value))
        for column, entries in by_column.items():
            index = node.table.index_on(column)
            if index is None:
                continue
            key_range = IndexRange()
            used: list[Expr] = []
            for conjunct, op, value in entries:
                if op == "=":
                    if (key_range.low is None or value > key_range.low):
                        key_range.low = value
                        key_range.low_inclusive = True
                    if (key_range.high is None or value < key_range.high):
                        key_range.high = value
                        key_range.high_inclusive = True
                elif op in (">", ">="):
                    if key_range.low is None or value >= key_range.low:
                        key_range.low = value
                        key_range.low_inclusive = op == ">="
                else:  # "<", "<="
                    if key_range.high is None or value <= key_range.high:
                        key_range.high = value
                        key_range.high_inclusive = op == "<="
                used.append(conjunct)
            if key_range.low is None and key_range.high is None:
                continue
            matching = index.count(key_range)
            if best is None or matching < best[3]:
                best = (index, key_range, used, matching)
        if best is None:
            return None
        # An index scan that matches nearly everything is slower than a
        # sequential scan; fall back in that case. The comparison uses
        # the statistics row count (like every other estimate), not the
        # live list length — under pinned snapshot statistics the live
        # table may already be longer, and the plan choice must be
        # reproducible from the pinned state alone.
        if best[3] > 0.8 * max(self._table_rows(node), 1.0):
            return None
        return best

    def _parse_in_list(self, conjunct: Expr, node: LogicalScan):
        """Decompose ``col IN (literal, ...)`` into (column, keys) or None.

        The keys are the distinct non-NULL items under ``==`` (so ``1``
        and ``1.0`` are one key), in first-seen order. ``NOT IN`` and a
        NaN item (unordered, so no index slot holds it) return None.
        """
        if not isinstance(conjunct, InList) or conjunct.negated:
            return None
        operand = conjunct.operand
        if not isinstance(operand, ColumnRef) \
                or not node.schema.has(operand.qualifier, operand.name):
            return None
        if not all(isinstance(item, Literal) for item in conjunct.items):
            return None
        values = [item.value for item in conjunct.items]
        if any(value != value for value in values):
            return None
        keys = dict.fromkeys(value for value in values if value is not None)
        return operand.name, tuple(keys)

    def _parse_range_conjunct(self, conjunct: Expr, node: LogicalScan):
        """Decompose ``col op literal`` (either side) or return None."""
        if not isinstance(conjunct, BinaryOp):
            return None
        if conjunct.op not in ("=", "<", "<=", ">", ">="):
            return None
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if not isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            left, right = right, left
            op = flipped.get(op, op)
        if not isinstance(left, ColumnRef):
            return None
        if not node.schema.has(left.qualifier, left.name):
            return None
        value = SelectivityEstimator._as_literal(right)
        if value is None:
            return None
        return left, op, value

    def _lower_filter(self, node: LogicalFilter) -> PhysicalNode:
        conjuncts = split_conjuncts(node.predicate)
        if isinstance(node.child, LogicalScan):
            return self._lower_scan(node.child, conjuncts)
        child = self._lower(node.child)
        # FilterOp binds against the *physical* child schema: join
        # reordering may lay fields out differently from the logical
        # child.
        op = FilterOp(child, node.predicate)
        selectivity = self._estimator.selectivity(node.predicate,
                                                  child.schema)
        op.estimated_rows = max(1.0, child.estimated_rows * selectivity)
        op.estimated_cost = (child.estimated_cost
                             + self._cost.filter(child.estimated_rows,
                                                 len(conjuncts)))
        return op

    # -- project ----------------------------------------------------------

    def _lower_project(self, node: LogicalProject) -> PhysicalNode:
        child = self._lower(node.child)
        passthrough: dict[int, int] = {}
        for out_position, (expr, _) in enumerate(node.items):
            if isinstance(expr, ColumnRef):
                passthrough[out_position] = child.schema.resolve(
                    expr.qualifier, expr.name)
        op = ProjectOp(child, node.schema,
                       [expr for expr, _ in node.items], passthrough)
        op.estimated_rows = child.estimated_rows
        op.estimated_cost = (child.estimated_cost
                             + self._cost.project(child.estimated_rows,
                                                  len(node.items)))
        return op

    # -- joins -------------------------------------------------------------

    def _lower_join_tree(self, node: LogicalJoin) -> PhysicalNode:
        if node.kind == "left":
            return self._lower_single_join(node)
        leaves: list[LogicalNode] = []
        predicates: list[Expr] = []
        self._flatten_inner_joins(node, leaves, predicates)
        if len(leaves) == 1:
            raise PlanningError("inner join flattening produced one leaf")
        relations = [self._lower(leaf) for leaf in leaves]
        return self._greedy_join(relations, predicates)

    def _flatten_inner_joins(self, node: LogicalNode,
                             leaves: list[LogicalNode],
                             predicates: list[Expr]) -> None:
        if isinstance(node, LogicalJoin) and node.kind == "inner":
            self._flatten_inner_joins(node.left, leaves, predicates)
            self._flatten_inner_joins(node.right, leaves, predicates)
            predicates.extend(split_conjuncts(node.condition))
        else:
            leaves.append(node)

    def _schema_resolves(self, expr: Expr, schema) -> bool:
        return all(schema.has(ref.qualifier, ref.name)
                   for ref in expr.referenced_columns())

    def _column_ndv(self, ref: ColumnRef, schema) -> float | None:
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
        return float(column_stats.ndv) if column_stats else None

    def _estimate_join_rows(self, left: PhysicalNode, right: PhysicalNode,
                            equi_pairs: list[tuple[Expr, Expr]],
                            residual_count: int) -> float:
        rows = left.estimated_rows * right.estimated_rows
        for left_key, right_key in equi_pairs:
            left_ndv = (self._column_ndv(left_key, left.schema)
                        if isinstance(left_key, ColumnRef) else None)
            right_ndv = (self._column_ndv(right_key, right.schema)
                         if isinstance(right_key, ColumnRef) else None)
            candidates = [ndv for ndv in (left_ndv, right_ndv)
                          if ndv and ndv > 0]
            divisor = max(candidates) if candidates else 10.0
            rows /= divisor
        rows *= (1.0 / 3.0) ** residual_count
        return max(rows, 1.0)

    def _split_join_predicate(self, predicate: Expr, left: PhysicalNode,
                              right: PhysicalNode, combined: PlanSchema):
        """Classify one conjunct as an equi-pair or residual, if applicable.

        *combined* is the pair's joined schema (left fields, then right).
        Returns ("equi", (left_expr, right_expr)) with sides oriented to
        (left, right); ("residual", predicate); or None when the conjunct
        does not resolve over the pair.
        """
        if not self._schema_resolves(predicate, combined):
            return None
        if isinstance(predicate, BinaryOp) and predicate.op == "=":
            first, second = predicate.left, predicate.right
            if self._schema_resolves(first, left.schema) \
                    and self._schema_resolves(second, right.schema):
                return "equi", (first, second)
            if self._schema_resolves(second, left.schema) \
                    and self._schema_resolves(first, right.schema):
                return "equi", (second, first)
        return "residual", predicate

    def _build_hash_join(self, left: PhysicalNode, right: PhysicalNode,
                         equi_pairs: list[tuple[Expr, Expr]],
                         residuals: list[Expr],
                         kind: str = "inner") -> PhysicalNode:
        schema = left.schema.concat(right.schema)
        if equi_pairs:
            op: PhysicalNode = HashJoinOp(
                left, right, schema, [expr for expr, _ in equi_pairs],
                [expr for _, expr in equi_pairs], kind, and_all(residuals))
            cost = self._cost.hash_join(right.estimated_rows,
                                        left.estimated_rows, 0.0)
        else:
            op = NestedLoopJoinOp(left, right, schema, and_all(residuals),
                                  kind)
            cost = self._cost.nested_loop_join(left.estimated_rows,
                                               right.estimated_rows)
        op.estimated_rows = self._estimate_join_rows(
            left, right, equi_pairs, len(residuals))
        if kind == "left":
            op.estimated_rows = max(op.estimated_rows, left.estimated_rows)
        op.estimated_cost = (left.estimated_cost + right.estimated_cost
                             + cost)
        return op

    def _greedy_join(self, relations: list[PhysicalNode],
                     predicates: list[Expr]) -> PhysicalNode:
        remaining_predicates = list(predicates)
        remaining = list(relations)
        # Start from the relation with the smallest estimated cardinality.
        current = min(remaining, key=lambda rel: rel.estimated_rows)
        remaining.remove(current)
        while remaining:
            best_choice = None
            for candidate in remaining:
                combined = current.schema.concat(candidate.schema)
                equi_pairs: list[tuple[Expr, Expr]] = []
                residuals: list[Expr] = []
                for predicate in remaining_predicates:
                    classified = self._split_join_predicate(
                        predicate, current, candidate, combined)
                    if classified is None:
                        continue
                    kind, payload = classified
                    if kind == "equi":
                        equi_pairs.append(payload)
                    else:
                        residuals.append(payload)
                connected = bool(equi_pairs or residuals)
                rows = self._estimate_join_rows(current, candidate,
                                                equi_pairs, len(residuals))
                ranking = (not connected, rows, candidate.estimated_rows)
                if best_choice is None or ranking < best_choice[0]:
                    best_choice = (ranking, candidate, equi_pairs, residuals,
                                   combined)
            _, candidate, equi_pairs, residuals, combined = best_choice
            remaining_predicates = [
                predicate for predicate in remaining_predicates
                if self._split_join_predicate(predicate, current, candidate,
                                              combined) is None]
            # Orient the hash join so the smaller input is the build side.
            if candidate.estimated_rows <= current.estimated_rows:
                current = self._build_hash_join(current, candidate,
                                                equi_pairs, residuals)
            else:
                flipped = [(right, left) for left, right in equi_pairs]
                current = self._build_hash_join(candidate, current,
                                                flipped, residuals)
            remaining.remove(candidate)
        if remaining_predicates:
            predicate = and_all(remaining_predicates)
            filtered = FilterOp(current, predicate)
            selectivity = self._estimator.selectivity(predicate,
                                                      current.schema)
            filtered.estimated_rows = max(
                1.0, current.estimated_rows * selectivity)
            filtered.estimated_cost = (
                current.estimated_cost
                + self._cost.filter(current.estimated_rows,
                                    len(remaining_predicates)))
            current = filtered
        return current

    def _lower_single_join(self, node: LogicalJoin) -> PhysicalNode:
        left = self._lower(node.left)
        right = self._lower(node.right)
        combined = left.schema.concat(right.schema)
        equi_pairs: list[tuple[Expr, Expr]] = []
        residuals: list[Expr] = []
        for predicate in split_conjuncts(node.condition):
            classified = self._split_join_predicate(predicate, left, right,
                                                    combined)
            if classified is None:
                raise PlanningError(
                    f"join condition {predicate.to_sql()} does not resolve "
                    "over the join inputs")
            kind, payload = classified
            if kind == "equi":
                equi_pairs.append(payload)
            else:
                residuals.append(payload)
        return self._build_hash_join(left, right, equi_pairs, residuals,
                                     node.kind)

    # -- semi join -----------------------------------------------------------

    def _lower_semi_join(self, node: LogicalSemiJoin) -> PhysicalNode:
        left = self._lower(node.left)
        right = self._lower(node.right)
        op = SemiJoinOp(left, right, node.left_expr, node.negated)
        fraction = 0.5
        if isinstance(node.left_expr, ColumnRef):
            ndv = self._column_ndv(node.left_expr, node.left.schema)
            if ndv:
                fraction = min(1.0, right.estimated_rows / ndv)
        if node.negated:
            fraction = 1.0 - fraction
        op.estimated_rows = max(1.0, left.estimated_rows * fraction)
        op.estimated_cost = (left.estimated_cost + right.estimated_cost
                             + self._cost.semi_join(right.estimated_rows,
                                                    left.estimated_rows))
        return op

    # -- aggregate / window ----------------------------------------------

    def _lower_aggregate(self, node: LogicalAggregate) -> PhysicalNode:
        child = self._lower(node.child)
        specs = [(call.name, call.argument, call.distinct)
                 for call, _ in node.aggregates]
        op = AggregateOp(child, node.schema,
                         [expr for expr, _ in node.group], specs)
        group_rows = 1.0
        for expr, _ in node.group:
            ndv = (self._column_ndv(expr, node.child.schema)
                   if isinstance(expr, ColumnRef) else None)
            group_rows *= ndv if ndv else 10.0
        op.estimated_rows = max(1.0, min(group_rows, child.estimated_rows))
        op.estimated_cost = (child.estimated_cost
                             + self._cost.aggregate(child.estimated_rows,
                                                    len(specs)))
        return op

    def _required_window_ordering(self, node: LogicalWindow,
                                  schema) -> Ordering | None:
        """The (position, asc) order a window needs, if key columns allow.

        Positions refer to *schema* (the physical child's). Returns None
        when partition/order keys are not plain column references, in
        which case order sharing cannot be proven.
        """
        required: list[tuple[int, bool]] = []
        for expr in node.partition_by:
            if not isinstance(expr, ColumnRef):
                return None
            required.append((schema.resolve(expr.qualifier, expr.name), True))
        for spec in node.order_by:
            if not isinstance(spec.expr, ColumnRef):
                return None
            required.append((schema.resolve(spec.expr.qualifier,
                                            spec.expr.name),
                             spec.ascending))
        return tuple(required)

    def _lower_window(self, node: LogicalWindow) -> PhysicalNode:
        child = self._lower(node.child)
        specs = [WindowFuncSpec(call.name, call.argument, call.frame,
                                has_order=bool(node.order_by),
                                offset=call.offset)
                 for call, _ in node.functions]
        required = self._required_window_ordering(node, child.schema)
        presorted = False
        if required is not None and self._options.order_sharing:
            presorted = child.ordering[:len(required)] == required
        ordering_out: Ordering = child.ordering if presorted else \
            (required or ())
        window_schema = child.schema
        for _, name in node.functions:
            position = node.schema.resolve(None, name)
            window_schema = window_schema.append(node.schema.fields[position])
        op = WindowOp(child, window_schema, list(node.partition_by),
                      [(spec.expr, spec.ascending) for spec in node.order_by],
                      specs, presorted=presorted, ordering=ordering_out)
        op.estimated_rows = child.estimated_rows
        op.estimated_cost = (child.estimated_cost
                             + self._cost.window(child.estimated_rows,
                                                 len(specs),
                                                 needs_sort=not presorted))
        return op

    # -- sort ---------------------------------------------------------------

    def _lower_sort(self, node: LogicalSort) -> PhysicalNode:
        child = self._lower(node.child)
        schema = child.schema
        target: list[tuple[int, bool]] = []
        all_columns = True
        for spec in node.keys:
            if isinstance(spec.expr, ColumnRef):
                target.append((schema.resolve(spec.expr.qualifier,
                                              spec.expr.name),
                               spec.ascending))
            else:
                all_columns = False
                break
        if all_columns and self._options.order_sharing \
                and child.ordering[:len(target)] == tuple(target):
            return child
        ordering = tuple(target) if all_columns else ()
        op = SortOp(child, [(spec.expr, spec.ascending)
                            for spec in node.keys], ordering)
        op.estimated_rows = child.estimated_rows
        op.estimated_cost = (child.estimated_cost
                             + self._cost.sort(child.estimated_rows))
        return op
