"""Physical (executable) plan operators.

Operators are pull-based. Each one implements ``batches()``, which
yields :class:`RowBatch` columnar chunks and evaluates whole chunks
through batch-compiled expressions (:meth:`Expr.bind_batch`) instead of
calling a closure per row. ``rows()`` is a thin adapter that re-yields
the rows of those batches.

The tuple-at-a-time reference that results are checked against is not
here: it is ``repro.fuzz.reference``, an evaluator over the *logical*
plan that shares no operator or kernel code with this module.

Each operator carries:

* ``schema`` — its output :class:`PlanSchema`;
* ``estimated_rows`` / ``estimated_cost`` — filled in by the planner's
  cost model and surfaced through EXPLAIN (the rewrite engine compares
  root costs of candidate rewrites, as the paper does with DB2's
  estimates);
* ``ordering`` — the output order the operator *guarantees*, as a tuple
  of ``(column position, ascending)`` pairs. The planner uses it to skip
  redundant sorts (the paper's "order sharing" between cleansing windows
  and query windows);
* ``actual_rows`` / ``actual_batches`` — incremented during execution,
  for EXPLAIN-ANALYZE style inspection and for the benchmark harness's
  work metrics. ``actual_rows`` does not depend on the batch size.
"""

from __future__ import annotations

from itertools import compress, islice
from typing import Any, Iterator, Sequence

from repro.errors import ExecutionError
from repro.minidb.expressions import BatchBound, Expr, true_positions
from repro.minidb.index import IndexRange, SortedIndex
from repro.minidb.plan.planschema import PlanSchema
from repro.minidb.table import Table
from repro.minidb.types import sort_key_column
from repro.minidb.vector import RowBatch, concat_columns, configured_batch_size

__all__ = [
    "PhysicalNode",
    "SeqScan",
    "IndexRangeScan",
    "FilterOp",
    "ProjectOp",
    "HashJoinOp",
    "NestedLoopJoinOp",
    "SemiJoinOp",
    "SortOp",
    "AggregateOp",
    "DistinctOp",
    "UnionAllOp",
    "LimitOp",
    "Ordering",
]

#: A guaranteed output order: ((column position, ascending), ...).
Ordering = tuple[tuple[int, bool], ...]


def _resolve_batch_size(size: int | None) -> int:
    """The effective chunk size for one ``batches()`` invocation."""
    if size is not None and size > 0:
        return size
    return configured_batch_size()


def _transposed(rows: list[tuple]) -> RowBatch:
    """A non-empty row list as a batch of fresh column lists."""
    return RowBatch([list(column) for column in zip(*rows)], len(rows))


def _bind_all(exprs: Sequence[Expr], schema: PlanSchema) -> list[BatchBound]:
    """*exprs* compiled to batch kernels over rows of *schema*."""
    resolver = schema.resolver()
    return [expr.bind_batch(resolver) for expr in exprs]


class PhysicalNode:
    """Base class for executable operators.

    The hierarchy is slotted: plans for large queries allocate thousands
    of nodes, and per-row inner loops read operator attributes, so the
    fixed layout saves both memory and a dict lookup per access.
    """

    __slots__ = ("schema", "ordering", "estimated_rows", "estimated_cost",
                 "actual_rows", "actual_batches")

    schema: PlanSchema
    ordering: Ordering
    estimated_rows: float
    estimated_cost: float

    def __init__(self) -> None:
        self.ordering = ()
        self.estimated_rows = 0.0
        self.estimated_cost = 0.0
        self.actual_rows = 0
        self.actual_batches = 0

    def inputs(self) -> Sequence["PhysicalNode"]:
        return ()

    def rows(self) -> Iterator[tuple]:
        """Yield output tuples: the rows of :meth:`batches`, in order."""
        for batch in self.batches():
            yield from batch.rows()

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        """Yield output as columnar chunks of about *size* rows
        (``REPRO_BATCH_SIZE`` when None)."""
        raise NotImplementedError

    def _emit(self, batch: RowBatch) -> RowBatch:
        """*batch*, counted into ``actual_rows`` / ``actual_batches``."""
        self.actual_rows += batch.length
        self.actual_batches += 1
        return batch

    def label(self) -> str:
        return type(self).__name__

    def explain(self, depth: int = 0, analyze: bool = False) -> str:
        """Render this subtree as indented EXPLAIN text.

        With ``analyze=True`` (after executing the plan) each line also
        reports the rows the operator actually produced, EXPLAIN ANALYZE
        style.
        """
        line = (f"{'  ' * depth}{self.label()}  "
                f"[rows={self.estimated_rows:.0f} "
                f"cost={self.estimated_cost:.0f}]")
        if analyze:
            line += f" (actual rows={self.actual_rows})"
        parts = [line]
        parts.extend(child.explain(depth + 1, analyze)
                     for child in self.inputs())
        return "\n".join(parts)

    def walk(self) -> Iterator["PhysicalNode"]:
        yield self
        for child in self.inputs():
            yield from child.walk()

    def reset_metrics(self) -> None:
        """Zero the per-execution counters across the whole subtree.

        Prepared plans are re-executed; without a reset, ``actual_rows``
        and ``sorted_rows`` would accumulate across runs and corrupt
        :class:`ExecutionMetrics`.
        """
        for node in self.walk():
            node.actual_rows = 0
            node.actual_batches = 0
            if hasattr(node, "sorted_rows"):
                node.sorted_rows = 0
            if hasattr(node, "input_rows"):
                node.input_rows = 0


class SeqScan(PhysicalNode):
    """Full scan of a stored table in insertion order.

    ``visible_count``/``visible_rows`` pin the scan to an MVCC
    snapshot (see ``minidb.snapshot``). With ``visible_count`` set the
    scan reads only positions below the bound — appends only extend
    the row store, so the bounded prefix is exactly the pinned epoch.
    ``visible_rows`` additionally redirects the scan to a frozen row
    prefix when the live store was rewritten (``replace_rows``/drop)
    after the snapshot was pinned. Both are None for live execution.
    """

    __slots__ = ('table', 'visible_count', 'visible_rows')

    def __init__(self, table: Table, schema: PlanSchema) -> None:
        super().__init__()
        self.table = table
        self.schema = schema
        self.visible_count: int | None = None
        self.visible_rows = None

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        if self.visible_rows is not None:
            yield from self._frozen_batches(size)
            return
        columns = self.table.columnar()
        bound = self.visible_count
        total = len(self.table.rows) if bound is None else bound
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            yield self._emit(RowBatch([column[lo:hi] for column in columns],
                                      hi - lo))

    def _frozen_batches(self, size: int) -> Iterator[RowBatch]:
        """Batch path over a detached snapshot's frozen row prefix.

        The frozen prefix is a plain row list from a retired epoch, so
        the columnar cache (which reflects the live store) cannot be
        used; rows are transposed per chunk instead.
        """
        rows = self.visible_rows
        total = len(rows)
        if self.visible_count is not None:
            total = min(total, self.visible_count)
        for lo in range(0, total, size):
            chunk = rows[lo:min(lo + size, total)]
            if chunk:
                yield self._emit(_transposed(chunk))

    def label(self) -> str:
        return f"SeqScan({self.table.name})"


class IndexRangeScan(PhysicalNode):
    """Range scan through a sorted index; output is ordered by the key.

    ``visible_count``/``visible_rows`` pin the scan to an MVCC
    snapshot, mirroring :class:`SeqScan`. With only ``visible_count``
    set, index entries at positions past the bound (appended after the
    pin) are skipped — the index yields in key order, so later
    positions are interleaved and must be filtered, not truncated.
    With ``visible_rows`` set (the store was rewritten after the pin)
    the live index no longer describes the frozen prefix, so the scan
    filters and sorts the frozen rows directly, reproducing the index's
    output order exactly: equal keys come out in position order both
    ways (``bisect_right`` insertion and a stable sort agree).
    """

    __slots__ = ('table', 'index', 'key_range', 'visible_count',
                 'visible_rows')

    def __init__(self, table: Table, schema: PlanSchema,
                 index: SortedIndex, key_range: IndexRange) -> None:
        super().__init__()
        self.table = table
        self.schema = schema
        self.index = index
        self.key_range = key_range
        key_position = table.schema.position_of(index.column)
        self.ordering = ((key_position, True),)
        self.visible_count: int | None = None
        self.visible_rows = None

    def _detached_rows(self) -> list[tuple]:
        key_position = self.table.schema.position_of(self.index.column)
        source = islice(iter(self.visible_rows), self.visible_count)
        selected = [row for row in source
                    if self.key_range.contains(row[key_position])]
        selected.sort(key=lambda row: row[key_position])
        return selected

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        if self.visible_rows is not None:
            rows = self._detached_rows()
            for lo in range(0, len(rows), size):
                yield self._emit(_transposed(rows[lo:lo + size]))
            return
        columns = self.table.columnar()
        bound = self.visible_count
        chunk: list[int] = []
        for position in self.index.scan(self.key_range):
            if bound is not None and position >= bound:
                continue
            chunk.append(position)
            if len(chunk) >= size:
                yield self._emit(self._gather(columns, chunk))
                chunk = []
        if chunk:
            yield self._emit(self._gather(columns, chunk))

    @staticmethod
    def _gather(columns: list[list], positions: list[int]) -> RowBatch:
        return RowBatch([[column[p] for p in positions]
                         for column in columns], len(positions))

    def label(self) -> str:
        return (f"IndexRangeScan({self.table.name}.{self.index.column} "
                f"{self.key_range!r})")


class FilterOp(PhysicalNode):
    """Keeps rows where the predicate evaluates to TRUE.

    Each chunk's predicate values become a selection vector of the
    surviving positions; ``input_rows`` records how many rows the
    predicate saw, so :class:`ExecutionMetrics` can report
    selection-vector density.
    """

    __slots__ = ('child', 'predicate', '_batch_bound', 'input_rows')

    def __init__(self, child: PhysicalNode, predicate: Expr) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate
        self._batch_bound: BatchBound = predicate.bind_batch(
            child.schema.resolver())
        self.input_rows = 0
        self.schema = child.schema
        self.ordering = child.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        batch_bound = self._batch_bound
        for batch in self.child.batches(size):
            self.input_rows += batch.length
            selected = true_positions(batch_bound(batch))
            if not selected:
                continue
            out = batch if len(selected) == batch.length \
                else batch.take(selected)
            yield self._emit(out)

    def label(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


class ProjectOp(PhysicalNode):
    """Computes the output columns from the select-list expressions.

    ``passthrough`` maps output positions to input positions for items
    that are plain column references; it is used to translate the input's
    ordering property through the projection, and lets those items reuse
    the child's column lists without copying.
    """

    __slots__ = ('child', '_items')

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 items: Sequence[Expr],
                 passthrough: dict[int, int]) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        resolver = child.schema.resolver()
        #: Per output column: ("col", input position) or ("expr", kernel).
        self._items: list[tuple[str, Any]] = [
            ("col", passthrough[position]) if position in passthrough
            else ("expr", expr.bind_batch(resolver))
            for position, expr in enumerate(items)]
        ordering: list[tuple[int, bool]] = []
        inverse = {inp: out for out, inp in passthrough.items()}
        for position, ascending in child.ordering:
            if position not in inverse:
                break
            ordering.append((inverse[position], ascending))
        self.ordering = tuple(ordering)

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        items = self._items
        for batch in self.child.batches(size):
            columns = [batch.columns[payload] if kind == "col"
                       else payload(batch)
                       for kind, payload in items]
            yield self._emit(RowBatch(columns, batch.length))

    def label(self) -> str:
        return f"Project({', '.join(f.display() for f in self.schema)})"


def _bind_condition(condition: Expr | None, schema: PlanSchema):
    """A row closure for a join's non-equi *condition*, or None."""
    return None if condition is None else condition.bind(schema.resolver())


def _joined(pairs, condition, null_pad: tuple | None) -> list[tuple]:
    """Joined rows for ``(left row, candidate right rows)`` *pairs*.

    A candidate survives when *condition* (a row closure, or None for
    none) is TRUE on the joined row; a left row without a survivor is
    padded with *null_pad* when one is given (left join).
    """
    out: list[tuple] = []
    for left_row, candidates in pairs:
        matched = False
        for right_row in candidates:
            joined = left_row + right_row
            if condition is not None and condition(joined) is not True:
                continue
            matched = True
            out.append(joined)
        if not matched and null_pad is not None:
            out.append(left_row + null_pad)
    return out


class HashJoinOp(PhysicalNode):
    """Equi-join: builds a hash table on the right input.

    ``residual_expr`` (if any) is applied to joined rows for non-equi
    conjuncts. Left join emits left rows with NULL padding when no match
    survives the residual. Join-key columns are extracted per chunk (a
    direct column reference for the common plain-column keys) and probed
    row-wise over the materialized chunk rows.
    """

    __slots__ = ('left', 'right', 'kind', '_residual', 'residual_expr',
                 '_left_keys', '_right_keys')

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 schema: PlanSchema,
                 left_keys: Sequence[Expr],
                 right_keys: Sequence[Expr],
                 kind: str,
                 residual_expr: Expr | None) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.schema = schema
        self.kind = kind
        self._residual = _bind_condition(residual_expr, schema)
        self.residual_expr = residual_expr
        self._left_keys = _bind_all(left_keys, left.schema)
        self._right_keys = _bind_all(right_keys, right.schema)
        self.ordering = left.ordering  # probe side preserves its order

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        # One join key (every join the rewrites emit) keys the table by
        # the bare value; several keys by their tuple.
        single = len(self._left_keys) == 1
        table: dict[Any, list[tuple]] = {}
        for right_batch in self.right.batches(size):
            key_columns = [key(right_batch) for key in self._right_keys]
            keys = key_columns[0] if single else zip(*key_columns)
            for key, right_row in zip(keys, right_batch.rows()):
                if key is None or not single and None in key:
                    continue
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [right_row]
                else:
                    bucket.append(right_row)
        null_pad = (None,) * len(self.right.schema) \
            if self.kind == "left" else None
        width = len(self.schema)
        probe = table.get
        for left_batch in self.left.batches(size):
            key_columns = [key(left_batch) for key in self._left_keys]
            # A key with a NULL in it is never in the table, so such a
            # probe finds nothing.
            keys = key_columns[0] if single else zip(*key_columns)
            matches = [probe(key, ()) for key in keys]
            pairs = zip(left_batch.rows(), matches)
            if null_pad is None:
                pairs = compress(pairs, matches)  # drop the unmatched
            out = _joined(pairs, self._residual, null_pad)
            if out:
                yield self._emit(RowBatch.from_rows(out, width))

    def label(self) -> str:
        return f"HashJoin[{self.kind}]"


class NestedLoopJoinOp(PhysicalNode):
    """Fallback join for non-equi or cross joins (right side buffered)."""

    __slots__ = ('left', 'right', '_condition', 'condition_expr', 'kind')

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 schema: PlanSchema,
                 condition_expr: Expr | None,
                 kind: str) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.schema = schema
        self._condition = _bind_condition(condition_expr, schema)
        self.condition_expr = condition_expr
        self.kind = kind
        self.ordering = left.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        right_rows: list[tuple] = []
        for right_batch in self.right.batches(size):
            right_rows.extend(right_batch.rows())
        null_pad = (None,) * len(self.right.schema) \
            if self.kind == "left" else None
        width = len(self.schema)
        for left_batch in self.left.batches(size):
            out = _joined(((row, right_rows) for row in left_batch.rows()),
                          self._condition, null_pad)
            if out:
                yield self._emit(RowBatch.from_rows(out, width))

    def label(self) -> str:
        condition = (self.condition_expr.to_sql()
                     if self.condition_expr is not None else "TRUE")
        return f"NestedLoopJoin[{self.kind}]({condition})"


class SemiJoinOp(PhysicalNode):
    """Filters left rows by membership of a key in the right input.

    NOT IN follows SQL semantics: if the right side contains any NULL,
    no row qualifies; left keys that are NULL never qualify.
    """

    __slots__ = ('left', 'right', 'left_expr', '_batch_left', 'negated')

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 left_expr: Expr, negated: bool) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_expr = left_expr
        self._batch_left: BatchBound = left_expr.bind_batch(
            left.schema.resolver())
        self.negated = negated
        self.schema = left.schema
        self.ordering = left.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        members: set = set()
        saw_null = False
        for right_batch in self.right.batches(size):
            column = right_batch.columns[0] if right_batch.columns else ()
            for value in column:
                if value is None:
                    saw_null = True
                else:
                    members.add(value)
        if self.negated and saw_null:
            return
        batch_left = self._batch_left
        negated = self.negated
        for batch in self.left.batches(size):
            values = batch_left(batch)
            selected = [i for i, value in enumerate(values)
                        if value is not None
                        and (value in members) != negated]
            if not selected:
                continue
            out = batch if len(selected) == batch.length \
                else batch.take(selected)
            yield self._emit(out)

    def label(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"SemiJoin({self.left_expr.to_sql()} {keyword} ...)"


class SortOp(PhysicalNode):
    """Full sort; NULLs order first on every ascending key (and last on
    descending keys, since a descending pass is the reverse of the
    ascending order).

    Each key column is computed once over the whole input and decorated
    with its sort keys, then the row order is obtained by stable
    multi-pass index sorts over those arrays — the key expressions are
    never re-evaluated during comparisons.
    """

    __slots__ = ('child', '_keys', 'sorted_rows')

    def __init__(self, child: PhysicalNode,
                 keys: Sequence[tuple[Expr, bool]],
                 ordering: Ordering) -> None:
        super().__init__()
        self.child = child
        resolver = child.schema.resolver()
        self._keys = [(expr.bind_batch(resolver), ascending)
                      for expr, ascending in keys]
        self.schema = child.schema
        self.ordering = ordering
        self.sorted_rows = 0

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def _sorted_rows(self, buffered: list[tuple],
                     collected: list[RowBatch]) -> list[tuple]:
        """*buffered* in key order: stable index sorts over the decorated
        key columns, applied from the last key to the first."""
        if not buffered:
            return buffered
        big = concat_columns(collected, len(self.schema))
        order = list(range(len(buffered)))
        for key, ascending in reversed(self._keys):
            keyed = sort_key_column(key(big))
            order.sort(key=keyed.__getitem__, reverse=not ascending)
        return [buffered[i] for i in order]

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        buffered: list[tuple] = []
        collected: list[RowBatch] = []
        for batch in self.child.batches(size):
            collected.append(batch)
            buffered.extend(batch.rows())
        self.sorted_rows = len(buffered)
        buffered = self._sorted_rows(buffered, collected)
        width = len(self.schema)
        for lo in range(0, len(buffered), size):
            chunk = buffered[lo:lo + size]
            yield self._emit(RowBatch.from_rows(chunk, width))

    def label(self) -> str:
        body = ", ".join(f"#{position}{'' if asc else ' DESC'}"
                         for position, asc in self.ordering)
        return f"Sort({body})"


class _AggState:
    """Accumulator for one aggregate call within one group."""

    __slots__ = ("name", "distinct", "count", "total", "extreme", "seen")

    def __init__(self, name: str, distinct: bool) -> None:
        self.name = name
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.extreme: Any = None
        self.seen: set | None = set() if distinct else None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.name in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.name == "min":
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif self.name == "max":
            if self.extreme is None or value > self.extreme:
                self.extreme = value

    def result(self) -> Any:
        if self.name == "count":
            return self.count
        if self.name == "sum":
            return self.total
        if self.name == "avg":
            if self.count == 0:
                return None
            return self.total / self.count
        return self.extreme


class AggregateOp(PhysicalNode):
    """Hash aggregation: group keys followed by aggregate results.

    Aggregates are ``(name, argument_or_None, distinct)``; ``count(*)``
    passes a None argument and counts every row. Group-key and argument
    columns are extracted per chunk before the row-wise accumulation
    loop.
    """

    __slots__ = ('child', '_group_keys', '_aggregates')

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 group_keys: Sequence[Expr],
                 aggregates: Sequence[tuple[str, Expr | None, bool]],
                 ) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        resolver = child.schema.resolver()
        self._group_keys = _bind_all(group_keys, child.schema)
        self._aggregates = [
            (name, None if argument is None
             else argument.bind_batch(resolver), distinct)
            for name, argument, distinct in aggregates]

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        groups: dict[tuple, list[_AggState]] = {}
        specs = self._aggregates
        spec_count = len(specs)
        for batch in self.child.batches(size):
            key_columns = [key(batch) for key in self._group_keys]
            argument_columns = [None if argument is None else argument(batch)
                                for _, argument, _ in specs]
            for i in range(batch.length):
                key = tuple(column[i] for column in key_columns)
                states = groups.get(key)
                if states is None:
                    states = [_AggState(name, distinct)
                              for name, _, distinct in specs]
                    groups[key] = states
                for s in range(spec_count):
                    column = argument_columns[s]
                    if column is None:  # count(*)
                        states[s].count += 1
                    else:
                        states[s].add(column[i])
        if not groups and not self._group_keys:
            states = [_AggState(name, distinct)
                      for name, _, distinct in specs]
            groups[()] = states
        out: list[tuple] = []
        width = len(self.schema)
        for key, states in groups.items():
            out.append(key + tuple(state.result() for state in states))
            if len(out) >= size:
                yield self._emit(RowBatch.from_rows(out, width))
                out = []
        if out:
            yield self._emit(RowBatch.from_rows(out, width))

    def label(self) -> str:
        return (f"Aggregate(groups={len(self._group_keys)}, "
                f"aggs={len(self._aggregates)})")


class DistinctOp(PhysicalNode):
    """Whole-row duplicate elimination preserving first occurrence."""

    __slots__ = ('child',)

    def __init__(self, child: PhysicalNode) -> None:
        super().__init__()
        self.child = child
        self.schema = child.schema
        self.ordering = child.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        seen: set[tuple] = set()
        for batch in self.child.batches(size):
            keep: list[int] = []
            for i, row in enumerate(batch.rows()):
                if row in seen:
                    continue
                seen.add(row)
                keep.append(i)
            if not keep:
                continue
            out = batch if len(keep) == batch.length else batch.take(keep)
            yield self._emit(out)

    def label(self) -> str:
        return "Distinct"


class UnionAllOp(PhysicalNode):
    """Concatenation of two inputs."""

    __slots__ = ('left', 'right')

    def __init__(self, left: PhysicalNode, right: PhysicalNode) -> None:
        super().__init__()
        if len(left.schema) != len(right.schema):
            raise ExecutionError("UNION arity mismatch")
        self.left = left
        self.right = right
        self.schema = left.schema

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        for side in (self.left, self.right):
            for batch in side.batches(size):
                yield self._emit(batch)

    def label(self) -> str:
        return "UnionAll"


class PassThroughOp(PhysicalNode):
    """Re-labels a child's output schema without touching rows.

    Used for derived-table / CTE aliasing (LogicalRequalify): positions
    and values are unchanged, only qualifiers differ.
    """

    __slots__ = ('child', 'name')

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 name: str) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        self.name = name
        self.ordering = child.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        return self.child.batches(size)

    def label(self) -> str:
        return f"As({self.name})"


class LimitOp(PhysicalNode):
    """Stops after *count* rows."""

    __slots__ = ('child', 'count')

    def __init__(self, child: PhysicalNode, count: int) -> None:
        super().__init__()
        self.child = child
        self.count = count
        self.schema = child.schema
        self.ordering = child.ordering

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        if self.count <= 0:
            return
        remaining = self.count
        for batch in self.child.batches(size):
            if batch.length == 0:
                continue
            out = batch if batch.length <= remaining \
                else batch.head(remaining)
            remaining -= out.length
            yield self._emit(out)
            if remaining == 0:
                return

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit({self.count})"
