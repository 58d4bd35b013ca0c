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

from bisect import bisect_left
from itertools import compress, repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.minidb.expressions import BatchBound, ColumnRef, Expr, true_positions
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

#: A hash join fetches its probe side through an index only when the
#: indexed table holds at least this many rows per built key. Measured
#: on a 2-core x86 host, Python 3.11, joining a 13 000-row VARCHAR-keyed
#: table: the index path costs as much as the scan at 10-16 rows per
#: key, 0.5-0.8 of it at 32, and 0.03 of it at 1 300 (a single trace).
_ROWS_PER_PROBED_KEY = 32


def _resolve_batch_size(size: int | None) -> int:
    """The effective chunk size for one ``batches()`` invocation."""
    if size is not None and size > 0:
        return size
    return configured_batch_size()


def _gather(columns: list[list], positions: list[int]) -> RowBatch:
    """The rows at *positions* of a table's column cache, as a batch."""
    return RowBatch([[column[p] for p in positions] for column in columns],
                    len(positions))


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

    ``visible_count`` pins the scan to an MVCC snapshot (see
    ``minidb.snapshot``): the scan reads only positions below the bound
    — catalog tables only grow, so the bounded prefix is exactly the
    pinned epoch. It is None for live execution.

    A *keyed* scan (``index`` and ``keys`` set, planned for a literal
    ``col IN (...)``) reads only the rows whose *index* key equals one
    of *keys*, still in insertion order (:meth:`keyed_batches`). The
    planner keeps the IN list as a filter above it.
    """

    __slots__ = ('table', 'visible_count', 'index', 'keys')

    def __init__(self, table: Table, schema: PlanSchema,
                 index: SortedIndex | None = None,
                 keys: Sequence[Any] | None = None) -> None:
        super().__init__()
        self.table = table
        self.schema = schema
        self.visible_count: int | None = None
        self.index = index
        self.keys = keys

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        if self.keys is not None:
            yield from self.keyed_batches(self.index, self.keys, size)
            return
        columns = self.table.columnar()
        bound = self.visible_count
        total = len(self.table.rows) if bound is None else bound
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            yield self._emit(RowBatch([column[lo:hi] for column in columns],
                                      hi - lo))

    def keyed_batches(self, index: SortedIndex, keys: Iterable[Any],
                      size: int) -> Iterator[RowBatch]:
        """The rows of :meth:`batches` whose *index* key equals one of
        *keys*, in the same (insertion) order.

        Reads the same column cache as the full scan, at the positions
        the index returns, so a hash join probing only these rows emits
        exactly what it would after a full scan. Positions at or past the
        snapshot bound are skipped.
        """
        columns = self.table.columnar()
        bound = self.visible_count
        total = len(self.table.rows) if bound is None else bound
        positions = sorted(index.positions_of(keys))
        del positions[bisect_left(positions, total):]
        for lo in range(0, len(positions), size):
            yield self._emit(_gather(columns, positions[lo:lo + size]))

    def label(self) -> str:
        if self.keys is None:
            return f"SeqScan({self.table.name})"
        return (f"SeqScan({self.table.name} keyed {self.index.column} "
                f"IN {len(self.keys)} keys)")


class IndexRangeScan(PhysicalNode):
    """Range scan through a sorted index; output is ordered by the key.

    ``visible_count`` pins the scan to an MVCC snapshot, mirroring
    :class:`SeqScan`: index entries at positions past the bound
    (appended after the pin) are skipped — the index yields in key
    order, so later positions are interleaved and must be filtered, not
    truncated.
    """

    __slots__ = ('table', 'index', 'key_range', 'visible_count')

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

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        columns = self.table.columnar()
        bound = self.visible_count
        chunk: list[int] = []
        for position in self.index.scan(self.key_range):
            if bound is not None and position >= bound:
                continue
            chunk.append(position)
            if len(chunk) >= size:
                yield self._emit(_gather(columns, chunk))
                chunk = []
        if chunk:
            yield self._emit(_gather(columns, chunk))

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


def _bind_condition(condition: Expr | None,
                    schema: PlanSchema) -> BatchBound | None:
    """The batch kernel of a join's non-equi *condition*, or None."""
    return None if condition is None \
        else condition.bind_batch(schema.resolver())


def _joined(pairs, condition: BatchBound | None, null_pad: tuple | None,
            width: int) -> list[tuple]:
    """Joined rows for ``(left row, candidate right rows)`` *pairs*.

    A candidate survives when *condition* (a batch kernel, or None for
    none) is TRUE on the joined row; the kernel runs once, over every
    candidate joined row of *pairs*. A left row without a survivor is
    padded with *null_pad* when one is given (left join). Rows come out
    left row major, each left row's survivors in candidate order.
    """
    pad = () if null_pad is None else (null_pad,)
    if condition is None:
        return [left_row + right_row for left_row, candidates in pairs
                for right_row in (candidates or pad)]
    pairs = list(pairs)
    joined = [left_row + right_row for left_row, candidates in pairs
              for right_row in candidates]
    verdicts = condition(RowBatch.from_rows(joined, width))
    out: list[tuple] = []
    end = 0
    for left_row, candidates in pairs:
        start, end = end, end + len(candidates)
        survivors = [joined[i] for i in range(start, end)
                     if verdicts[i] is True]
        out.extend(survivors or [left_row + right_row for right_row in pad])
    return out


class HashJoinOp(PhysicalNode):
    """Equi-join: builds a hash table on the right input.

    ``residual_expr`` (if any) is applied to joined rows for non-equi
    conjuncts, as one kernel call over a probe batch's candidate joined
    rows. Left join emits left rows with NULL padding when no match
    survives the residual. Join-key columns are extracted per chunk (a
    direct column reference for the common plain-column keys) and probed
    row-wise over the materialized chunk rows.

    When the probe side is a plain :class:`SeqScan` whose single join
    key has an in-memory :class:`SortedIndex`, and the built table holds
    few keys next to the indexed rows (a dimension joined to a short
    cleansed answer), the scan reads only the rows the index returns for
    those keys (:meth:`SeqScan.keyed_batches`). Rows the full scan would
    have probed in vain are never read, and the output is unchanged:
    same rows, same order, in either storage mode. Left joins (unmatched
    rows are emitted) and multi-key joins keep the full scan.
    """

    __slots__ = ('left', 'right', 'kind', '_residual', 'residual_expr',
                 '_left_keys', '_right_keys', '_probe_column')

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
        #: The stored column an index probe would look up, when the
        #: join's shape allows one (see the class docstring).
        self._probe_column: str | None = None
        if kind == "inner" and type(left) is SeqScan \
                and len(left_keys) == 1 \
                and isinstance(left_keys[0], ColumnRef):
            key = left_keys[0]
            position = left.schema.resolve(key.qualifier, key.name)
            self._probe_column = left.table.schema.names[position]

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def _probe_index(self, table: dict) -> SortedIndex | None:
        """The index to fetch the probe side through, or None to scan."""
        if self._probe_column is None:
            return None
        index = self.left.table.index_on(self._probe_column)
        if index is None:
            return None
        if len(table) * _ROWS_PER_PROBED_KEY > len(index):
            return None
        # NaN never equals itself, so a table key that is NaN has no
        # position an ordered lookup could find; leave it to the scan.
        if any(key != key for key in table):
            return None
        return index

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
        index = self._probe_index(table)
        left_batches = self.left.batches(size) if index is None \
            else self.left.keyed_batches(index, table, size)
        for left_batch in left_batches:
            key_columns = [key(left_batch) for key in self._left_keys]
            # A key with a NULL in it is never in the table, so such a
            # probe finds nothing.
            keys = key_columns[0] if single else zip(*key_columns)
            matches = [probe(key, ()) for key in keys]
            pairs = zip(left_batch.rows(), matches)
            if null_pad is None:
                pairs = compress(pairs, matches)  # drop the unmatched
            out = _joined(pairs, self._residual, null_pad, width)
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
        # Left rows per condition evaluation, so that one kernel call
        # sees about a batch of candidate pairs, not a batch times the
        # whole right input.
        step = max(1, size // max(len(right_rows), 1))
        for left_batch in self.left.batches(size):
            rows = left_batch.rows()
            out: list[tuple] = []
            for begin in range(0, len(rows), step):
                out.extend(_joined(
                    ((row, right_rows) for row in rows[begin:begin + step]),
                    self._condition, null_pad, width))
            if out:
                yield self._emit(RowBatch.from_rows(out, width))

    def label(self) -> str:
        condition = (self.condition_expr.to_sql()
                     if self.condition_expr is not None else "TRUE")
        return f"NestedLoopJoin[{self.kind}]({condition})"


class SemiJoinOp(PhysicalNode):
    """Filters left rows by membership of a key in the right input.

    IN and NOT IN follow SQL semantics. Against an empty right input IN
    is FALSE and NOT IN is TRUE for every left row, NULL keys included.
    Otherwise left keys that are NULL never qualify, and if the right
    side contains any NULL, no row qualifies for NOT IN.
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
        if not members and not saw_null:  # the right input is empty
            if self.negated:
                for batch in self.left.batches(size):
                    yield self._emit(batch)
            return
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


# -- aggregation kernels ------------------------------------------------
#
# Each kernel folds one batch into flat per-group lists indexed by dense
# group id, skipping NULL arguments. SUM/AVG are a left fold in input
# order from the first non-NULL value: never builtin ``sum()``, which
# starts at 0 (turning a lone -0.0 into 0.0) and, on Python 3.12,
# compensates float rounding. MIN/MAX replace the running extreme only
# on a strict ``<`` / ``>``, so neither an equal value (1.0 after 1) nor
# a NaN displaces it, and a leading NaN is never displaced.


def _count_rows(ids: list[int], counts: list[int]) -> None:
    for group in ids:
        counts[group] += 1


def _count_values(ids: Iterable[int], values: list,
                  counts: list[int]) -> None:
    for group, value in zip(ids, values):
        if value is not None:
            counts[group] += 1


def _fold_sums(ids: Iterable[int], values: list, totals: list) -> None:
    for group, value in zip(ids, values):
        if value is not None:
            total = totals[group]
            totals[group] = value if total is None else total + value


def _fold_averages(ids: Iterable[int], values: list, totals: list,
                   counts: list[int]) -> None:
    for group, value in zip(ids, values):
        if value is not None:
            total = totals[group]
            totals[group] = value if total is None else total + value
            counts[group] += 1


def _fold_minima(ids: Iterable[int], values: list, extremes: list) -> None:
    for group, value in zip(ids, values):
        if value is not None:
            extreme = extremes[group]
            if extreme is None or value < extreme:
                extremes[group] = value


def _fold_maxima(ids: Iterable[int], values: list, extremes: list) -> None:
    for group, value in zip(ids, values):
        if value is not None:
            extreme = extremes[group]
            if extreme is None or value > extreme:
                extremes[group] = value


#: Aggregate name -> (kernel, the initial per-group value of each of
#: its state lists). ``count(*)`` keeps count's list but folds it with
#: ``_count_rows``.
_KERNELS: dict[str, tuple[Callable[..., None], tuple]] = {
    "count": (_count_values, (0,)),
    "sum": (_fold_sums, (None,)),
    "avg": (_fold_averages, (None, 0)),
    "min": (_fold_minima, (None,)),
    "max": (_fold_maxima, (None,)),
}


def _first_seen(ids: Iterable[int], values: list,
                seen: set[tuple]) -> tuple[list[int], list]:
    """The batch's non-NULL ``(group id, value)`` pairs missing from
    *seen*, as ``(ids, values)``; each is added to *seen*."""
    fresh_ids: list[int] = []
    fresh_values: list = []
    for pair in zip(ids, values):
        if pair[1] is not None and pair not in seen:
            seen.add(pair)
            fresh_ids.append(pair[0])
            fresh_values.append(pair[1])
    return fresh_ids, fresh_values


class _Aggregate:
    """One aggregate call's flat per-group state lists."""

    __slots__ = ("name", "argument", "kernel", "fills", "state", "seen")

    def __init__(self, name: str, argument: BatchBound | None,
                 distinct: bool) -> None:
        self.name = name
        self.argument = argument
        self.kernel, self.fills = _KERNELS[name]
        self.state: list[list] = [[] for _ in self.fills]
        self.seen: set[tuple] | None = set() if distinct else None

    def grow(self, groups: int) -> None:
        """Extend every state list to *groups* entries."""
        missing = groups - len(self.state[0])
        if missing:
            for column, fill in zip(self.state, self.fills):
                column.extend([fill] * missing)

    def add(self, ids: list[int] | None, batch: RowBatch) -> None:
        """Fold *batch* in. *ids* holds each row's group id, or is None
        without group keys (every row is in group 0)."""
        if self.argument is None:  # count(*)
            if ids is None:
                self.state[0][0] += batch.length
            else:
                _count_rows(ids, self.state[0])
            return
        values = self.argument(batch)
        groups: Iterable[int] = repeat(0) if ids is None else ids
        if self.seen is not None:
            groups, values = _first_seen(groups, values, self.seen)
        self.kernel(groups, values, *self.state)

    def result(self) -> list:
        if self.name != "avg":
            return self.state[0]
        totals, counts = self.state
        return [None if count == 0 else total / count
                for total, count in zip(totals, counts)]


class AggregateOp(PhysicalNode):
    """Hash aggregation: group keys followed by aggregate results.

    Aggregates are ``(name, argument_or_None, distinct)``; ``count(*)``
    passes a None argument and counts every row. Each input batch is
    handled whole: its key columns are evaluated once and mapped to
    dense group ids in one pass over one dict (the bare value for one
    key, a ``zip`` tuple for several), then each aggregate runs one
    kernel loop over ``zip(ids, argument column)`` into flat per-group
    lists. DISTINCT keeps one set of ``(group id, value)`` pairs per
    aggregate. Groups are emitted in first-occurrence order.
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
        keys = self._group_keys
        # Group key -> dense group id, in first-occurrence order; the
        # dict keeps the first of equal keys (1 before 1.0). Without
        # keys there is one group, even over no rows.
        slots: dict[Any, int] = {} if keys else {(): 0}
        slot = slots.setdefault
        aggregates = [_Aggregate(name, argument, distinct)
                      for name, argument, distinct in self._aggregates]
        ids: list[int] | None = None
        for batch in self.child.batches(size):
            if len(keys) == 1:
                ids = [slot(value, len(slots)) for value in keys[0](batch)]
            elif keys:
                ids = [slot(key, len(slots))
                       for key in zip(*[key(batch) for key in keys])]
            for aggregate in aggregates:
                aggregate.grow(len(slots))
                aggregate.add(ids, batch)
        total = len(slots)
        # Key columns; without keys, zip over the one () key gives none.
        columns = [list(slots)] if len(keys) == 1 \
            else [list(column) for column in zip(*slots)]
        for aggregate in aggregates:
            aggregate.grow(total)
            columns.append(aggregate.result())
        for lo in range(0, total, size):
            yield self._emit(RowBatch(
                [column[lo:lo + size] for column in columns],
                min(size, total - lo)))

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
