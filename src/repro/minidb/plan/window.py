"""The SQL/OLAP window-function executor.

This operator implements the construct the paper's cleansing rules
compile into: scalar aggregates over ROWS/RANGE frames within
``PARTITION BY epc ORDER BY rtime`` sequences, evaluated in a single
pass over sorted data.

The operator never works sequence by sequence. It assembles the whole
sorted input column-wise once, and every step below is a kernel over
those whole-input columns that takes the partition spans as an argument:

1. concatenate the child's batches column-wise; unless the planner
   proved the input already carries the order (``presorted`` — the
   paper's "order sharing" optimization), compute the sort permutation
   from the key columns and gather every column by it;
2. find the partition spans — contiguous ``(start, end)`` runs of equal
   partition keys — in one scan;
3. evaluate each function over the whole input:

   * a single-row ``ROWS BETWEEN k AND k`` frame (the rule compiler's
     previous/next-read look-ups) and ``lag``/``lead`` are the argument
     column shifted by ``k`` and masked at sequence boundaries
     (:func:`_shifted`) — no frame is ever materialized;
   * every other frame gets inclusive ``(lo, hi)`` row-index arrays
     from one two-pointer sweep (:func:`_sweep_bounds`) per *distinct
     frame* of the operator, shared by all its functions with that
     frame. The default peer-group frame, whole-partition frames,
     ``UNBOUNDED`` ends, NULL order keys and descending order keys all
     land there. :func:`_aggregate` consumes the arrays: a monotonic
     deque of indices for ``min``/``max``, prefix counters for ``count``
     and for ``sum``/``avg`` over integers (where running totals are
     exact); float sums add each frame left to right;
4. emit ``input columns + computed columns`` as slices, cut at the first
   sequence end at or past the batch size.

The independent check on all of this is ``repro.fuzz.reference``, which
evaluates every frame by rescanning the partition for each row.

``REPRO_FUZZ_INJECT_BUG=window`` is this module's fuzz drill: it shifts
the lower bound of every offset RANGE frame one row later, an off-by-one
that every executor strategy shares and only that reference can see.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import accumulate, islice
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.minidb.expressions import UNBOUNDED, Expr, WindowFrame
from repro.minidb.plan.logical import infer_type
from repro.minidb.plan.physical import (Ordering, PhysicalNode, _bind_all,
                                        _resolve_batch_size)
from repro.minidb.plan.planschema import PlanSchema
from repro.minidb.types import sort_key_column
from repro.minidb.vector import RowBatch, concat_columns

__all__ = ["WindowOp", "WindowFuncSpec"]

#: Inclusive per-row frame bounds over the whole sorted input.
Bounds = tuple[list[int], list[int]]
#: Contiguous ``(start, end)`` runs of equal partition keys.
Spans = list[tuple[int, int]]

#: The fuzz drill's environment variable; see the module docstring.
FAULT_ENV = "REPRO_FUZZ_INJECT_BUG"


def _fault_injected() -> bool:
    return os.environ.get(FAULT_ENV, "") == "window"


class WindowFuncSpec:
    """One window function: its name, argument expression (None for
    ``count(*)`` and ``row_number()``), frame and lag/lead offset."""

    __slots__ = ("name", "argument", "frame", "has_order", "count_star",
                 "offset")

    def __init__(self, name: str, argument: Expr | None,
                 frame: WindowFrame | None, has_order: bool,
                 offset: int = 1) -> None:
        self.name = name
        self.argument = argument
        self.frame = frame
        self.has_order = has_order
        self.count_star = name == "count" and argument is None
        self.offset = offset


def _whole_partition(frame: WindowFrame | None) -> bool:
    """Whether *frame* is UNBOUNDED on both sides."""
    return frame is not None \
        and frame.start == UNBOUNDED and frame.end == UNBOUNDED


def _does_value_arithmetic(frame: WindowFrame | None) -> bool:
    """Whether *frame* adds an offset to the order key (RANGE, bounded)."""
    return frame is not None and frame.mode == "range" \
        and not _whole_partition(frame)


def _single_row_shift(frame: WindowFrame | None) -> int | None:
    """``k`` when *frame* is ``ROWS BETWEEN k AND k``, else None."""
    if frame is None or frame.mode != "rows" or frame.start != frame.end \
            or frame.start == UNBOUNDED:
        return None
    return int(frame.start)


def _partition_spans(total: int, partition_columns: list[list]) -> Spans:
    """Spans of equal partition keys over sorted key columns."""
    if not partition_columns:
        return [(0, total)]
    keys = partition_columns[0] if len(partition_columns) == 1 \
        else list(zip(*partition_columns))
    starts = [0]
    starts.extend(index for index, (previous, current)
                  in enumerate(zip(keys, islice(keys, 1, None)), 1)
                  if previous != current)
    return list(zip(starts, starts[1:] + [total]))


def _arranger(order: list[int] | None) -> Callable[[Any], list | None]:
    """A function giving a column gathered by *order* when there is one.

    It remembers its results: one column object asked for several times
    (a key or argument that is a plain input column) is gathered once.
    """
    done: dict[int, tuple[Any, list]] = {}  # id -> (column kept alive, result)

    def arrange(column: Any) -> list | None:
        if column is None or order is None:
            return column
        if id(column) not in done:
            done[id(column)] = (column, [column[i] for i in order])
        return done[id(column)][1]

    return arrange


def _shifted(values: list, spans: Spans, shift: int) -> list:
    """``values[i + shift]`` where that row is in row *i*'s sequence,
    else NULL: the whole column moved once, then masked per span."""
    reach = abs(shift)
    total = len(values)
    if reach == 0:
        return values
    if reach >= total:
        return [None] * total
    if shift < 0:
        out = [None] * reach + values[:total - reach]
        for start, end in spans:
            for index in range(start, min(end, start + reach)):
                out[index] = None
    else:
        out = values[reach:] + [None] * reach
        for start, end in spans:
            for index in range(max(start, end - reach), end):
                out[index] = None
    return out


def _sweep_bounds(frame: WindowFrame | None, spans: Spans,
                  peers: list | None, ascending: bool) -> Bounds:
    """Inclusive ``(lo, hi)`` frame indices for every row of the input.

    *peers* is the order-key column as sorted (None without ORDER BY).
    Only equality is asked of it unless the frame does value arithmetic;
    then it is one numeric key, negated first if it descends.
    An empty frame has ``lo > hi``. Within the input ``lo`` never
    decreases and never points before the row's own span, and ``hi``
    never decreases within a span — :func:`_aggregate` relies on both.
    """
    lo: list[int] = []
    hi: list[int] = []
    if _whole_partition(frame) or (frame is None and peers is None):
        for start, end in spans:
            lo += [start] * (end - start)
            hi += [end - 1] * (end - start)
        return lo, hi
    if frame is None:
        # Default frame, RANGE UNBOUNDED PRECEDING .. CURRENT ROW: up to
        # the last peer of the current row.
        for start, end in spans:
            lo += [start] * (end - start)
            index = start
            while index < end:
                value = peers[index]
                after = index + 1
                while after < end and peers[after] == value:
                    after += 1
                hi += [after - 1] * (after - index)
                index = after
        return lo, hi
    first_offset, last_offset = frame.start, frame.end
    if frame.mode == "rows":
        for start, end in spans:
            if first_offset == UNBOUNDED:
                lo += [start] * (end - start)
            else:
                shift = int(first_offset)
                lo += [index if index > start else start
                       for index in range(start + shift, end + shift)]
            if last_offset == UNBOUNDED:
                hi += [end - 1] * (end - start)
            else:
                shift = int(last_offset)
                final = end - 1
                hi += [index if index < final else final
                       for index in range(start + shift, end + shift)]
        return lo, hi
    # RANGE: an UNBOUNDED side reaches the partition edge; an offset
    # side is a value bound on a numeric key, which never admits a
    # NULL-key row, and for a NULL-key row reaches its NULL peers. NULL
    # keys sort first ascending and last descending, so a span is up to
    # three runs: NULLs, values, NULLs.
    values = peers if ascending else [None if value is None else -value
                                      for value in peers]
    drift = 1 if _fault_injected() else 0
    lo_append, hi_append = lo.append, hi.append
    for start, end in spans:
        first = start
        while first < end and values[first] is None:
            first += 1
        last = end
        while last > first and values[last - 1] is None:
            last -= 1
        if first > start:
            lo += [start] * (first - start)
            hi += [end - 1 if last_offset == UNBOUNDED
                   else first - 1] * (first - start)
        if first_offset == UNBOUNDED:
            lo += [start] * (last - first)
        else:
            reached = first
            for index in range(first, last):
                bound = values[index] + first_offset
                while reached < last and values[reached] < bound:
                    reached += 1
                lo_append(reached + drift)
        if last_offset == UNBOUNDED:
            hi += [end - 1] * (last - first)
        else:
            reached = first
            for index in range(first, last):
                bound = values[index] + last_offset
                while reached < last and values[reached] <= bound:
                    reached += 1
                hi_append(reached - 1)
        if last < end:
            lo += [start if first_offset == UNBOUNDED
                   else last] * (end - last)
            hi += [end - 1] * (end - last)
    return lo, hi


def _sliding_extreme(arguments: list, lo: list[int], hi: list[int],
                     is_min: bool) -> list:
    """min/max per frame: a monotonic deque of argument indices.

    No span bookkeeping is needed: ``lo`` never points before the row's
    own span, so whatever an earlier sequence left in the deque is
    evicted before the front is read.
    """
    out: list = []
    emit = out.append
    candidates: deque[int] = deque()
    push, drop_back, drop_front = (candidates.append, candidates.pop,
                                   candidates.popleft)
    added = -1
    for first, last in zip(lo, hi):
        while added < last:
            added += 1
            value = arguments[added]
            if value is None:
                continue
            if is_min:
                while candidates and arguments[candidates[-1]] >= value:
                    drop_back()
            else:
                while candidates and arguments[candidates[-1]] <= value:
                    drop_back()
            push(added)
        while candidates and candidates[0] < first:
            drop_front()
        emit(arguments[candidates[0]] if candidates else None)
    return out


def _aggregate(spec: WindowFuncSpec, arguments: list | None,
               lo: list[int], hi: list[int]) -> list:
    """One aggregate over every row's ``[lo, hi]`` frame, in O(rows)."""
    name = spec.name
    if spec.count_star:
        return [last - first + 1 if last >= first else 0
                for first, last in zip(lo, hi)]
    if name in ("min", "max"):
        return _sliding_extreme(arguments, lo, hi, name == "min")
    counts = list(accumulate((value is not None for value in arguments),
                             initial=0))
    if name == "count":
        return [counts[last + 1] - counts[first] if last >= first else 0
                for first, last in zip(lo, hi)]
    if not all(value is None or isinstance(value, int)
               for value in arguments):
        # A float running total cancels catastrophically when a large
        # value leaves the frame; add each frame up on its own.
        return _frame_sums(name == "avg", arguments, lo, hi)
    totals = list(accumulate((value or 0 for value in arguments),
                             initial=0))
    if name == "sum":
        return [totals[last + 1] - totals[first]
                if last >= first and counts[last + 1] > counts[first]
                else None for first, last in zip(lo, hi)]
    return [(totals[last + 1] - totals[first])
            / (counts[last + 1] - counts[first])
            if last >= first and counts[last + 1] > counts[first]
            else None for first, last in zip(lo, hi)]


def _frame_sums(average: bool, arguments: list, lo: list[int],
                hi: list[int]) -> list:
    """``sum`` (or ``avg``) per frame, each frame added left to right."""
    out: list = []
    for first, last in zip(lo, hi):
        # An empty frame's ``hi`` may be negative: never slice with it.
        window = [value for value in arguments[first:last + 1]
                  if value is not None] if last >= first else []
        if not window:
            out.append(None)
        else:
            total = sum(window)
            out.append(total / len(window) if average else total)
    return out


class WindowOp(PhysicalNode):
    """Physical window operator; see module docstring."""

    __slots__ = ("child", "_partition_keys", "_order_keys", "_arguments",
                 "functions", "presorted", "sorted_rows")

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 partition_keys: Sequence[Expr],
                 order_keys: Sequence[tuple[Expr, bool]],
                 functions: Sequence[WindowFuncSpec],
                 presorted: bool,
                 ordering: Ordering) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        resolver = child.schema.resolver()
        self._partition_keys = _bind_all(partition_keys, child.schema)
        self._order_keys = [(expr.bind_batch(resolver), ascending)
                            for expr, ascending in order_keys]
        self.functions = list(functions)
        self._arguments = [None if spec.argument is None
                           else spec.argument.bind_batch(resolver)
                           for spec in self.functions]
        self.presorted = presorted
        self.ordering = ordering
        self.sorted_rows = 0
        for spec in self.functions:
            if spec.frame is None or spec.frame.mode != "range":
                continue
            if len(order_keys) != 1:
                raise ExecutionError(
                    "RANGE frames require exactly one ORDER BY key")
            if _does_value_arithmetic(spec.frame) \
                    and not infer_type(order_keys[0][0],
                                       child.schema).is_numeric:
                raise ExecutionError(
                    "RANGE frames with an offset require a numeric "
                    "ORDER BY key")

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def label(self) -> str:
        suffix = " [presorted]" if self.presorted else ""
        return f"Window({len(self.functions)} fns){suffix}"

    # ------------------------------------------------------------------

    def _sort_permutation(self, total: int, partition_columns: list,
                          order_columns: list) -> list[int]:
        """Stable multi-pass index sort over the key columns: order keys
        last-to-first, then the composite partition key."""
        order = list(range(total))
        for column, (_, ascending) in zip(reversed(order_columns),
                                          reversed(self._order_keys)):
            keyed = sort_key_column(column)
            order.sort(key=keyed.__getitem__, reverse=not ascending)
        if partition_columns:
            keyed = [sort_key_column(column)
                     for column in partition_columns]
            composite = keyed[0] if len(keyed) == 1 else list(zip(*keyed))
            order.sort(key=composite.__getitem__)
        return order

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        collected = list(self.child.batches(size))
        total = sum(batch.length for batch in collected)
        if not self.presorted:
            self.sorted_rows = total
        if not total:
            return
        width_in = len(self.child.schema)
        big = concat_columns(collected, width_in)
        partition_columns = [key(big) for key in self._partition_keys]
        order_columns = [key(big) for key, _ in self._order_keys]
        argument_columns = [None if argument is None else argument(big)
                            for argument in self._arguments]
        arrange = _arranger(None if self.presorted
                            else self._sort_permutation(
                                total, partition_columns, order_columns))
        spans = _partition_spans(
            total, [arrange(column) for column in partition_columns])
        # Peers share every ORDER BY key; a RANGE offset (allowed with
        # one key only) does arithmetic on that key.
        peers = [arrange(column) for column in order_columns]
        computed = self._window_columns(
            spans, None if not peers
            else peers[0] if len(peers) == 1 else list(zip(*peers)),
            [arrange(column) for column in argument_columns])
        out_columns = [arrange(column) for column in big.columns] + computed
        flushed = 0
        for _, end in spans:
            if end - flushed < size and end < total:
                continue
            length = end - flushed
            yield self._emit(RowBatch(out_columns if length == total
                                      else [column[flushed:end]
                                            for column in out_columns],
                                      length))
            flushed = end

    # ------------------------------------------------------------------

    @staticmethod
    def _row_shift(spec: WindowFuncSpec) -> int | None:
        """``k`` when the function's value at row *i* is its argument at
        row ``i + k`` of the same sequence (or NULL), else None."""
        if spec.name in ("lag", "lead"):
            return -spec.offset if spec.name == "lag" else spec.offset
        if spec.name in ("avg", "row_number"):
            return None
        return _single_row_shift(spec.frame)

    def _window_columns(self, spans: Spans, order_column: list | None,
                        argument_columns: list) -> list[list]:
        """One computed column per function over the whole sorted input.

        ``order_column`` is the ORDER BY key as sorted (a tuple per row
        when there are several), or None.
        Frame bounds are swept once per distinct frame and shared.
        """
        bounds: dict[WindowFrame | None, Bounds] = {}
        computed: list[list] = []
        for spec, arguments in zip(self.functions, argument_columns):
            shift = self._row_shift(spec)
            if spec.name == "row_number":
                column: list = []
                for start, end in spans:
                    column.extend(range(1, end - start + 1))
            elif shift is not None:
                if spec.count_star:
                    arguments = [1] * spans[-1][1]
                elif arguments is None:
                    raise ExecutionError(
                        f"{spec.name}() requires an argument")
                column = _shifted(arguments, spans, shift)
                if spec.name == "count":
                    column = [0 if value is None else 1 for value in column]
            else:
                frame = spec.frame
                if frame not in bounds:
                    bounds[frame] = _sweep_bounds(
                        frame, spans,
                        order_column if spec.has_order else None,
                        not self._order_keys or self._order_keys[0][1])
                column = _aggregate(spec, arguments, *bounds[frame])
            computed.append(column)
        return computed
