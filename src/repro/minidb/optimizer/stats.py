"""Table and column statistics.

Statistics are computed by :func:`analyze_table` (the engine runs it
after bulk loads, like ``RUNSTATS`` on DB2) and consumed by the
cardinality estimator. Per column we keep the number of distinct values,
the null count, min/max, and an equi-depth histogram for orderable
types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.minidb.table import Table
from repro.minidb.types import SqlType

__all__ = ["ColumnStats", "TableStats", "analyze_table", "StatsRepository"]

#: Number of equi-depth buckets kept per column histogram.
HISTOGRAM_BUCKETS = 64


@dataclass
class ColumnStats:
    """Summary statistics for one column."""

    ndv: int
    null_count: int
    min_value: object | None
    max_value: object | None
    #: Equi-depth bucket upper bounds (sorted); empty for unorderable data.
    histogram: list = field(default_factory=list)

    def range_fraction(self, low, high, *, low_inclusive: bool = True,
                       high_inclusive: bool = True) -> float:
        """Estimated fraction of non-null values inside [low, high].

        Uses the equi-depth histogram when present, otherwise linear
        interpolation over [min, max]. Open/closed bounds are treated
        identically (the estimator works at bucket granularity).
        """
        if self.min_value is None or self.max_value is None:
            return 0.0
        effective_low = self.min_value if low is None else low
        effective_high = self.max_value if high is None else high
        if effective_low > effective_high:
            return 0.0
        if self.histogram:
            total = len(self.histogram)
            covered = sum(
                1 for bound in self.histogram
                if effective_low <= bound <= effective_high)
            if covered:
                return covered / total
            # Bounds fall inside a single bucket.
            return min(1.0, 1.0 / total)
        span = self.max_value - self.min_value
        if not isinstance(span, (int, float)) or span <= 0:
            return 1.0
        clipped_low = max(effective_low, self.min_value)
        clipped_high = min(effective_high, self.max_value)
        if clipped_low > clipped_high:
            return 0.0
        return (clipped_high - clipped_low) / span


@dataclass
class TableStats:
    """Statistics for one table."""

    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    #: key column -> order column -> average per-group span as a fraction
    #: of the order column's global span. Captures sequence clustering:
    #: for RFID reads, each EPC's lifetime covers a tiny fraction of the
    #: 5-year window, which is what makes an rtime range prune most
    #: sequences (the paper's §6.2 correlation observation).
    span_fractions: dict[str, dict[str, float]] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())

    def span_fraction(self, key_column: str,
                      order_column: str) -> float | None:
        by_order = self.span_fractions.get(key_column.lower())
        if by_order is None:
            return None
        return by_order.get(order_column.lower())


def analyze_table(table: Table) -> TableStats:
    """Compute fresh :class:`TableStats` for *table*.

    Reads the table's column cache, so a cold table's rows are read
    once, by the cache build, whatever the number of columns and of
    (key, order) span pairs.
    """
    columns = table.columnar()
    row_count = len(columns[0]) if columns else len(table)
    stats = TableStats(row_count=row_count)
    for column, column_values in zip(table.schema, columns):
        values = [value for value in column_values if value is not None]
        null_count = row_count - len(values)
        if not values:
            stats.columns[column.name] = ColumnStats(
                ndv=0, null_count=null_count, min_value=None, max_value=None)
            continue
        distinct = set(values)
        histogram: list = []
        if column.sql_type is not SqlType.BOOLEAN and len(values) > 1:
            ordered = sorted(values)
            buckets = min(HISTOGRAM_BUCKETS, len(ordered))
            histogram = [
                ordered[min(len(ordered) - 1,
                            (bucket + 1) * len(ordered) // buckets - 1)]
                for bucket in range(buckets)]
        stats.columns[column.name] = ColumnStats(
            ndv=len(distinct),
            null_count=null_count,
            min_value=min(distinct),
            max_value=max(distinct),
            histogram=histogram)
    _analyze_span_fractions(table, columns, stats)
    return stats


def _analyze_span_fractions(table: Table, columns: list[list],
                            stats: TableStats) -> None:
    """Per-group span statistics for plausible (key, order) pairs.

    A key column must look like a grouping key (more than one value,
    average group size of at least ~3 rows); an order column must be a
    numeric/timestamp column with a non-degenerate range. *columns* is
    the table's contents, one list per column.
    """
    key_candidates = []
    order_candidates = []
    for column in table.schema:
        column_stats = stats.columns[column.name]
        if column_stats.ndv <= 1:
            continue
        if column.sql_type is SqlType.VARCHAR \
                and column_stats.ndv * 3 <= stats.row_count:
            key_candidates.append(column.name)
        if column.sql_type in (SqlType.TIMESTAMP, SqlType.INTEGER,
                               SqlType.DOUBLE):
            span = column_stats.max_value - column_stats.min_value
            if span and span > 0:
                order_candidates.append((column.name, span))
    for key_name in key_candidates:
        keys = columns[table.schema.position_of(key_name)]
        for order_name, global_span in order_candidates:
            values = columns[table.schema.position_of(order_name)]
            extents: dict = {}
            for key, value in zip(keys, values):
                if key is None or value is None:
                    continue
                extent = extents.get(key)
                if extent is None:
                    extents[key] = [value, value]
                elif value < extent[0]:
                    extent[0] = value
                elif value > extent[1]:
                    extent[1] = value
            if not extents:
                continue
            total = sum(high - low for low, high in extents.values())
            fraction = (total / len(extents)) / global_span
            stats.span_fractions.setdefault(key_name, {})[order_name] = \
                min(1.0, fraction)


class StatsRepository:
    """Stats per table name, recomputed on demand and cached.

    Entries produced by :meth:`analyze` remember the table's version at
    analysis time; :meth:`get` treats a version mismatch as staleness and
    returns None, so statistics never silently survive post-load inserts
    or index rebuilds. ``version`` counts every repository mutation and
    participates in the prepared-plan cache fingerprint.
    """

    def __init__(self) -> None:
        #: name -> (stats, source table or None, table version at analyze).
        self._stats: dict[str, tuple[TableStats, Table | None, int]] = {}
        self.version = 0
        #: Number of in-place append patches applied (observability).
        self.patches = 0

    def set(self, table_name: str, stats: TableStats) -> None:
        """Install externally computed stats (never treated as stale)."""
        self._stats[table_name.lower()] = (stats, None, -1)
        self.version += 1

    def get(self, table_name: str) -> TableStats | None:
        entry = self._stats.get(table_name.lower())
        if entry is None:
            return None
        stats, table, seen_version = entry
        if table is not None and table.version != seen_version:
            self.invalidate(table_name)
            return None
        return stats

    def analyze(self, table: Table) -> TableStats:
        stats = analyze_table(table)
        self._stats[table.name] = (stats, table, table.version)
        self.version += 1
        return stats

    def apply_append(self, table: Table, start: int) -> bool:
        """Patch cached stats in place for rows appended at *start*.

        Row count, null counts, and min/max are updated exactly; ndv
        becomes a lower-bound estimate (old ndv plus appended values that
        provably fall outside the old [min, max]). Histograms and span
        fractions are left as-is — for a trickle append they remain
        representative, and the next full :meth:`analyze` refreshes them.

        Crucially this does NOT bump ``self.version``: the patched stats
        are re-stamped with the table's current version, so prepared
        plans keyed on the stats epoch stay warm across small appends.
        Returns False when there is no fresh source-tracked entry to
        patch (caller should fall back to a full analyze).
        """
        entry = self._stats.get(table.name)
        if entry is None:
            return False
        stats, source, _seen_version = entry
        if source is not table:
            return False
        appended = table.rows[start:]
        stats.row_count = len(table.rows)
        for column in table.schema:
            column_stats = stats.columns.get(column.name)
            if column_stats is None:
                return False
            position = table.schema.position_of(column.name)
            outside = set()
            for row in appended:
                value = row[position]
                if value is None:
                    column_stats.null_count += 1
                    continue
                old_min = column_stats.min_value
                old_max = column_stats.max_value
                if old_min is None or value < old_min or value > old_max:
                    outside.add(value)
                if old_min is None or value < old_min:
                    column_stats.min_value = value
                if old_max is None or value > old_max:
                    column_stats.max_value = value
            column_stats.ndv += len(outside)
        self._stats[table.name] = (stats, table, table.version)
        self.patches += 1
        return True

    def rebase(self, table: Table) -> bool:
        """Re-stamp a source-tracked entry after an in-place rewrite.

        For splice-style rewrites — the region cache re-cleansing a few
        cluster-key runs and swapping them into place — the value
        distribution is essentially unchanged, so a full re-analyze on
        the next plan would be wasted work. Only the row count is
        corrected; every other statistic is kept as a planner-grade
        approximation until the next full :meth:`analyze`. Like
        :meth:`apply_append` this does NOT bump ``self.version``, so
        prepared plans over the table stay warm. Returns False when
        there is no source-tracked entry for *table* (caller decides
        whether to fall back to a full analyze).
        """
        entry = self._stats.get(table.name)
        if entry is None:
            return False
        stats, source, _seen_version = entry
        if source is not table:
            return False
        stats.row_count = len(table.rows)
        self._stats[table.name] = (stats, table, table.version)
        self.patches += 1
        return True

    def invalidate(self, table_name: str) -> None:
        if self._stats.pop(table_name.lower(), None) is not None:
            self.version += 1
