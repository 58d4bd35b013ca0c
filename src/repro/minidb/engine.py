"""The minidb database facade.

:class:`Database` ties the subsystems together: catalog, statistics,
planner, executor. It accepts SQL text, parsed statements, or logical
plans, and returns materialized :class:`ResultSet` objects. ``explain``
surfaces the costed physical plan; the deferred-cleansing rewrite engine
uses its root cost estimate to choose among candidate rewrites, mirroring
how the paper compiles m+1 SQL statements on DB2 and keeps the cheapest.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro import knobs
from repro.minidb.catalog import Catalog
from repro.minidb.optimizer.cost import CostModel
from repro.minidb.optimizer.planner import Planner, PlannerOptions
from repro.minidb.optimizer.stats import StatsRepository
from repro.minidb.plan.builder import build_plan
from repro.minidb.plan.logical import LogicalNode
from repro.minidb.plan.physical import FilterOp, PhysicalNode, SortOp
from repro.minidb.plan.window import WindowOp
from repro.minidb.vector import materialize
from repro.minidb.result import ResultSet
from repro.minidb.schema import Column, TableSchema
from repro.minidb.sqlparse import parse_select, parse_sql
from repro.minidb.sqlparse.ast import (
    CreateIndexStmt,
    CreateTableStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
)
from repro.minidb.table import Table

__all__ = ["Database", "Explained", "ExecutionMetrics", "PreparedPlanCache"]


@dataclass
class ExecutionMetrics:
    """Work counters collected from an executed physical plan.

    These are the quantities the paper's analysis reasons about: how many
    rows each rewrite pulls from base tables, how many rows it sorts, and
    how many sort passes it needs.
    """

    rows_emitted: int = 0
    rows_sorted: int = 0
    sort_operators: int = 0
    operators: int = 0
    #: Prepared-plan cache counters for the call that produced these
    #: metrics (filled in by ``Database.execute_with_metrics``).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Columnar chunks emitted across all operators. The fuzz oracle's
    #: ``reference`` label asserts on this to prove its small batch size
    #: took effect; 0 only when no operator produced a row.
    batches: int = 0
    #: Rows filter predicates evaluated vs rows that survived, summed
    #: over every FilterOp — their ratio is the selection-vector density.
    filter_input_rows: int = 0
    filter_output_rows: int = 0
    #: (operator label, rows produced) per plan node in walk order.
    operator_rows: list[tuple[str, int]] = field(default_factory=list)
    #: Incremental-cleansing counters for the call that produced these
    #: metrics (filled in by the rewrite engine's
    #: ``execute_with_metrics``): delta epochs consumed from table delta
    #: logs, cluster-key sequences re-cleansed by region-cache patches,
    #: and region-cache entries patched in place instead of discarded.
    delta_epochs_applied: int = 0
    sequences_recleaned: int = 0
    cache_patches: int = 0
    #: WAL bytes appended during the call that produced these metrics
    #: (filled in by ``execute_with_metrics``; non-zero only in disk mode
    #: and only if the call mutated tables).
    wal_bytes: int = 0
    # 0 stub: only bench/statements.py reads it; the [benchmark] PR deletes it
    fused_pipelines: int = 0
    # 0 stub: only bench/statements.py reads it; the [benchmark] PR deletes it
    sharded_segments: int = 0
    # 0 stub: only bench/statements.py reads it; the [benchmark] PR deletes it
    shard_workers: int = 0

    @property
    def selection_density(self) -> float | None:
        """Fraction of filtered rows that survived, or None (no filters)."""
        if not self.filter_input_rows:
            return None
        return self.filter_output_rows / self.filter_input_rows

    @classmethod
    def from_plan(cls, plan: PhysicalNode) -> "ExecutionMetrics":
        metrics = cls()
        for node in plan.walk():
            metrics.operators += 1
            metrics.rows_emitted += node.actual_rows
            metrics.batches += node.actual_batches
            metrics.operator_rows.append((node.label(), node.actual_rows))
            if isinstance(node, FilterOp):
                metrics.filter_input_rows += node.input_rows
                metrics.filter_output_rows += node.actual_rows
            if isinstance(node, SortOp):
                metrics.rows_sorted += node.sorted_rows
                metrics.sort_operators += 1
            elif isinstance(node, WindowOp) and node.sorted_rows:
                metrics.rows_sorted += node.sorted_rows
                metrics.sort_operators += 1
        return metrics


@dataclass
class Explained:
    """The outcome of ``Database.explain``."""

    plan: PhysicalNode
    text: str
    estimated_cost: float
    estimated_rows: float


class PreparedPlanCache:
    """SQL text -> (parsed AST, costed physical plan) memoization.

    An entry is valid only while the database looks exactly as it did at
    planning time: the key's *fingerprint* combines the catalog version,
    the statistics version, every table's data version, and the planner
    options in effect. Any DDL, load, insert, or RUNSTATS therefore
    invalidates structurally — no explicit invalidation hooks needed.

    Parsed ASTs are kept separately from plans (parsing never goes
    stale), so a fingerprint change still skips the lexer/parser.
    Entries are LRU-evicted beyond ``capacity``.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._parsed: OrderedDict[str, SelectStmt] = OrderedDict()
        self._plans: OrderedDict[tuple, PhysicalNode] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def parsed(self, sql: str) -> SelectStmt | None:
        statement = self._parsed.get(sql)
        if statement is not None:
            self._parsed.move_to_end(sql)
        return statement

    def remember_parsed(self, sql: str, statement: SelectStmt) -> None:
        self._parsed[sql] = statement
        self._parsed.move_to_end(sql)
        while len(self._parsed) > self.capacity:
            self._parsed.popitem(last=False)

    def plan(self, sql: str, fingerprint: tuple) -> PhysicalNode | None:
        entry = self._plans.get((sql, fingerprint))
        if entry is None:
            self.misses += 1
            return None
        self._plans.move_to_end((sql, fingerprint))
        self.hits += 1
        entry.reset_metrics()
        return entry

    def remember_plan(self, sql: str, fingerprint: tuple,
                      plan: PhysicalNode) -> None:
        self._plans[(sql, fingerprint)] = plan
        self._plans.move_to_end((sql, fingerprint))
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)

    def clear(self) -> None:
        self._parsed.clear()
        self._plans.clear()


class Database:
    """A relational database with a SQL/OLAP query engine.

    Rows live in Python lists in both storage modes. ``storage="memory"``
    (the default) keeps nothing else; ``storage="disk"`` makes them
    durable: every mutation is logged to a write-ahead log before the
    list changes, and a checkpoint appends the new rows to ``data.pages``
    as column segments (see ``repro.minidb.storage``).
    ``REPRO_STORAGE`` sets the default mode; *storage_path* names the
    database directory (a throwaway temp dir when omitted), and reopening
    an existing directory runs recovery — the catalog comes back with
    the exact state of the last committed write. *encode* overrides
    ``REPRO_ENCODE`` — whether segment columns may take the dictionary
    layout on disk; it has no effect in memory mode.
    """

    def __init__(self, options: PlannerOptions | None = None,
                 plan_cache_size: int = 256, *,
                 storage: str | None = None,
                 storage_path: str | None = None,
                 # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
                 buffer_pages: int | None = None,
                 encode: bool | None = None) -> None:
        del buffer_pages  # accepted and ignored
        # Attributes __del__/__exit__ touch are assigned before anything
        # that can raise, so shutdown() is safe after a failed __init__.
        self.storage = None
        self._storage_closed = False
        knobs.validate_environment()
        mode = storage or os.environ.get("REPRO_STORAGE", "memory")
        if mode not in ("memory", "disk"):
            raise ValueError(
                f"unknown storage mode {mode!r} (memory or disk)")
        if mode == "disk":
            from repro.minidb.storage.backend import DiskStorage

            self.storage = DiskStorage(path=storage_path, encode=encode)
        self.catalog = Catalog(self.storage)
        if self.storage is not None:
            self.storage.open(self.catalog)
        self.stats = StatsRepository()
        self.cost_model = CostModel()
        self.options = options or PlannerOptions()
        self.plan_cache = PreparedPlanCache(plan_cache_size)

    def __del__(self) -> None:
        try:
            self.shutdown()
        except Exception:  # noqa: BLE001 — interpreter may be tearing down
            pass

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Cleanly close disk storage (checkpoint, truncate the WAL,
        delete a temp-owned directory) and drop what the tables derive
        from their rows: column caches and index entries. The database
        is unusable afterwards in disk mode; a no-op in memory mode.

        Idempotent, and safe to call on a partially constructed instance
        (``__exit__``/``__del__`` after a failed ``__init__``): every
        attribute touched here is assigned before ``__init__`` can
        raise, and the storage backend is closed exactly once.
        """
        storage = getattr(self, "storage", None)
        if storage is not None and not getattr(self, "_storage_closed",
                                               True):
            self._storage_closed = True
            storage.close()

    def checkpoint(self) -> None:
        """Force a storage checkpoint now (no-op in memory mode)."""
        if self.storage is not None:
            self.storage.checkpoint()

    def snapshot(self, *, plan_cache: PreparedPlanCache | None = None):
        """Pin a consistent MVCC read view over every table.

        The returned :class:`~repro.minidb.snapshot.Snapshot` sees
        exactly the current (schema_epoch, data_epoch, stats) per table:
        concurrent :meth:`append` calls land invisibly, and a
        ``replace_rows``/``drop_table`` detaches the pinned versions
        onto frozen copies. Use it as a context manager (or call
        ``release()``) so pinned epochs can retire. *plan_cache* lets a
        serving session reuse prepared plans across its snapshots.
        """
        from repro.minidb.snapshot import Snapshot

        return Snapshot(self, plan_cache=plan_cache)

    # -- DDL / loading ------------------------------------------------------

    def create_table(self, name: str, schema: TableSchema) -> Table:
        """Create an empty table."""
        return self.catalog.create_table(name, schema)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.stats.invalidate(name)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def load(self, name: str,
             rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Bulk-load rows and refresh the table's statistics."""
        table = self.catalog.table(name)
        buffered = list(rows)
        if buffered and isinstance(buffered[0], Mapping):
            names = table.schema.names
            buffered = [[row.get(column) for column in names]
                        for row in buffered]
        loaded = table.bulk_load(buffered)
        self.stats.analyze(table)
        return loaded

    def append(self, name: str,
               rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Streaming ingest: append rows, patching warm state in place.

        The incremental counterpart to :meth:`load`: rows land as one
        delta epoch (``Table.append_rows``), indexes are merged rather
        than rebuilt, the columnar cache extends lazily, and statistics
        are patched in place when a fresh analysis exists — keeping
        prepared plans and (via the delta log) materialized cleansing
        regions warm. Falls back to a full analyze when the cached stats
        were already stale. Returns the number of rows appended.
        """
        table = self.catalog.table(name)
        buffered = list(rows)
        if buffered and isinstance(buffered[0], Mapping):
            names = table.schema.names
            buffered = [[row.get(column) for column in names]
                        for row in buffered]
        if not buffered:
            return 0
        # get() both answers freshness and evicts a stale entry, so a
        # later apply_append can never patch on top of pre-append drift.
        stats_fresh = self.stats.get(table.name) is not None
        start = len(table.rows)
        appended = table.append_rows(buffered)
        if not (stats_fresh and self.stats.apply_append(table, start)):
            self.stats.analyze(table)
        return appended

    def create_index(self, table_name: str, column: str,
                     name: str | None = None) -> None:
        self.catalog.table(table_name).create_index(column, name)

    def analyze(self, table_name: str | None = None) -> None:
        """Recompute statistics (RUNSTATS equivalent)."""
        if table_name is not None:
            self.stats.analyze(self.catalog.table(table_name))
            return
        for table in self.catalog:
            self.stats.analyze(table)

    # -- planning -------------------------------------------------------

    def _ensure_stats(self) -> None:
        for table in self.catalog:
            if self.stats.get(table.name) is None:
                self.stats.analyze(table)

    def _to_logical(self, query: str | SelectStmt | LogicalNode) -> LogicalNode:
        if isinstance(query, LogicalNode):
            return query
        if isinstance(query, str):
            query = parse_select(query)
        return build_plan(query, self.catalog)

    def _fingerprint(self, options: PlannerOptions) -> tuple:
        """The staleness key guarding prepared-plan reuse.

        Table *data* epochs deliberately do not participate: physical
        plans read table rows live at execution time, so an append
        never makes a plan wrong —
        only stale statistics can, and those are covered by the stats
        version (``StatsRepository.apply_append`` keeps it unchanged for
        trickle appends precisely so prepared plans stay warm). Schema
        epochs still participate: a new index should trigger replanning.
        """
        return (self.catalog.version, self.stats.version,
                tuple(table.schema_epoch for table in self.catalog),
                tuple(sorted(vars(options).items())))

    def plan(self, query: str | SelectStmt | LogicalNode,
             options: PlannerOptions | None = None) -> PhysicalNode:
        """Produce the costed physical plan without executing it.

        Plans for SQL *text* are memoized in :attr:`plan_cache`: repeated
        workload queries skip the parse and costing passes entirely as
        long as the catalog, statistics, and table versions are
        unchanged. A cache hit returns the same plan object with its
        execution counters reset.
        """
        self._ensure_stats()
        effective = options or self.options
        if isinstance(query, str):
            fingerprint = self._fingerprint(effective)
            cached = self.plan_cache.plan(query, fingerprint)
            if cached is not None:
                return cached
            statement = self.plan_cache.parsed(query)
            if statement is None:
                statement = parse_select(query)
                self.plan_cache.remember_parsed(query, statement)
            planner = Planner(self.catalog, self.stats, self.cost_model,
                              effective)
            logical = build_plan(statement, self.catalog)
            plan = planner.plan(logical)
            self.plan_cache.remember_plan(query, fingerprint, plan)
            return plan
        planner = Planner(self.catalog, self.stats, self.cost_model,
                          effective)
        return planner.plan(self._to_logical(query))

    def explain(self, query: str | SelectStmt | LogicalNode,
                options: PlannerOptions | None = None) -> Explained:
        """Plan *query* and return the plan with its cost estimate."""
        plan = self.plan(query, options)
        return Explained(plan=plan, text=plan.explain(),
                         estimated_cost=plan.estimated_cost,
                         estimated_rows=plan.estimated_rows)

    def explain_analyze(self, query: str | SelectStmt | LogicalNode,
                        options: PlannerOptions | None = None, *,
                        include_storage: bool = False) -> Explained:
        """Execute *query* and return the plan annotated with actual row
        counts (EXPLAIN ANALYZE).

        With ``include_storage=True`` (and disk storage) the text gains
        a trailing section with the storage-counter deltas this
        execution caused — WAL bytes and commits, checkpoints and
        segments written (0 for anything that only reads). Opt-in so the
        default text stays byte-stable across storage modes.
        """
        before = (self.storage.counters
                  if include_storage and self.storage is not None else None)
        plan = self.plan(query, options)
        materialize(plan)
        text = plan.explain(analyze=True)
        if before is not None:
            after = self.storage.counters
            lines = [f"  {name}={after[name] - before[name]}"
                     for name in ("wal_bytes", "wal_commits", "checkpoints",
                                  "segments_written")]
            text = "\n".join([text, "Storage:"] + lines)
        return Explained(plan=plan, text=text,
                         estimated_cost=plan.estimated_cost,
                         estimated_rows=plan.estimated_rows)

    # -- execution --------------------------------------------------------

    def execute(self, query: str | SelectStmt | LogicalNode,
                options: PlannerOptions | None = None) -> ResultSet:
        """Plan and run *query*, returning a materialized result."""
        plan = self.plan(query, options)
        rows = materialize(plan)
        columns = [out.name for out in plan.schema]
        return ResultSet(columns, rows)

    def run(self, sql: str) -> ResultSet:
        """Execute any supported SQL statement.

        SELECT returns its result set; CREATE TABLE / CREATE INDEX return
        an empty ``ok`` result; INSERT returns the inserted-row count.
        """
        statement = parse_sql(sql)
        if isinstance(statement, SelectStmt):
            return self.execute(statement)
        if isinstance(statement, CreateTableStmt):
            self.create_table(statement.name, TableSchema(
                Column(name, sql_type)
                for name, sql_type in statement.columns))
            return ResultSet(["ok"], [])
        if isinstance(statement, CreateIndexStmt):
            self.create_index(statement.table, statement.column,
                              statement.name)
            return ResultSet(["ok"], [])
        if isinstance(statement, DropTableStmt):
            self.drop_table(statement.name)
            return ResultSet(["ok"], [])
        if isinstance(statement, InsertStmt):
            table = self.catalog.table(statement.table)
            names = statement.columns or list(table.schema.names)
            inserted = 0
            for row in statement.rows:
                if len(row) != len(names):
                    from repro.errors import SchemaError
                    raise SchemaError(
                        f"INSERT expects {len(names)} values, got {len(row)}")
                values = {
                    name: expr.bind(lambda q, n: 0)(())
                    for name, expr in zip(names, row)}
                table.insert(values)
                inserted += 1
            self.stats.analyze(table)
            return ResultSet(["rows_inserted"], [(inserted,)])
        raise AssertionError(f"unhandled statement {statement!r}")

    def execute_with_metrics(
            self, query: str | SelectStmt | LogicalNode,
            options: PlannerOptions | None = None,
    ) -> tuple[ResultSet, ExecutionMetrics]:
        """Run *query* and also report per-operator work counters."""
        hits_before = self.plan_cache.hits
        misses_before = self.plan_cache.misses
        wal_before = (self.storage.wal.bytes_written
                      if self.storage is not None else 0)
        plan = self.plan(query, options)
        rows = materialize(plan)
        columns = [out.name for out in plan.schema]
        metrics = ExecutionMetrics.from_plan(plan)
        metrics.plan_cache_hits = self.plan_cache.hits - hits_before
        metrics.plan_cache_misses = self.plan_cache.misses - misses_before
        if self.storage is not None:
            metrics.wal_bytes = self.storage.wal.bytes_written - wal_before
        return (ResultSet(columns, rows), metrics)
