"""MVCC snapshots: consistent read views over a live :class:`Database`.

A :class:`Snapshot` pins, per table, the ``(schema_epoch, row_count)``
pair current at creation time (a :class:`~repro.minidb.table.TableVersion`)
plus a deep copy of the table's statistics. Queries executed through the
snapshot see exactly the pinned state — concurrent ``append()`` calls
extend the live stores without becoming visible — while ingest never
waits for readers.

How it works
============

Catalog tables only grow: appends *extend* a table's row sequence, and
only private tables, which no snapshot pins, can be rewritten. So a
pinned version is just a bound: scans read positions below
``row_count`` and skip everything newer. A pin is a value that no table
registers, so releasing a snapshot touches no shared state. A dropped
table leaves the catalog, but its row list stays with the pinned
version and still holds the pinned prefix. Plans are the ordinary
costed physical plans (the planner runs against the live catalog with
the *pinned* statistics, so plan shapes are reproducible from the
pinned state alone); right before execution the snapshot *arms* every
base scan with its table's bound (``visible_count``), then disarms in a
``finally`` so the plan object stays reusable for live execution.

Prepared-plan reuse uses the same fingerprint discipline as
:class:`~repro.minidb.engine.PreparedPlanCache`: table row counts are
deliberately excluded (bounds are armed per execution, so one plan shape
serves any number of successive snapshots), while schema epochs, the
stats version, and every plan-shape knob participate. The cache is
per-snapshot by default; the server hands each wire session one cache so
a session's repeated queries replan zero times across snapshots.

Concurrency contract: one Snapshot may be used from one thread at a
time (like a cursor). Any number of snapshots can execute concurrently
with each other and with ingest on the owning database.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from repro.errors import SnapshotError
from repro.minidb.optimizer.planner import Planner, PlannerOptions
from repro.minidb.optimizer.stats import TableStats
from repro.minidb.plan.builder import build_plan
from repro.minidb.plan.logical import LogicalNode
from repro.minidb.plan.physical import IndexRangeScan, PhysicalNode, SeqScan
from repro.minidb.result import ResultSet
from repro.minidb.sqlparse import parse_select
from repro.minidb.sqlparse.ast import SelectStmt
from repro.minidb.table import TableVersion
from repro.minidb.vector import materialize

if TYPE_CHECKING:  # pragma: no cover — import cycle with engine
    from repro.minidb.engine import Database, ExecutionMetrics

__all__ = ["Snapshot", "PinnedStats"]


class PinnedStats:
    """A frozen, read-only view of a :class:`StatsRepository`.

    ``StatsRepository.apply_append`` patches :class:`TableStats` objects
    *in place*, so a snapshot cannot simply hold references — it deep
    copies each table's stats at pin time. The planner only ever calls
    ``get(name)``, which this view answers from the frozen copies
    without any staleness checks (the pinned epoch never goes stale).
    """

    __slots__ = ("version", "_by_name")

    def __init__(self, version: int,
                 by_name: dict[str, TableStats]) -> None:
        self.version = version
        self._by_name = by_name

    def get(self, table_name: str) -> TableStats | None:
        return self._by_name.get(table_name.lower())


class Snapshot:
    """A consistent read view over every table of one database.

    Create via :meth:`Database.snapshot`; use as a context manager (or
    call :meth:`release` explicitly) to end it: a released snapshot
    refuses queries.
    """

    def __init__(self, database: "Database", *,
                 plan_cache=None) -> None:
        from repro.minidb.engine import PreparedPlanCache

        database._ensure_stats()
        self._db = database
        self.versions: dict[str, TableVersion] = {
            table.name: TableVersion(table, table.schema_epoch,
                                     len(table.rows))
            for table in database.catalog}
        self.stats = PinnedStats(database.stats.version, {
            name: copy.deepcopy(database.stats.get(name))
            for name in database.catalog.table_names()})
        self._catalog_version = database.catalog.version
        self._schema_epochs = tuple(sorted(
            (name, version.schema_epoch)
            for name, version in self.versions.items()))
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PreparedPlanCache(64))
        self._released = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def release(self) -> None:
        """End the snapshot; idempotent."""
        self._released = True

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    @property
    def released(self) -> bool:
        return self._released

    def row_count(self, table_name: str) -> int:
        """Rows of *table_name* visible to this snapshot."""
        return self._version_of(table_name).row_count

    def _version_of(self, table_name: str) -> TableVersion:
        version = self.versions.get(table_name.lower())
        if version is None:
            raise SnapshotError(
                f"table {table_name!r} was created after this snapshot "
                f"was pinned")
        return version

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _fingerprint(self, options: PlannerOptions) -> tuple:
        """Same discipline as ``Database._fingerprint``, pinned inputs.

        A leading marker keeps snapshot keys disjoint from live keys
        when a caller shares one cache for both.
        """
        return ("snapshot", self._catalog_version, self.stats.version,
                self._schema_epochs,
                tuple(sorted(vars(options).items())))

    def _plan_query(self, query: SelectStmt | LogicalNode,
                    options: PlannerOptions) -> PhysicalNode:
        planner = Planner(self._db.catalog, self.stats,
                          self._db.cost_model, options)
        if not isinstance(query, LogicalNode):
            query = build_plan(query, self._db.catalog)
        return planner.plan(query)

    def plan(self, query: str | SelectStmt | LogicalNode,
             options: PlannerOptions | None = None) -> PhysicalNode:
        """The costed physical plan for *query* under pinned statistics.

        SQL text is memoized in :attr:`plan_cache`; non-text queries
        plan fresh every time (exactly like ``Database.plan``).
        """
        if self._released:
            raise SnapshotError("snapshot has been released")
        effective = options or self._db.options
        if not isinstance(query, str):
            return self._plan_query(query, effective)
        fingerprint = self._fingerprint(effective)
        cached = self.plan_cache.plan(query, fingerprint)
        if cached is not None:
            return cached
        statement = self.plan_cache.parsed(query)
        if statement is None:
            statement = parse_select(query)
            self.plan_cache.remember_parsed(query, statement)
        plan = self._plan_query(statement, effective)
        self.plan_cache.remember_plan(query, fingerprint, plan)
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _arm(self, plan: PhysicalNode) -> list[Any]:
        armed = []
        for node in plan.walk():
            if isinstance(node, (SeqScan, IndexRangeScan)):
                version = self._version_of(node.table.name)
                node.visible_count = version.row_count
                armed.append(node)
        return armed

    @staticmethod
    def _disarm(armed: list[Any]) -> None:
        for node in armed:
            node.visible_count = None

    def _materialize(self, plan: PhysicalNode) -> list[tuple]:
        armed = self._arm(plan)
        try:
            return materialize(plan)
        finally:
            self._disarm(armed)

    def execute(self, query: str | SelectStmt | LogicalNode,
                options: PlannerOptions | None = None) -> ResultSet:
        """Plan and run *query* against the pinned epochs."""
        plan = self.plan(query, options)
        rows = self._materialize(plan)
        columns = [out.name for out in plan.schema]
        return ResultSet(columns, rows)

    def execute_with_metrics(
            self, query: str | SelectStmt | LogicalNode,
            options: PlannerOptions | None = None,
    ) -> "tuple[ResultSet, ExecutionMetrics]":
        """Run *query* and report per-operator work counters.

        Counters are byte-identical to executing the same query on a
        database frozen at the pinned epochs (the snapshot-isolation
        tests pin exactly this).
        """
        from repro.minidb.engine import ExecutionMetrics

        hits_before = self.plan_cache.hits
        misses_before = self.plan_cache.misses
        plan = self.plan(query, options)
        rows = self._materialize(plan)
        columns = [out.name for out in plan.schema]
        metrics = ExecutionMetrics.from_plan(plan)
        metrics.plan_cache_hits = self.plan_cache.hits - hits_before
        metrics.plan_cache_misses = self.plan_cache.misses - misses_before
        return (ResultSet(columns, rows), metrics)

    def explain_analyze(self, query: str | SelectStmt | LogicalNode,
                        options: PlannerOptions | None = None) -> str:
        """Execute *query* and return EXPLAIN ANALYZE text."""
        plan = self.plan(query, options)
        self._materialize(plan)
        return plan.explain(analyze=True)
