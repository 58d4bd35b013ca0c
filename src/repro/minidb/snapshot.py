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
pinned state alone); right before execution every base scan is
*armed* with its table's bound (``visible_count``), then disarmed in a
``finally`` so the plan object stays reusable for live execution.

Queries run the database's own query path (``Database._execute_in``)
under a pinned :class:`~repro.minidb.engine.ReadView`, so prepared-plan
reuse is the same code as for live reads: row counts stay out of the
key (bounds are armed per execution, so one plan shape serves any
number of successive snapshots), while schema epochs, the stats
version, and every plan-shape knob participate. A leading
``"snapshot"`` marker keeps snapshot keys disjoint from live keys when
a caller shares one cache for both. The cache is per-snapshot by
default; the server hands each wire session one cache so a session's
repeated queries replan zero times across snapshots.

Concurrency contract: one Snapshot may be used from one thread at a
time (like a cursor). Any number of snapshots can execute concurrently
with each other and with ingest on the owning database.
"""

from __future__ import annotations

import copy

from repro.errors import SnapshotError
from repro.minidb.engine import (Database, ExecutionMetrics,
                                 PreparedPlanCache, ReadView)
from repro.minidb.optimizer.planner import PlannerOptions
from repro.minidb.optimizer.stats import TableStats
from repro.minidb.plan.logical import LogicalNode
from repro.minidb.plan.physical import PhysicalNode
from repro.minidb.result import ResultSet
from repro.minidb.sqlparse.ast import SelectStmt
from repro.minidb.table import TableVersion

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

    def __init__(self, database: Database, *,
                 plan_cache: PreparedPlanCache | None = None) -> None:
        database._ensure_stats()
        self._db = database
        self.versions: dict[str, TableVersion] = {
            table.name: TableVersion(table, table.schema_epoch,
                                     len(table.rows))
            for table in database.catalog}
        self.stats = PinnedStats(database.stats.version, {
            name: copy.deepcopy(database.stats.get(name))
            for name in database.catalog.table_names()})
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PreparedPlanCache(64))
        self._key = ("snapshot", database.catalog.version,
                     self.stats.version,
                     tuple(sorted((name, version.schema_epoch)
                                  for name, version in self.versions.items())))
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
        """Rows of *table_name* visible to this snapshot: the bound its
        scans are armed with."""
        version = self.versions.get(table_name.lower())
        if version is None:
            raise SnapshotError(
                f"table {table_name!r} was created after this snapshot "
                f"was pinned")
        return version.row_count

    def _pinned(self) -> ReadView:
        if self._released:
            raise SnapshotError("snapshot has been released")
        return ReadView(self.stats, self.plan_cache, self._key,
                        self.row_count)

    # -- queries: the database's own path, under the pinned view -------

    def plan(self, query: str | SelectStmt | LogicalNode,
             options: PlannerOptions | None = None) -> PhysicalNode:
        """The costed physical plan for *query* under pinned statistics.

        SQL text is memoized in :attr:`plan_cache`; non-text queries
        plan fresh every time (exactly like ``Database.plan``).
        """
        return self._db._plan_in(self._pinned(), query, options)

    def execute(self, query: str | SelectStmt | LogicalNode,
                options: PlannerOptions | None = None) -> ResultSet:
        """Plan and run *query* against the pinned epochs."""
        _, result, _ = self._db._execute_in(self._pinned(), query, options)
        return result

    def execute_with_metrics(
            self, query: str | SelectStmt | LogicalNode,
            options: PlannerOptions | None = None,
    ) -> tuple[ResultSet, ExecutionMetrics]:
        """Run *query* and report per-operator work counters.

        Counters are byte-identical to executing the same query on a
        database frozen at the pinned epochs (the snapshot-isolation
        tests pin exactly this).
        """
        _, result, metrics = self._db._execute_in(
            self._pinned(), query, options, metrics=True)
        return (result, metrics)

    def explain_analyze(self, query: str | SelectStmt | LogicalNode,
                        options: PlannerOptions | None = None) -> str:
        """Execute *query* and return EXPLAIN ANALYZE text."""
        plan, _, _ = self._db._execute_in(self._pinned(), query, options)
        return plan.explain(analyze=True)
