"""The statements a round is made of.

Each class wraps one public call into the system — ``engine.execute``,
``Database.execute``, ``Database.append``, ``Database.checkpoint`` or a
``ServerClient`` call — with three faces: ``run()`` as a user would call
it, ``traced()`` driving the same work as its public steps under spans,
and ``oracle()`` giving the reference answer.
"""

from __future__ import annotations

import time

from repro.minidb.codegen import cache_stats
from repro.minidb.engine import ExecutionMetrics
from repro.minidb.result import ResultSet
from repro.minidb.sqlparse import parse_select
from repro.minidb.vector import (
    encode_stats,
    forced_batch_size,
    materialize,
)
from repro.rewrite.context import extract_context
from repro.rewrite.expanded import analyze_expanded
from repro.server import ServerBusy

#: Shed requests are retried this many times before they count as failed.
RETRY_ATTEMPTS = 50


def _count_execution(plan, counts, before) -> None:
    """Fold one executed plan's work counters into the round's counts."""
    metrics = ExecutionMetrics.from_plan(plan)
    codegen_before, encode_before = before
    codegen_after, encode_after = cache_stats(), encode_stats()
    counts["exec.rows_sorted"] += metrics.rows_sorted
    counts["exec.sort_operators"] += metrics.sort_operators
    counts["exec.rows_emitted"] += metrics.rows_emitted
    counts["exec.batches"] += metrics.batches
    counts["filter_input_rows"] += metrics.filter_input_rows
    counts["filter_output_rows"] += metrics.filter_output_rows
    counts["exec.encoded_columns"] += encode_after[0] - encode_before[0]
    counts["exec.decode_fallbacks"] += encode_after[1] - encode_before[1]
    counts["codegen.fused_pipelines"] += metrics.fused_pipelines
    counts["codegen.compile_ms"] += codegen_after[2] - codegen_before[2]
    counts["shard.segments"] += metrics.sharded_segments
    counts["shard.workers"] = max(counts["shard.workers"],
                                  metrics.shard_workers)
    estimated, actual = max(plan.estimated_rows, 1.0), max(plan.actual_rows, 1)
    counts.setdefault("qerrors", []).append(
        max(estimated / actual, actual / estimated))


class Statement:
    #: "read" (a query), "append" or "maint" (checkpoint).
    kind = "read"

    def __init__(self, cls: str) -> None:
        self.cls = cls

    def problem(self, result) -> str | None:
        """Why *result* is unacceptable on its face, or None."""
        return "empty answer" if len(result) == 0 else None

    def traced(self, tracer, round_, counts):
        with tracer.span("op." + self.cls, round_):
            return self.run()

    def shadow(self, tracer, round_) -> None:
        """Price, outside any op span, sub-steps that ``traced`` cannot
        reach in line; most statements have none."""


class CleansedQuery(Statement):
    """``engine.execute(sql)``: rewrite under the engine's rules, run
    the candidate the engine's own costing picks."""

    def __init__(self, cls: str, engine, sql: str) -> None:
        super().__init__(cls)
        self.engine = engine
        self.sql = sql
        self.key = (id(engine), sql)

    def run(self) -> ResultSet:
        return self.engine.execute(self.sql)

    def traced(self, tracer, round_, counts) -> ResultSet:
        before = (cache_stats(), encode_stats())
        with tracer.span("op." + self.cls, round_):
            with tracer.span("sqlparse.parse"):
                statement = parse_select(self.sql)
            with tracer.span("rewrite.rewrite"):
                rewritten = self.engine.rewrite(statement)
            plan = rewritten.physical
            with tracer.span("exec.materialize"):
                rows = materialize(plan)
            result = ResultSet([f.name for f in plan.schema], rows)
        counts["rewrite.candidates"] += len(rewritten.candidates)
        counts["rewrite.chosen." + rewritten.strategy] += 1
        _count_execution(plan, counts, before)
        return result

    def shadow(self, tracer, round_) -> None:
        """Price sub-steps of ``rewrite`` that are not callable in line:
        rule/context analysis, and planning the chosen candidate."""
        engine = self.engine
        statement = parse_select(self.sql)
        rewritten = engine.rewrite(statement)
        if rewritten.context is None:
            return
        table = rewritten.context.table_ref.name
        rules = [compiled.rule for compiled in
                 engine.registry.rules_for(table)]
        columns = set(engine.database.table(table).schema.names)
        with tracer.span("shadow.rewrite.analyze", round_):
            context = extract_context(statement, table, engine.database)
            analyze_expanded(rules, context.s_conjuncts, columns)
        if rewritten.chosen.logical is not None:
            with tracer.span("shadow.optimizer.plan", round_):
                engine.database.plan(rewritten.chosen.logical)

    def oracle(self) -> tuple:
        with forced_batch_size(0):
            return self.engine.execute(self.sql, {"naive"}).canonical()


class DirtyQuery(Statement):
    """``Database.execute(sql)``: no rules, the reads as they are."""

    def __init__(self, cls: str, database, sql: str) -> None:
        super().__init__(cls)
        self.database = database
        self.sql = sql
        self.key = (id(database), sql)

    def run(self) -> ResultSet:
        return self.database.execute(self.sql)

    def traced(self, tracer, round_, counts) -> ResultSet:
        before = (cache_stats(), encode_stats())
        with tracer.span("op." + self.cls, round_):
            # Database.execute(text) consults the prepared-plan cache;
            # so does this, by planning the text.
            with tracer.span("optimizer.plan"):
                plan = self.database.plan(self.sql)
            with tracer.span("exec.materialize"):
                rows = materialize(plan)
            result = ResultSet([out.name for out in plan.schema], rows)
        _count_execution(plan, counts, before)
        return result

    def oracle(self) -> tuple:
        with forced_batch_size(0):
            return self.database.execute(self.sql).canonical()


class Append(Statement):
    kind = "append"

    def __init__(self, cls: str, database, rows: list[tuple]) -> None:
        super().__init__(cls)
        self.database = database
        self.rows = rows

    def run(self) -> int:
        return self.database.append("caser", self.rows)

    def traced(self, tracer, round_, counts) -> int:
        with tracer.span("op." + self.cls, round_):
            with tracer.span("ingest.append"):
                return self.run()

    def problem(self, result) -> str | None:
        if result != len(self.rows):
            return f"appended {result} of {len(self.rows)} rows"
        return None


class Checkpoint(Statement):
    kind = "maint"

    def __init__(self, cls: str, database) -> None:
        super().__init__(cls)
        self.database = database

    def run(self) -> None:
        self.database.checkpoint()
        return 0

    def traced(self, tracer, round_, counts):
        with tracer.span("op." + self.cls, round_):
            with tracer.span("storage.checkpoint"):
                return self.run()

    def problem(self, result) -> str | None:
        return None


# ----------------------------------------------------------------------
# Through the socket
# ----------------------------------------------------------------------

class Session:
    """One ``ServerClient`` connection plus what the harness counts on
    it: retries after a shed, and the last ``count(*)`` it was told.

    ``append`` has ``Database.append``'s signature, so an :class:`Append`
    statement works through the wire unchanged.
    """

    def __init__(self, client) -> None:
        self.client = client
        self.retries = 0
        self.last_count = 0

    def _call(self, request):
        """*request* with the client's polite retry loop, counted."""
        for _ in range(RETRY_ATTEMPTS - 1):
            try:
                return request()
            except ServerBusy as shed:
                self.retries += 1
                time.sleep(shed.retry_after)
        return request()  # a shed that survives the retries raises

    def hello(self, rules: list[str]) -> dict:
        return self._call(lambda: self.client.hello(rules))

    def query(self, sql: str, cleansed: bool) -> ResultSet:
        return self._call(lambda: self.client.query(sql, cleansed=cleansed))

    def append(self, table: str, rows: list[tuple]) -> int:
        return self._call(lambda: self.client.append(table, rows))


class ServedQuery(Statement):
    """A query through the wire; *reference* is the same statement on
    the parent's own copy of the database, which gives the oracle."""

    def __init__(self, session: Session, reference: Statement) -> None:
        super().__init__(reference.cls)
        self.session = session
        self.reference = reference
        self.cleansed = isinstance(reference, CleansedQuery)
        self.key = reference.sql

    def run(self) -> ResultSet:
        return self.session.query(self.reference.sql, self.cleansed)

    def oracle(self) -> tuple:
        return self.reference.oracle()


class ServedCount(ServedQuery):
    """``select count(*)``: also the session's monotonicity probe —
    acknowledged appends may never disappear from a later read."""

    def problem(self, result) -> str | None:
        count = result.scalar()
        if count < self.session.last_count:
            return (f"count(*) went backwards: {count} after "
                    f"{self.session.last_count}")
        self.session.last_count = count
        return None
