"""The differential oracle: one case, every execution path, one diff.

The paper's correctness claims (Theorem behind Q_e, §5.3's join-back
argument, Definition 2's position preservation) all reduce to a single
testable property: every strategy answers exactly ``Q[C_1..C_n]``. The
oracle executes one :class:`~repro.fuzz.cases.FuzzCase` through each
path and diffs canonicalized row bags against the naive strategy
(cleanse everything, then query — the executable definition of
``Q[C_1..C_n]``):

========================  =============================================
``expanded``              Q_e when feasible (skipped when the Figure 4
                          analysis is infeasible, as the paper allows)
``joinback``              Q_j (always applicable)
``chosen``                the engine's cost-based pick
``printed``               every candidate the engine costs, as SQL
                          text: its logical plan printed by
                          ``plan_sql``, re-parsed and executed (the
                          first candidate that differs is reported)
``cached-cold``           region cache enabled, first execution
                          (materializes the region)
``cached-warm``           second execution served from the region
``cached-invalidated``    third execution after a one-row insert makes
                          the region stale (patched or dropped, it
                          must answer the new table state)
``eager``                 materialize Φ_C(R) up front, query the copy
``plan-cache``            the eager query re-run through the prepared-
                          plan cache (hit must reproduce the miss)
``reference``             the executor's naive plan at a small odd
                          batch size (stressing chunk boundaries);
                          metrics must show batches ran
``incremental``           load a prefix, warm the region cache, then
                          interleave ``Database.append`` chunks with
                          queries: after every append the cached
                          engine (patching or invalidating as it sees
                          fit) must agree with a fresh naive run over
                          the same table state
``disk``                  naive re-run against ``storage=disk``: build
                          on disk, checkpoint, close, reopen, then
                          query — every row is re-decoded from its
                          column segments; counters must prove
                          segments were decoded
``served``                the cleansed query executed over the wire: a
                          loopback ``repro.server`` session declares
                          the case's rules in HELLO and runs the query
                          through the asyncio front end, the bounded
                          executor, and two JSON frame round trips —
                          framing, value encoding, and the serving
                          execution path must all preserve the answer
========================  =============================================

The baseline is not the executor's answer: it is the naive rewrite's
logical plan evaluated by :mod:`repro.fuzz.reference`, tuple at a time,
with nested-loop joins, ``sorted()`` and a per-row rescan of every
window frame. That evaluator shares no operator or kernel code with the
executor, so every comparison is simultaneously a strategy diff and an
executor-vs-specification diff: a bug in a window kernel that every
strategy shares (``REPRO_FUZZ_INJECT_BUG=window``) still diverges.

Each label diffs as a bag (duplicates matter); any mismatch — or any
unexpected exception — becomes a :class:`Divergence`. Errors never
abort the sweep: one broken path still reports the others.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import RewriteError
from repro.fuzz import reference
from repro.fuzz.cases import READS_COLUMNS, FuzzCase
from repro.minidb.engine import Database
from repro.minidb.plan.printer import plan_sql
from repro.minidb.result import ResultSet
from repro.minidb.schema import Column, TableSchema
from repro.minidb.types import SqlType
from repro.minidb.vector import forced_batch_size
from repro.rewrite.cache import CacheOptions
from repro.rewrite.eager import materialize_cleansed
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry

__all__ = ["ALL_LABELS", "Divergence", "OracleReport", "run_case",
           "build_database"]

#: Every comparison the oracle can run, in execution order.
ALL_LABELS = ("expanded", "joinback", "chosen", "printed", "cached-cold",
              "cached-warm", "cached-invalidated", "eager", "plan-cache",
              "reference", "incremental", "disk", "served")

_READS_SCHEMA = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("reader", SqlType.VARCHAR),
    ("biz_loc", SqlType.VARCHAR),
    ("biz_step", SqlType.VARCHAR),
)


@dataclass
class Divergence:
    """One strategy disagreeing with the naive baseline."""

    label: str
    #: "rows" (bag mismatch) or "error" (unexpected exception).
    kind: str
    detail: str = ""
    missing: list[tuple] = field(default_factory=list)
    unexpected: list[tuple] = field(default_factory=list)

    def summary(self) -> str:
        if self.kind == "error":
            return f"{self.label}: raised {self.detail}"
        return (f"{self.label}: {len(self.missing)} missing, "
                f"{len(self.unexpected)} unexpected rows")


@dataclass
class OracleReport:
    """The outcome of one differential sweep."""

    case: FuzzCase
    baseline: tuple[tuple, ...] = ()
    #: label -> "ok" | "skipped: <why>" | "DIVERGED".
    results: dict[str, str] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def diverged_labels(self) -> set[str]:
        return {divergence.label for divergence in self.divergences}

    def summary(self) -> str:
        if self.ok:
            return f"{self.case.describe()}: all strategies agree"
        parts = "; ".join(d.summary() for d in self.divergences)
        return f"{self.case.describe()}: DIVERGED — {parts}"


def build_database(case: FuzzCase,
                   reads_rows: Sequence[tuple] | None = None,
                   storage: str | None = None,
                   storage_path: str | None = None,
                   ) -> tuple[Database, RuleRegistry]:
    """A fresh database + registry holding exactly the case's data.

    *reads_rows* overrides the reads-table contents (the ``incremental``
    label loads a prefix and streams the rest in via appends).
    *storage*/*storage_path* select the storage backend (the ``disk``
    label pins ``storage="disk"``; everything else follows the ambient
    ``REPRO_STORAGE`` default).
    """
    db = Database(storage=storage, storage_path=storage_path)
    db.create_table("caser", _READS_SCHEMA)
    db.load("caser",
            case.reads_rows if reads_rows is None else reads_rows)
    for column in ("epc", "rtime", "biz_loc", "biz_step"):
        db.create_index("caser", column)
    seen: set[str] = set()
    for dimension in case.query.dimensions:
        if dimension.name in seen:
            continue
        seen.add(dimension.name)
        schema = TableSchema(Column(name, SqlType(type_value))
                             for name, type_value in dimension.schema)
        db.create_table(dimension.name, schema)
        db.load(dimension.name, dimension.rows)
        db.create_index(dimension.name, dimension.dim_key)
    registry = RuleRegistry(db)
    for text in case.rules:
        registry.define(text)
    return db, registry


def _diff(baseline: Sequence[tuple],
          got: Sequence[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Bag difference: (rows only in baseline, rows only in got)."""
    expected, actual = Counter(baseline), Counter(got)
    missing = sorted((expected - actual).elements(), key=repr)
    unexpected = sorted((actual - expected).elements(), key=repr)
    return missing, unexpected


def run_case(case: FuzzCase,
             labels: Sequence[str] | None = None) -> OracleReport:
    """Differentially execute *case*; *labels* restricts the sweep
    (the shrinker re-checks only the originally diverged paths)."""
    wanted = set(ALL_LABELS if labels is None else labels)
    report = OracleReport(case=case)
    sql = case.query.sql("caser")

    db, registry = build_database(case)
    engine = DeferredCleansingEngine(db, registry)
    # canonical() orders and compares rows only; names play no part.
    report.baseline = ResultSet([], reference.cleansed(engine,
                                                       sql)).canonical()

    def compare(label: str, execute: Callable[[], tuple[tuple, ...]],
                ) -> None:
        if label not in wanted:
            return
        try:
            got = execute()
        except RewriteError as error:
            # Infeasibility is a legitimate outcome (Q_e = null), not a
            # divergence; the strategy simply has nothing to check.
            report.results[label] = f"skipped: {error}"
            return
        except Exception as error:  # noqa: BLE001 — the whole point
            report.results[label] = "DIVERGED"
            report.divergences.append(Divergence(
                label=label, kind="error",
                detail=f"{type(error).__name__}: {error}"))
            return
        if got == report.baseline:
            report.results[label] = "ok"
            return
        missing, unexpected = _diff(report.baseline, got)
        report.results[label] = "DIVERGED"
        report.divergences.append(Divergence(
            label=label, kind="rows", missing=missing,
            unexpected=unexpected))

    compare("expanded", lambda: engine.execute(
        sql, strategies={"expanded"}).canonical())
    compare("joinback", lambda: engine.execute(
        sql, strategies={"joinback"}).canonical())
    compare("chosen", lambda: engine.execute(sql).canonical())

    def printed() -> tuple[tuple, ...]:
        got = report.baseline
        for candidate in engine.rewrite(sql).candidates:
            if candidate.logical is None:
                continue
            got = db.execute(plan_sql(candidate.logical)).canonical()
            if got != report.baseline:
                break
        return got

    compare("printed", printed)

    if wanted & {"cached-cold", "cached-warm", "cached-invalidated"}:
        cached_db, cached_registry = build_database(case)
        cached_engine = DeferredCleansingEngine(
            cached_db, cached_registry, cache=CacheOptions())
        compare("cached-cold", lambda: cached_engine.execute(
            sql).canonical())
        compare("cached-warm", lambda: cached_engine.execute(
            sql).canonical())

        if "cached-invalidated" in wanted and case.reads_rows:
            # Make the cached region stale: insert one row into the
            # source table after the region was cached, then query
            # again. Whether the cache patches the region or drops it,
            # the cached engine must agree with a fresh naive run over
            # the *new* table state (not the original baseline).
            try:
                probe = dict(zip(READS_COLUMNS, case.reads_rows[0]))
                probe["rtime"] = probe["rtime"] + 1
                cached_db.table("caser").insert(probe)
                cached_db.analyze("caser")
                fresh = DeferredCleansingEngine(cached_db, cached_registry)
                expected = fresh.execute(
                    sql, strategies={"naive"}).canonical()
                got = cached_engine.execute(sql).canonical()
            except Exception as error:  # noqa: BLE001
                report.results["cached-invalidated"] = "DIVERGED"
                report.divergences.append(Divergence(
                    label="cached-invalidated", kind="error",
                    detail=f"{type(error).__name__}: {error}"))
            else:
                if got == expected:
                    report.results["cached-invalidated"] = "ok"
                else:
                    missing, unexpected = _diff(expected, got)
                    report.results["cached-invalidated"] = "DIVERGED"
                    report.divergences.append(Divergence(
                        label="cached-invalidated", kind="rows",
                        missing=missing, unexpected=unexpected))

    if wanted & {"eager", "plan-cache"}:
        eager_db, eager_registry = build_database(case)
        eager_sql = case.query.sql("caser_clean")

        def eager() -> tuple[tuple, ...]:
            materialize_cleansed(eager_db, eager_registry, "caser",
                                 "caser_clean")
            return eager_db.execute(eager_sql).canonical()

        compare("eager", eager)

        def plan_cache_hit() -> tuple[tuple, ...]:
            if "caser_clean" not in eager_db.catalog:
                raise RewriteError("eager path skipped; nothing to re-run")
            result, metrics = eager_db.execute_with_metrics(eager_sql)
            if metrics.plan_cache_hits == 0:
                raise AssertionError(
                    "prepared-plan cache did not serve the repeated query")
            return result.canonical()

        compare("plan-cache", plan_cache_hit)

    def executor_naive() -> tuple[tuple, ...]:
        naive_db, naive_registry = build_database(case)
        naive_engine = DeferredCleansingEngine(naive_db, naive_registry)
        # Batch size 7: small and odd, so chunk boundaries land mid-way
        # through partitions, join probes, and selection vectors.
        with forced_batch_size(7):
            result, metrics, _ = naive_engine.execute_with_metrics(
                sql, strategies={"naive"})
        # An empty result can ride an empty index range that emits no
        # batches at all; only a non-empty result proves batches flowed.
        if result.rows and metrics.batches == 0:
            raise AssertionError(
                "reference strategy executed zero batches — the batch "
                "size did not take effect")
        return result.canonical()

    compare("reference", executor_naive)

    def incremental() -> tuple[tuple, ...]:
        # Streaming replay: load a prefix, warm the region cache, then
        # feed the remaining rows through Database.append in two chunks,
        # re-querying after each. The cached engine is free to patch or
        # invalidate; either way every intermediate answer must match a
        # fresh naive run over the SAME table state (same object — the
        # appended rows sit at the end, so a rebuilt full-load database
        # would not be tie-order comparable). The final state holds
        # exactly the case's rows, so the last answer is also diffed
        # against the global baseline by compare().
        rows = list(case.reads_rows)
        if not rows:
            raise RewriteError("empty dataset; nothing to stream")
        split = max(1, (2 * len(rows)) // 3)
        inc_db, inc_registry = build_database(case,
                                              reads_rows=rows[:split])
        inc_engine = DeferredCleansingEngine(inc_db, inc_registry,
                                             cache=CacheOptions())
        fresh = DeferredCleansingEngine(inc_db, inc_registry)
        got = inc_engine.execute(sql).canonical()
        remainder = rows[split:]
        mid = (len(remainder) + 1) // 2
        for chunk in (remainder[:mid], remainder[mid:]):
            if not chunk:
                continue
            inc_db.append("caser", chunk)
            got = inc_engine.execute(sql).canonical()
            expected = fresh.execute(sql, strategies={"naive"}).canonical()
            if got != expected:
                missing, unexpected = _diff(expected, got)
                raise AssertionError(
                    "incremental answer diverged mid-stream: "
                    f"{len(missing)} missing, {len(unexpected)} "
                    "unexpected rows vs naive over the same state")
        return got

    compare("incremental", incremental)

    def disk() -> tuple[tuple, ...]:
        # Durable replay: build the database on disk, checkpoint and
        # close it, then reopen — every row the query reads was
        # re-decoded from its column segment (nothing survives from the
        # build-time row lists). Must be byte-identical to the
        # in-memory baseline.
        tmp = tempfile.mkdtemp(prefix="repro-fuzz-disk-")
        try:
            build_db, _ = build_database(case, storage="disk",
                                         storage_path=tmp)
            build_db.shutdown()  # checkpoint: segments + manifest durable
            disk_db = Database(storage="disk", storage_path=tmp)
            try:
                disk_registry = RuleRegistry(disk_db)
                for text in case.rules:
                    disk_registry.define(text)
                disk_engine = DeferredCleansingEngine(disk_db,
                                                      disk_registry)
                result = disk_engine.execute(
                    sql, strategies={"naive"}).canonical()
                counters = disk_db.storage.counters
            finally:
                disk_db.shutdown()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if case.reads_rows and counters["segments_decoded"] == 0:
            raise AssertionError(
                "disk strategy never decoded a segment — the storage "
                "path did not run")
        return result

    compare("disk", disk)

    def served() -> tuple[tuple, ...]:
        # Wire replay: host the case's database behind a loopback
        # server, declare the cleansing rules in HELLO, and run the
        # cleansed query through the full serving stack — frame
        # encode/decode both ways, the session worker, admission
        # control, and the executor's exclusive cleansed path. The
        # rows crossing the wire as JSON must restore byte-identically.
        from repro.server import ServerClient, serve_loopback

        serve_db, _ = build_database(case)
        try:
            with serve_loopback(serve_db) as handle, \
                    ServerClient(*handle.address) as client:
                client.hello(rules=list(case.rules))
                return client.query(sql, cleansed=True).canonical()
        finally:
            serve_db.shutdown()

    compare("served", served)
    return report
