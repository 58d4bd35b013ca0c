"""The serving layer's executor.

The asyncio front end (``repro.server.server``) never runs engine code
on the event loop: every query and append is handed to the
:class:`ThreadExecutor` and awaited as a future. Its four-method
contract (``hello`` / ``query`` / ``append`` / ``shutdown``, all but
the last returning :class:`concurrent.futures.Future`) is what the
server and the tests drive.

The executor is a bounded thread pool over one shared
:class:`~repro.minidb.engine.Database`. Appends, session setup and
cleansed queries serialize under a single write lock; plain read-only
queries pin an MVCC snapshot *under* the lock (the pin deep-copies
statistics that appends patch in place) but execute and release it
*outside*, so readers overlap each other and ingest. The served engine
creates no tables: a cleansed query plans and runs against the live
catalog and analyzes missing statistics into the shared repository, so
it stays under the lock until nothing it touches is shown to be
mutated. Each session owns a
:class:`~repro.minidb.engine.PreparedPlanCache`, so a session's
repeated query texts replan zero times across snapshots.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Sequence

from repro.minidb.engine import Database, PreparedPlanCache
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry

__all__ = ["QueryFailed", "ThreadExecutor"]

#: Pool threads: engine jobs in flight at once across all sessions.
POOL_SIZE = 4


class QueryFailed(Exception):
    """The engine raised while serving a request (wire code
    ``query_error``); the message carries the original type and text."""


def _wire_result(result) -> dict[str, Any]:
    return {"columns": list(result.columns),
            "rows": [list(row) for row in result.rows]}


def _failure(error: BaseException) -> QueryFailed:
    return QueryFailed(f"{type(error).__name__}: {error}")


class _Session:
    """Per-wire-session engine state."""

    __slots__ = ("plan_cache", "engine")

    def __init__(self) -> None:
        self.plan_cache = PreparedPlanCache(64)
        self.engine: DeferredCleansingEngine | None = None


class ThreadExecutor:
    """Bounded thread pool with snapshot-pinned lock-free reads."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.pool = ThreadPoolExecutor(
            max_workers=POOL_SIZE,
            thread_name_prefix="repro-serve")
        #: Serializes every mutation of shared engine state: appends,
        #: snapshot pins (they copy statistics appends patch in place),
        #: session setup, and cleansed-query execution.
        self._write_lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}

    # -- contract ---------------------------------------------------------

    def hello(self, session_id: str,
              rules: Sequence[str]) -> "Future[dict[str, Any]]":
        return self.pool.submit(self._do_hello, session_id, list(rules))

    def query(self, session_id: str, sql: str,
              cleansed: bool = False) -> "Future[dict[str, Any]]":
        return self.pool.submit(self._do_query, session_id, sql, cleansed)

    def append(self, table: str,
               rows: list[tuple]) -> "Future[dict[str, Any]]":
        return self.pool.submit(self._do_append, table, rows)

    def close_session(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    def shutdown(self, wait: bool = True) -> None:
        self.pool.shutdown(wait=wait)

    # -- jobs (run on pool threads) ---------------------------------------

    def _do_hello(self, session_id: str,
                  rules: list[str]) -> dict[str, Any]:
        session = _Session()
        try:
            if rules:
                with self._write_lock:
                    registry = RuleRegistry(self.database)
                    for text in rules:
                        registry.define(text)
                    session.engine = DeferredCleansingEngine(
                        self.database, registry)
        except Exception as error:  # noqa: BLE001 — crosses the wire
            raise _failure(error) from error
        self._sessions[session_id] = session
        with self._write_lock:
            tables = sorted(self.database.catalog.table_names())
        return {"tables": tables, "rules": len(rules)}

    def _do_query(self, session_id: str, sql: str,
                  cleansed: bool) -> dict[str, Any]:
        session = self._sessions.get(session_id)
        if session is None:
            session = self._sessions.setdefault(session_id, _Session())
        try:
            if cleansed:
                if session.engine is None:
                    raise QueryFailed(
                        "QueryFailed: cleansed query on a session that "
                        "declared no rules in HELLO")
                # The engine adds no tables, but planning analyzes
                # missing statistics into the shared repository and
                # reads tables live, unbounded by a snapshot: exclusive.
                with self._write_lock:
                    return _wire_result(session.engine.execute(sql))
            with self._write_lock:
                snapshot = self.database.snapshot(
                    plan_cache=session.plan_cache)
            try:
                return _wire_result(snapshot.execute(sql))
            finally:
                snapshot.release()
        except QueryFailed:
            raise
        except Exception as error:  # noqa: BLE001 — crosses the wire
            raise _failure(error) from error

    def _do_append(self, table: str, rows: list[tuple]) -> dict[str, Any]:
        try:
            with self._write_lock:
                appended = self.database.append(table, rows)
        except Exception as error:  # noqa: BLE001 — crosses the wire
            raise _failure(error) from error
        return {"appended": appended}
