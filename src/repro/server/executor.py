"""Execution backends for the serving layer.

The asyncio front end (``repro.server.server``) never runs engine code
on the event loop: every query and append is handed to an *executor*
and awaited as a future. Two backends implement the same four-method
contract (``hello`` / ``query`` / ``append`` / ``shutdown``, all
returning :class:`concurrent.futures.Future`):

:class:`ThreadExecutor`
    The default. A bounded thread pool over one shared
    :class:`~repro.minidb.engine.Database`. Mutations (appends, session
    setup, cleansed queries — the rewrite engine creates scratch tables
    and region caches) serialize under a single write lock; plain
    read-only queries pin an MVCC snapshot *under* the lock (pin and
    release touch the shared version registry) but execute *outside*
    it, so readers overlap each other and ingest. Each session owns a
    :class:`~repro.minidb.engine.PreparedPlanCache`, so a session's
    repeated query texts replan zero times across snapshots.

:class:`ProcessExecutor`
    Opted into with ``REPRO_SERVE_WORKERS >= 2`` (memory storage only).
    Forks N workers, each inheriting a copy-on-write image of the
    database. Appends are applied to the parent (so late forks and
    direct reads stay current) and *broadcast* to every worker's FIFO
    task queue; queries round-robin to one worker. Because each queue
    is FIFO, any query enqueued after an append was acknowledged
    observes it — ordered replication gives read-your-writes across
    clients without any cross-process locking. This is the backend that
    actually scales QPS with cores: each worker is a separate
    interpreter, so query execution escapes the GIL.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Sequence

from repro.knobs import int_knob
from repro.minidb.engine import Database, PreparedPlanCache
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry

__all__ = ["QueryFailed", "ThreadExecutor", "ProcessExecutor",
           "make_executor", "configured_serve_workers"]


class QueryFailed(Exception):
    """The engine raised while serving a request (wire code
    ``query_error``); the message carries the original type and text."""


def configured_serve_workers() -> int:
    """``REPRO_SERVE_WORKERS``: process-executor worker count
    (0 or 1 selects the thread executor)."""
    return int_knob("REPRO_SERVE_WORKERS", 0, 0)


def make_executor(database: Database, *,
                  workers: int | None = None,
                  pool_size: int = 4) -> "ThreadExecutor | ProcessExecutor":
    """The right backend for *database* and the configured worker count.

    Process workers require memory storage (forked workers would share
    the parent's write-ahead log); disk databases silently fall back to
    the thread executor.
    """
    count = configured_serve_workers() if workers is None else workers
    if count >= 2 and database.storage is None:
        return ProcessExecutor(database, count)
    return ThreadExecutor(database, pool_size=pool_size)


def _wire_result(result) -> dict[str, Any]:
    return {"columns": list(result.columns),
            "rows": [list(row) for row in result.rows]}


def _failure(error: BaseException) -> QueryFailed:
    return QueryFailed(f"{type(error).__name__}: {error}")


class _Session:
    """Per-wire-session engine state (thread executor)."""

    __slots__ = ("plan_cache", "engine")

    def __init__(self) -> None:
        self.plan_cache = PreparedPlanCache(64)
        self.engine: DeferredCleansingEngine | None = None


class ThreadExecutor:
    """Bounded thread pool with snapshot-pinned lock-free reads."""

    def __init__(self, database: Database, *, pool_size: int = 4) -> None:
        self.database = database
        self.pool = ThreadPoolExecutor(
            max_workers=max(1, pool_size),
            thread_name_prefix="repro-serve")
        #: Serializes every mutation of shared engine state: appends,
        #: snapshot pin/release (the per-table version registry is a
        #: plain dict), session setup, and cleansed-query execution.
        self._write_lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}

    @property
    def workers(self) -> int:
        return 0

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
                # The rewrite engine materializes scratch tables and may
                # patch region caches — a mutation, so fully exclusive.
                with self._write_lock:
                    return _wire_result(session.engine.execute(sql))
            with self._write_lock:
                snapshot = self.database.snapshot(
                    plan_cache=session.plan_cache)
            try:
                return _wire_result(snapshot.execute(sql))
            finally:
                with self._write_lock:
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


# ----------------------------------------------------------------------
# Process executor
# ----------------------------------------------------------------------

def _process_worker(database: Database,
                    tasks: "multiprocessing.queues.Queue",
                    results: "multiprocessing.queues.Queue") -> None:
    """One forked worker: a single-threaded engine replica.

    Tasks arrive FIFO; appends mutate the replica in arrival order, so
    any query enqueued later sees them. Sessions with rules get a
    worker-local cleansing engine (rules are broadcast like appends).
    """
    engines: dict[str, DeferredCleansingEngine] = {}
    while True:
        task = tasks.get()
        if task is None:
            break
        kind = task[0]
        try:
            if kind == "rules":
                _, session_id, texts = task
                registry = RuleRegistry(database)
                for text in texts:
                    registry.define(text)
                engines[session_id] = DeferredCleansingEngine(
                    database, registry)
            elif kind == "append":
                _, table, rows = task
                database.append(table, rows)
            elif kind == "end_session":
                engines.pop(task[1], None)
            elif kind == "query":
                _, task_id, session_id, sql, cleansed = task
                if cleansed:
                    engine = engines.get(session_id)
                    if engine is None:
                        raise QueryFailed(
                            "QueryFailed: cleansed query on a session "
                            "that declared no rules in HELLO")
                    result = engine.execute(sql)
                else:
                    result = database.execute(sql)
                results.put((task_id, True, _wire_result(result)))
        except Exception as error:  # noqa: BLE001 — crosses the wire
            if kind == "query":
                results.put((task[1], False,
                             f"{type(error).__name__}: {error}"))
            # Broadcast tasks have no reply slot; a failed replicated
            # append would desync this replica, so fail loudly.
            elif kind in ("rules", "append"):
                results.put((None, False,
                             f"replica desync ({kind}): "
                             f"{type(error).__name__}: {error}"))


class ProcessExecutor:
    """N forked engine replicas with ordered append replication."""

    def __init__(self, database: Database, workers: int) -> None:
        if database.storage is not None:
            raise ValueError(
                "ProcessExecutor requires memory storage; disk databases "
                "must use ThreadExecutor")
        self.database = database
        self.workers = max(2, workers)
        context = multiprocessing.get_context("fork")
        self._results = context.Queue()
        self._queues = [context.Queue() for _ in range(self.workers)]
        self._processes = [
            context.Process(
                target=_process_worker,
                args=(database, task_queue, self._results),
                daemon=True)
            for task_queue in self._queues]
        for process in self._processes:
            process.start()
        self._futures: dict[int, Future] = {}
        self._futures_lock = threading.Lock()
        self._task_ids = itertools.count(1)
        self._next_worker = itertools.cycle(range(self.workers))
        self._write_lock = threading.Lock()
        self._closed = False
        #: First "replica desync" report from a worker. Once set, the
        #: pool no longer agrees with the parent and answers nothing.
        self._desync: str | None = None
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-collect", daemon=True)
        self._collector.start()

    # -- contract ---------------------------------------------------------

    def hello(self, session_id: str,
              rules: Sequence[str]) -> "Future[dict[str, Any]]":
        future = self._refusal()
        if future.done():
            return future
        try:
            with self._write_lock:
                if rules:
                    # Validate on the parent first so a bad rule fails
                    # the HELLO instead of desyncing every replica.
                    registry = RuleRegistry(self.database)
                    for text in rules:
                        registry.define(text)
                    self._broadcast(("rules", session_id, list(rules)))
                tables = sorted(self.database.catalog.table_names())
        except Exception as error:  # noqa: BLE001 — crosses the wire
            future.set_exception(_failure(error))
            return future
        future.set_result({"tables": tables, "rules": len(rules)})
        return future

    def query(self, session_id: str, sql: str,
              cleansed: bool = False) -> "Future[dict[str, Any]]":
        future = self._refusal()
        if future.done():
            return future
        task_id = next(self._task_ids)
        with self._futures_lock:
            self._futures[task_id] = future
        target = next(self._next_worker)
        self._queues[target].put(
            ("query", task_id, session_id, sql, cleansed))
        return future

    def append(self, table: str,
               rows: list[tuple]) -> "Future[dict[str, Any]]":
        future = self._refusal()
        if future.done():
            return future
        try:
            with self._write_lock:
                appended = self.database.append(table, rows)
                self._broadcast(("append", table, rows))
        except Exception as error:  # noqa: BLE001 — crosses the wire
            future.set_exception(_failure(error))
            return future
        future.set_result({"appended": appended})
        return future

    def close_session(self, session_id: str) -> None:
        if self._closed:
            return
        with self._write_lock:
            self._broadcast(("end_session", session_id))

    def shutdown(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        for task_queue in self._queues:
            task_queue.put(None)
        if wait:
            for process in self._processes:
                process.join(timeout=10)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        self._results.put(None)
        if wait:
            self._collector.join(timeout=10)
        with self._futures_lock:
            pending = list(self._futures.values())
            self._futures.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    QueryFailed("QueryFailed: executor shut down"))

    # -- internals --------------------------------------------------------

    def _refusal(self) -> Future:
        """A fresh future, already failed if a replica has desynced."""
        future: Future = Future()
        if self._desync is not None:
            future.set_exception(QueryFailed(self._desync))
        return future

    def _broadcast(self, task: tuple) -> None:
        for task_queue in self._queues:
            task_queue.put(task)

    def _collect(self) -> None:
        while True:
            item = self._results.get()
            if item is None:
                break
            task_id, ok, payload = item
            if task_id is None:
                # A replica failed a broadcast task; the pool can no
                # longer be trusted to agree with the parent.
                if self._desync is None:
                    self._desync = payload
                continue
            with self._futures_lock:
                future = self._futures.pop(task_id, None)
            if future is None:
                continue
            if self._desync is not None:
                # Queued behind the failed broadcast, or on a sibling
                # replica whose state the parent can no longer vouch
                # for: do not answer.
                future.set_exception(QueryFailed(self._desync))
            elif ok:
                future.set_result(payload)
            else:
                future.set_exception(QueryFailed(payload))
