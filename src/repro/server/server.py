"""The asyncio serving front end.

One :class:`Server` owns a listening socket, a
:class:`~repro.server.executor.ThreadExecutor`, and the
admission-control state. Each accepted connection becomes a
*session*: a reader coroutine parses frames off the socket and a
worker coroutine executes them strictly in arrival order (responses
still carry the request ``id``, so pipelined clients overlap network
latency even though execution is sequential — this is also what makes
the per-session prepared-plan cache safe: a session's plans are never
armed by two executions at once).

Admission control has two gates, both shedding instead of queueing
without bound:

* a global in-flight cap (``REPRO_SERVE_INFLIGHT``, default 8): when
  that many requests are executing across all sessions, new work is
  refused with ``overloaded`` and a ``retry_after`` hint;
* a per-session depth cap (``REPRO_SERVE_SESSION_DEPTH``, default 8):
  a client pipelining more than this many unanswered requests gets
  ``session_busy`` immediately, off the reader coroutine.

Disconnects cancel the session's worker mid-await (the engine-side
computation finishes on its pool thread, but its result is dropped and
its admission slot freed). :meth:`Server.drain` closes the listener,
lets every queued request finish, answers nothing new, and shuts the
executor down — the graceful-shutdown contract the serving tests pin.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
from typing import Any, Iterator

from repro import knobs
from repro.minidb.engine import Database
from repro.server import protocol
from repro.server.executor import QueryFailed, ThreadExecutor

__all__ = ["Server", "ServerHandle", "serve_in_thread", "serve_loopback",
           "DEFAULT_MAX_INFLIGHT", "DEFAULT_SESSION_DEPTH"]

DEFAULT_MAX_INFLIGHT = 8
DEFAULT_SESSION_DEPTH = 8

#: Seconds a shed client should wait before retrying.
RETRY_AFTER = 0.05


class _SessionState:
    """Bookkeeping for one connected client."""

    __slots__ = ("session_id", "queue", "worker", "writer", "write_lock")

    def __init__(self, session_id: str,
                 writer: asyncio.StreamWriter) -> None:
        self.session_id = session_id
        # Unbounded on purpose: depth is enforced by the reader (which
        # must shed, not block), and the drain sentinel must always fit.
        self.queue: asyncio.Queue = asyncio.Queue()
        self.worker: asyncio.Task | None = None
        self.writer = writer
        self.write_lock = asyncio.Lock()


class Server:
    """Serve one :class:`Database` to many concurrent wire sessions."""

    def __init__(self, database: Database, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_inflight: int | None = None,
                 session_depth: int | None = None) -> None:
        knobs.validate_environment()
        self.database = database
        self._host_arg = host
        self._port_arg = port
        self.executor = ThreadExecutor(database)
        self.max_inflight = (max_inflight if max_inflight is not None
                             else knobs.int_knob("REPRO_SERVE_INFLIGHT",
                                                 DEFAULT_MAX_INFLIGHT, 1))
        self.session_depth = (session_depth if session_depth is not None
                              else knobs.int_knob("REPRO_SERVE_SESSION_DEPTH",
                                                  DEFAULT_SESSION_DEPTH, 1))
        self.host: str | None = None
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._sessions: dict[str, _SessionState] = {}
        self._session_ids = itertools.count(1)
        self._inflight = 0
        self._draining = False
        #: Requests refused by admission control (observability; the
        #: saturation test asserts sheds happened instead of queueing).
        self.shed_count = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host_arg, self._port_arg)
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: finish queued work, then stop.

        Closes the listener (no new connections), marks the server
        draining (new requests on live connections answer
        ``shutting_down``), waits for every session's already-queued
        requests to complete, closes the connections, and shuts the
        executor down.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for state in list(self._sessions.values()):
            state.queue.put_nowait(None)  # worker exits after backlog
        workers = [state.worker for state in self._sessions.values()
                   if state.worker is not None]
        if workers:
            await asyncio.wait(workers, timeout=30)
        await asyncio.get_running_loop().run_in_executor(
            None, self.executor.shutdown)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        session_id = f"s{next(self._session_ids)}"
        state = _SessionState(session_id, writer)
        state.worker = asyncio.ensure_future(self._session_worker(state))
        self._sessions[session_id] = state
        try:
            while True:
                try:
                    payload = await protocol.read_payload(reader)
                except protocol.ProtocolError:
                    break  # the framing is lost: nothing more to read
                if payload is None:
                    break
                try:
                    message = protocol.decode_payload(payload)
                except protocol.ProtocolError as error:
                    await self._respond(state, {
                        "id": None, "ok": False, "error": "bad_request",
                        "message": str(error)})
                    continue
                if self._draining:
                    await self._respond(state, {
                        "id": message.get("id"), "ok": False,
                        "error": "shutting_down",
                        "message": "server is draining"})
                    continue
                if state.queue.qsize() >= self.session_depth:
                    self.shed_count += 1
                    await self._respond(state, {
                        "id": message.get("id"), "ok": False,
                        "error": "session_busy",
                        "message": f"more than {self.session_depth} "
                                   f"requests outstanding",
                        "retry_after": RETRY_AFTER})
                    continue
                state.queue.put_nowait(message)
        finally:
            if not self._draining and state.worker is not None:
                state.worker.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await state.worker
            self._sessions.pop(session_id, None)
            self.executor.close_session(session_id)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _session_worker(self, state: _SessionState) -> None:
        while True:
            message = await state.queue.get()
            if message is None:
                break
            response = await self._process(state, message)
            await self._respond(state, response)
        state.writer.close()

    async def _respond(self, state: _SessionState,
                       response: dict[str, Any]) -> None:
        async with state.write_lock:
            with contextlib.suppress(ConnectionError):
                await protocol.write_frame(state.writer, response)

    # -- request processing -----------------------------------------------

    async def _process(self, state: _SessionState,
                       message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        op = message.get("op")
        if op not in ("hello", "query", "append"):
            return {"id": request_id, "ok": False, "error": "bad_request",
                    "message": f"unknown op {op!r}"}
        if self._inflight >= self.max_inflight:
            self.shed_count += 1
            return {"id": request_id, "ok": False, "error": "overloaded",
                    "message": f"{self.max_inflight} requests in flight",
                    "retry_after": RETRY_AFTER}
        self._inflight += 1
        try:
            if op == "hello":
                rules = message.get("rules", [])
                if (not isinstance(rules, list)
                        or any(not isinstance(r, str) for r in rules)):
                    return {"id": request_id, "ok": False,
                            "error": "bad_request",
                            "message": "rules must be a list of strings"}
                future = self.executor.hello(state.session_id, rules)
                payload = await asyncio.wrap_future(future)
                payload.update({"server": "repro-minidb", "protocol": 1})
            elif op == "query":
                sql = message.get("sql")
                if not isinstance(sql, str):
                    return {"id": request_id, "ok": False,
                            "error": "bad_request",
                            "message": "query needs a sql string"}
                cleansed = message.get("cleansed", False)
                if not isinstance(cleansed, bool):
                    return {"id": request_id, "ok": False,
                            "error": "bad_request",
                            "message": "cleansed must be true or false"}
                future = self.executor.query(state.session_id, sql,
                                             cleansed=cleansed)
                payload = await asyncio.wrap_future(future)
            else:  # append
                table = message.get("table")
                try:
                    rows = protocol.rows_from_wire(message.get("rows"))
                except protocol.ProtocolError as error:
                    return {"id": request_id, "ok": False,
                            "error": "bad_request", "message": str(error)}
                if not isinstance(table, str):
                    return {"id": request_id, "ok": False,
                            "error": "bad_request",
                            "message": "append needs a table name"}
                future = self.executor.append(table, rows)
                payload = await asyncio.wrap_future(future)
        except QueryFailed as error:
            return {"id": request_id, "ok": False, "error": "query_error",
                    "message": str(error)}
        except Exception as error:  # noqa: BLE001 — must answer something
            return {"id": request_id, "ok": False, "error": "query_error",
                    "message": f"{type(error).__name__}: {error}"}
        finally:
            self._inflight -= 1
        payload["id"] = request_id
        payload["ok"] = True
        return payload


# ----------------------------------------------------------------------
# Thread-hosted serving (tests, fuzz loopback, benchmarks, CLI)
# ----------------------------------------------------------------------

class ServerHandle:
    """A server running on a background event-loop thread."""

    def __init__(self) -> None:
        self.host: str | None = None
        self.port: int | None = None
        self.server: Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None

    @property
    def address(self) -> tuple[str, int]:
        assert self.host is not None and self.port is not None
        return (self.host, self.port)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the serving thread; idempotent."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and loop.is_running():
            loop.call_soon_threadsafe(event.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None


def serve_in_thread(database: Database, **server_kwargs) -> ServerHandle:
    """Start a :class:`Server` on a dedicated event-loop thread.

    Returns once the listening address is known. ``handle.stop()``
    drains and joins. This is how every synchronous caller — tests,
    the fuzz oracle's loopback session, the benchmark harness, the
    ``python -m repro.server`` CLI — hosts the asyncio front end.
    """
    handle = ServerHandle()
    started = threading.Event()
    failure: list[BaseException] = []

    async def _main() -> None:
        server = Server(database, **server_kwargs)
        try:
            await server.start()
        except BaseException as error:  # noqa: BLE001 — reported to caller
            failure.append(error)
            started.set()
            return
        handle.server = server
        handle.host, handle.port = server.host, server.port
        handle._loop = asyncio.get_running_loop()
        handle._stop_event = asyncio.Event()
        started.set()
        await handle._stop_event.wait()
        await server.drain()

    def _run() -> None:
        asyncio.run(_main())

    thread = threading.Thread(target=_run, name="repro-serve-loop",
                              daemon=True)
    handle._thread = thread
    thread.start()
    started.wait(timeout=30)
    if failure:
        raise failure[0]
    if handle.port is None:
        raise RuntimeError("server failed to start within 30s")
    return handle


@contextlib.contextmanager
def serve_loopback(database: Database,
                   **server_kwargs) -> Iterator[ServerHandle]:
    """``serve_in_thread`` as a context manager (drains on exit)."""
    handle = serve_in_thread(database, **server_kwargs)
    try:
        yield handle
    finally:
        handle.stop()
