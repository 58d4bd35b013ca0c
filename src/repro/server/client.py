"""A small synchronous client for the serving wire protocol.

:class:`ServerClient` speaks the length-prefixed JSON frame protocol
over a blocking TCP socket: ``hello`` opens the session (optionally
declaring cleansing rules), ``query`` returns a
:class:`~repro.minidb.result.ResultSet`, ``append`` streams rows in.
Load sheds (``overloaded`` / ``session_busy``) surface as
:class:`ServerBusy` carrying the server's ``retry_after`` hint;
``query_with_retry`` and ``append_with_retry`` implement the obvious
polite loop on top. Every other failure raises :class:`ServerError`
with the wire error code.

The client is strictly request/response (one outstanding request); the
server itself supports pipelining, but the benchmark drives concurrency
with many clients rather than one deep pipeline.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Sequence, TypeVar

from repro.minidb.result import ResultSet
from repro.server import protocol

__all__ = ["ServerClient", "ServerError", "ServerBusy"]

T = TypeVar("T")


class ServerError(Exception):
    """The server answered ``ok: false``."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServerBusy(ServerError):
    """A load shed; honor :attr:`retry_after` before retrying."""

    def __init__(self, code: str, message: str,
                 retry_after: float) -> None:
        super().__init__(code, message)
        self.retry_after = retry_after


def _with_retry(call: Callable[[], T], attempts: int) -> T:
    """*call*, sleeping out ``retry_after`` on load sheds; the last of
    *attempts* tries lets a shed propagate."""
    for _ in range(attempts - 1):
        try:
            return call()
        except ServerBusy as shed:
            time.sleep(shed.retry_after)
    return call()


class ServerClient:
    """One wire session against a running :class:`~repro.server.Server`."""

    def __init__(self, host: str, port: int,
                 timeout: float | None = 30.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._next_id = 1

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- operations -------------------------------------------------------

    def hello(self, rules: Sequence[str] = ()) -> dict[str, Any]:
        """Open the session; *rules* are SQL-TS cleansing rule texts
        that enable ``query(..., cleansed=True)`` on this session."""
        return self._call({"op": "hello", "rules": list(rules)})

    def query(self, sql: str, *, cleansed: bool = False) -> ResultSet:
        payload = self._call({"op": "query", "sql": sql,
                              "cleansed": cleansed})
        return ResultSet(payload["columns"],
                         protocol.rows_from_wire(payload["rows"]))

    def query_with_retry(self, sql: str, *, cleansed: bool = False,
                         attempts: int = 50) -> ResultSet:
        """``query``, sleeping out ``retry_after`` on load sheds."""
        return _with_retry(lambda: self.query(sql, cleansed=cleansed),
                           attempts)

    def append(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        payload = self._call({"op": "append", "table": table,
                              "rows": [list(row) for row in rows]})
        return payload["appended"]

    def append_with_retry(self, table: str,
                          rows: Sequence[Sequence[Any]], *,
                          attempts: int = 50) -> int:
        """``append``, sleeping out ``retry_after`` on load sheds."""
        return _with_retry(lambda: self.append(table, rows), attempts)

    # -- plumbing ---------------------------------------------------------

    def _call(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = self._next_id
        self._next_id += 1
        message["id"] = request_id
        protocol.send_frame(self._sock, message)
        response = protocol.recv_frame(self._sock)
        if response is None:
            raise ServerError("disconnected",
                              "server closed the connection")
        if response.get("id") != request_id:
            raise protocol.ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}")
        if response.get("ok"):
            return response
        code = response.get("error", "unknown")
        detail = response.get("message", "")
        if code in ("overloaded", "session_busy"):
            raise ServerBusy(code, detail,
                             float(response.get("retry_after", 0.05)))
        raise ServerError(code, detail)
