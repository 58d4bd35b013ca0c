"""Concurrent serving layer: asyncio wire protocol over MVCC snapshots.

``python -m repro.server`` starts a TCP server over a demo database;
programmatic use goes through :func:`serve_in_thread` /
:func:`serve_loopback` (hosting) and :class:`ServerClient` (driving).
See ``DESIGN.md`` §13 for the architecture: snapshot epochs keep
readers off the ingest path, one bounded thread executor
(:class:`ThreadExecutor`) keeps engine code off the event loop, and
admission control sheds instead of queueing.
"""

from repro.server.client import ServerBusy, ServerClient, ServerError
from repro.server.executor import QueryFailed, ThreadExecutor
from repro.server.server import (Server, ServerHandle, serve_in_thread,
                                 serve_loopback)

__all__ = [
    "Server", "ServerHandle", "serve_in_thread", "serve_loopback",
    "ServerClient", "ServerError", "ServerBusy",
    "ThreadExecutor", "QueryFailed",
]
