"""Wire protocol: length-prefixed JSON frames over a byte stream.

Every message — request or response — is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
Requests are objects carrying an ``id`` (echoed verbatim in the
response so pipelined clients can match replies), an ``op`` (``hello``,
``query``, or ``append``), and op-specific fields. Responses carry
``ok``; failures add ``error`` (a stable machine-readable code from
:data:`ERROR_CODES`), a human ``message``, and — for load sheds — a
``retry_after`` hint in seconds.

All SQL values that cross the wire are JSON-native by construction:
the engine's VARCHAR is ``str``, numerics are ``int``/``float``,
TIMESTAMP is integer epoch seconds, and NULL is ``null``. Rows
serialize as JSON arrays; :func:`rows_from_wire` restores the engine's
tuple convention on the way back in.

The sync (socket) and async (``asyncio`` stream) halves share the same
encoder so the client helper, the fuzz oracle's loopback session, and
the server itself cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES", "ERROR_CODES", "ProtocolError",
    "encode_frame", "decode_payload", "rows_from_wire",
    "read_payload", "write_frame", "recv_frame", "send_frame",
]

_HEADER = struct.Struct(">I")

#: Refuse frames beyond this size (a corrupt length prefix must not
#: make the server try to buffer gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Stable error codes a response's ``error`` field may carry.
ERROR_CODES = frozenset({
    "bad_request",      # undecodable payload, missing or mistyped fields
    "overloaded",       # admission control shed the request (retry_after)
    "session_busy",     # per-session queue depth exceeded (retry_after)
    "query_error",      # the engine raised while planning/executing
    "shutting_down",    # server is draining; no new work accepted
})


class ProtocolError(Exception):
    """A malformed or oversized frame."""


def encode_frame(message: dict[str, Any]) -> bytes:
    """One wire frame (header + payload) for *message*."""
    payload = json.dumps(message, separators=(",", ":"),
                         ensure_ascii=False).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict[str, Any]:
    """The message object inside one frame's payload bytes."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


def rows_from_wire(rows: Any) -> list[tuple]:
    """JSON row arrays back into the engine's list-of-tuples form."""
    if not isinstance(rows, list):
        raise ProtocolError("rows must be a JSON array of arrays")
    restored = []
    for row in rows:
        if not isinstance(row, list):
            raise ProtocolError("each row must be a JSON array")
        restored.append(tuple(row))
    return restored


# ----------------------------------------------------------------------
# Async (asyncio stream) half — used by the server.
# ----------------------------------------------------------------------

async def read_payload(reader: asyncio.StreamReader) -> bytes | None:
    """The next frame's payload bytes from *reader*, or None on clean EOF.

    Raises :class:`ProtocolError` only when the framing itself is lost
    (a truncated or oversized frame). The payload is left for
    :func:`decode_payload`, so the server can answer a well-framed but
    undecodable message and keep the connection.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-header") from error
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error
    return payload


async def write_frame(writer: asyncio.StreamWriter,
                      message: dict[str, Any]) -> None:
    writer.write(encode_frame(message))
    await writer.drain()


# ----------------------------------------------------------------------
# Sync (blocking socket) half — used by the client helper.
# ----------------------------------------------------------------------

def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """The next message from *sock*, or None on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_payload(payload)


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            return None if not chunks else _short()
        chunks.extend(chunk)
    return bytes(chunks)


def _short() -> bytes:
    raise ProtocolError("connection closed mid-frame")
