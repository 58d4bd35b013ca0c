"""``python -m repro.server`` — serve a database over TCP.

Starts the asyncio serving front end on a demo RFID reads table (or an
empty database with ``--empty``) and blocks until interrupted. Clients
connect with :class:`repro.server.ServerClient`; see
``examples/serving_client.py`` for a complete round trip.
"""

from __future__ import annotations

import argparse

from repro.minidb.engine import Database
from repro.minidb.schema import TableSchema
from repro.minidb.types import SqlType
from repro.server.server import serve_in_thread

DEMO_ROWS = [
    ("case-1", 1_000, "dock-A", "receiving", "receiving"),
    ("case-1", 1_060, "dock-A", "receiving", "receiving"),
    ("case-1", 9_000, "shelf-3", "sales-floor", "stocking"),
    ("case-2", 2_000, "dock-B", "receiving", "receiving"),
    ("case-2", 9_500, "shelf-7", "sales-floor", "stocking"),
]


def build_demo_database() -> Database:
    """A tiny reads table so a fresh server answers queries at once."""
    database = Database()
    database.create_table("reads", TableSchema.of(
        ("epc", SqlType.VARCHAR),
        ("rtime", SqlType.TIMESTAMP),
        ("reader", SqlType.VARCHAR),
        ("biz_loc", SqlType.VARCHAR),
        ("biz_step", SqlType.VARCHAR),
    ))
    database.load("reads", DEMO_ROWS)
    database.create_index("reads", "rtime")
    return database


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a minidb database over the wire protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7683,
                        help="listening port (default 7683; 0 = ephemeral)")
    parser.add_argument("--empty", action="store_true",
                        help="serve an empty database instead of the "
                             "demo reads table")
    arguments = parser.parse_args(argv)

    database = Database() if arguments.empty else build_demo_database()
    handle = serve_in_thread(database, host=arguments.host,
                             port=arguments.port)
    print(f"serving on {handle.host}:{handle.port} "
          f"(ctrl-C to drain and exit)")
    try:
        while True:
            handle._thread.join(timeout=1.0)  # type: ignore[union-attr]
            if handle._thread is None or not handle._thread.is_alive():
                break
    except KeyboardInterrupt:
        print("draining...")
    finally:
        handle.stop()
        database.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
