"""The serving layer: protocol, concurrency, backpressure, drain.

Everything runs against a loopback server hosted on a background
event-loop thread (``serve_loopback``), driven by the synchronous
:class:`ServerClient` — the same path the fuzz oracle's ``served``
label and the serving benchmark use.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.server import (ProcessExecutor, QueryFailed, ServerBusy,
                          ServerClient, ServerError, ThreadExecutor,
                          serve_loopback)
from repro.server import protocol

READS = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("reader", SqlType.VARCHAR),
    ("biz_loc", SqlType.VARCHAR),
    ("biz_step", SqlType.VARCHAR),
)

DUP_RULE = """
    DEFINE dup ON reads CLUSTER BY epc SEQUENCE BY rtime
    AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 300
    ACTION DELETE B
"""


def _rows(count: int, start: int = 0) -> list[tuple]:
    return [(f"e{i % 5}", 100 * i, f"rd{i % 3}", f"l{i % 4}", "step")
            for i in range(start, start + count)]


def make_db(rows: list[tuple] | None = None) -> Database:
    db = Database()
    db.create_table("reads", READS)
    db.load("reads", _rows(20) if rows is None else rows)
    db.create_index("reads", "rtime")
    return db


class TestProtocol:
    def test_frame_roundtrip(self):
        message = {"id": 7, "op": "query", "sql": "select 1",
                   "values": [None, 1, 1.5, "x", True]}
        frame = protocol.encode_frame(message)
        assert protocol.decode_payload(frame[4:]) == message

    def test_oversized_frame_refused(self):
        header = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            sender = socket.create_connection(
                listener.getsockname(), timeout=5)
            receiver, _ = listener.accept()
            with sender, receiver:
                sender.sendall(header + b"x")
                with pytest.raises(protocol.ProtocolError):
                    protocol.recv_frame(receiver)
        finally:
            listener.close()

    def test_rows_from_wire_rejects_non_arrays(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.rows_from_wire({"not": "rows"})
        with pytest.raises(protocol.ProtocolError):
            protocol.rows_from_wire(["not-a-row"])


class TestRoundTrip:
    def test_hello_query_append(self):
        db = make_db()
        with serve_loopback(db) as handle:
            with ServerClient(*handle.address) as client:
                hello = client.hello()
                assert hello["server"] == "repro-minidb"
                assert "reads" in hello["tables"]
                result = client.query(
                    "select epc, rtime from reads "
                    "where rtime <= 500 order by rtime")
                assert result.rows == [(f"e{i % 5}", 100 * i)
                                       for i in range(6)]
                assert client.append("reads", _rows(5, start=20)) == 5
                total = client.query(
                    "select count(*) as n from reads").scalar()
                assert total == 25

    def test_cleansed_query_over_the_wire(self):
        rows = [("c1", 0, "r0", "dock", "s"),
                ("c1", 100, "r0", "dock", "s"),     # duplicate
                ("c1", 900, "r1", "shelf", "s"),
                ("c2", 50, "r0", "dock", "s")]
        db = make_db(rows)
        with serve_loopback(db) as handle:
            with ServerClient(*handle.address) as client:
                client.hello(rules=[DUP_RULE])
                cleansed = client.query(
                    "select count(*) as n from reads",
                    cleansed=True).scalar()
                dirty = client.query(
                    "select count(*) as n from reads").scalar()
        assert dirty == 4
        assert cleansed == 3

    def test_cleansed_without_rules_is_an_error(self):
        db = make_db()
        with serve_loopback(db) as handle:
            with ServerClient(*handle.address) as client:
                client.hello()
                with pytest.raises(ServerError) as excinfo:
                    client.query("select count(*) as n from reads",
                                 cleansed=True)
                assert excinfo.value.code == "query_error"

    def test_error_codes(self):
        db = make_db()
        with serve_loopback(db) as handle:
            with ServerClient(*handle.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query("select nope from nowhere")
                assert excinfo.value.code == "query_error"
                with pytest.raises(ServerError) as excinfo:
                    client.append("nowhere", [[1]])
                assert excinfo.value.code == "query_error"
                # Unknown op -> bad_request.
                protocol.send_frame(client._sock,
                                    {"id": 99, "op": "mystery"})
                reply = protocol.recv_frame(client._sock)
                assert reply["ok"] is False
                assert reply["error"] == "bad_request"

    def test_session_plan_cache_reuse(self, monkeypatch):
        # The per-session snapshot path (and its plan cache) is only
        # taken when the executor is not in exclusive-read mode, so pin
        # the ambient storage knob rather than inherit the CI matrix
        # (disk storage forces exclusive).
        monkeypatch.setenv("REPRO_STORAGE", "memory")
        db = make_db()
        sql = "select biz_loc, count(*) as n from reads group by biz_loc"
        with serve_loopback(db) as handle:
            with ServerClient(*handle.address) as client:
                client.hello()
                client.query(sql)
                client.query(sql)
                executor = handle.server.executor
                assert isinstance(executor, ThreadExecutor)
                (session,) = executor._sessions.values()
                assert session.plan_cache.hits >= 1


class TestConcurrency:
    def test_parallel_clients_mixed_load(self):
        db = make_db()
        errors: list[BaseException] = []

        def worker(handle, index: int) -> None:
            try:
                with ServerClient(*handle.address) as client:
                    client.hello()
                    for round_number in range(5):
                        client.append_with_retry(
                            "reads",
                            _rows(2, start=1000 * (index + 1)
                                  + 10 * round_number))
                        count = client.query_with_retry(
                            "select count(*) as n from reads").scalar()
                        assert count >= 20
            except BaseException as error:  # noqa: BLE001 — re-raised
                errors.append(error)

        with serve_loopback(db) as handle:
            threads = [threading.Thread(target=worker,
                                        args=(handle, index))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors
        total = db.execute("select count(*) as n from reads").scalar()
        assert total == 20 + 4 * 5 * 2

    def test_snapshot_reads_see_consistent_counts(self):
        """A query never observes a torn append (all-or-nothing)."""
        db = make_db(_rows(10))
        stop = threading.Event()
        bad: list[int] = []

        def reader(handle) -> None:
            with ServerClient(*handle.address) as client:
                client.hello()
                while not stop.is_set():
                    count = client.query_with_retry(
                        "select count(*) as n from reads").scalar()
                    if (count - 10) % 7 != 0:  # appends land in 7s
                        bad.append(count)

        with serve_loopback(db) as handle:
            thread = threading.Thread(target=reader, args=(handle,))
            thread.start()
            with ServerClient(*handle.address) as client:
                client.hello()
                for batch in range(8):
                    client.append_with_retry(
                        "reads", _rows(7, start=100 + 10 * batch))
            stop.set()
            thread.join(timeout=30)
        assert bad == []


class TestBackpressure:
    def test_session_depth_shed(self):
        db = make_db()
        with serve_loopback(db, session_depth=1) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            with sock:
                # Pipeline a burst without reading; the reader coroutine
                # must shed beyond depth 1 instead of queueing unboundedly.
                for request_id in range(30):
                    protocol.send_frame(sock, {
                        "id": request_id, "op": "query",
                        "sql": "select count(*) as n from reads"})
                codes = []
                for _ in range(30):
                    reply = protocol.recv_frame(sock)
                    codes.append(reply.get("error", "ok"))
            assert "session_busy" in codes
            shed = codes.count("session_busy")
            assert codes.count("ok") == 30 - shed
            for request_id, reply_code in enumerate(codes):
                if reply_code == "session_busy":
                    break
            assert handle.server.shed_count >= shed

    def test_overload_shed_and_retry(self, monkeypatch):
        original = ThreadExecutor._do_query

        def slow_query(self, session_id, sql, cleansed):
            time.sleep(0.4)
            return original(self, session_id, sql, cleansed)

        monkeypatch.setattr(ThreadExecutor, "_do_query", slow_query)
        db = make_db()
        sheds: list[ServerBusy] = []
        with serve_loopback(db, max_inflight=1) as handle:
            def occupy() -> None:
                with ServerClient(*handle.address) as client:
                    client.hello()  # admission slot taken by the query only
                    client.query("select count(*) as n from reads")

            first = threading.Thread(target=occupy)
            first.start()
            time.sleep(0.15)  # let the slow query take the only slot
            with ServerClient(*handle.address) as client:
                try:
                    client.query("select count(*) as n from reads")
                except ServerBusy as shed:
                    sheds.append(shed)
                # The polite loop eventually gets through.
                count = client.query_with_retry(
                    "select count(*) as n from reads").scalar()
                assert count == 20
            first.join(timeout=30)
        assert sheds and sheds[0].code == "overloaded"
        assert sheds[0].retry_after > 0

    def test_drain_completes_inflight_queries(self, monkeypatch):
        original = ThreadExecutor._do_query

        def slow_query(self, session_id, sql, cleansed):
            time.sleep(0.3)
            return original(self, session_id, sql, cleansed)

        monkeypatch.setattr(ThreadExecutor, "_do_query", slow_query)
        db = make_db()
        results: list[int] = []
        handle = None
        import repro.server.server as server_module

        handle = server_module.serve_in_thread(db)

        def issue() -> None:
            with ServerClient(*handle.address) as client:
                client.hello()
                results.append(client.query(
                    "select count(*) as n from reads").scalar())

        thread = threading.Thread(target=issue)
        thread.start()
        time.sleep(0.1)  # the query is now in flight
        handle.stop()    # graceful drain must let it finish
        thread.join(timeout=30)
        assert results == [20]
        # And the listener is gone afterwards.
        with pytest.raises(OSError):
            socket.create_connection(handle.address, timeout=2)


class TestProcessExecutor:
    # Fork replicas require the in-memory backend, so both tests pin
    # the storage knob rather than inherit the CI disk matrix.
    @pytest.fixture(autouse=True)
    def _memory_storage(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "memory")

    def test_round_robin_read_your_writes(self):
        db = make_db()
        with serve_loopback(db, workers=2) as handle:
            assert isinstance(handle.server.executor, ProcessExecutor)
            with ServerClient(*handle.address) as client:
                client.hello()
                client.append("reads", _rows(3, start=500))
                # Hit both replicas: every one must see the append.
                for _ in range(4):
                    count = client.query(
                        "select count(*) as n from reads").scalar()
                    assert count == 23
        # The parent database applied the append too.
        assert db.execute("select count(*) as n from reads").scalar() == 23

    def test_cleansed_queries_on_replicas(self):
        rows = [("c1", 0, "r0", "dock", "s"),
                ("c1", 100, "r0", "dock", "s"),
                ("c2", 50, "r0", "dock", "s")]
        db = make_db(rows)
        with serve_loopback(db, workers=2) as handle:
            with ServerClient(*handle.address) as client:
                client.hello(rules=[DUP_RULE])
                for _ in range(2):  # both replicas hold the session rules
                    cleansed = client.query(
                        "select count(*) as n from reads",
                        cleansed=True).scalar()
                    assert cleansed == 2

    def test_failed_broadcast_stops_the_pool_answering(self):
        """A replica that could not apply a replicated append no longer
        agrees with the parent: nothing is answered after that."""
        executor = ProcessExecutor(make_db(), 2)
        try:
            executor._broadcast(("append", "no_such_table", [(1,)]))
            # Both queries sit behind the failed append in their
            # replica's FIFO queue.
            queued = [executor.query("s", "select count(*) as n from reads")
                      for _ in range(2)]
            for future in queued:
                with pytest.raises(QueryFailed, match="replica desync"):
                    future.result(timeout=30)
            # The latch is set now: refused without reaching a replica.
            for future in (executor.query("s", "select 1 as n from reads"),
                           executor.append("reads", _rows(1, start=900)),
                           executor.hello("s2", [])):
                with pytest.raises(QueryFailed, match="replica desync"):
                    future.result(timeout=0)
        finally:
            executor.shutdown()
