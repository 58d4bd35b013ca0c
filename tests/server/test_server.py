"""The serving layer: protocol, concurrency, backpressure, drain.

Everything runs against a loopback server hosted on a background
event-loop thread (``serve_loopback``), driven by the synchronous
:class:`ServerClient` — the same path the fuzz oracle's ``served``
label and the serving benchmark use.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.server import (ServerBusy, ServerClient, ServerError,
                          ThreadExecutor, serve_loopback)
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

    @pytest.mark.parametrize("payload", [b"{not json", b"[1,2]",
                                         b"\xff\xfe"])
    def test_undecodable_payload_is_a_bad_request(self, payload):
        """A payload behind a correct length prefix that does not decode
        is answered, and the session keeps serving."""
        db = make_db()
        with serve_loopback(db) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            with sock:
                sock.sendall(len(payload).to_bytes(4, "big") + payload)
                reply = protocol.recv_frame(sock)
                assert reply is not None
                assert reply["id"] is None
                assert reply["ok"] is False
                assert reply["error"] == "bad_request"
                protocol.send_frame(sock, {
                    "id": 1, "op": "query",
                    "sql": "select count(*) as n from reads"})
                reply = protocol.recv_frame(sock)
                assert reply["id"] == 1 and reply["ok"] is True
                assert reply["rows"] == [[20]]

    @pytest.mark.parametrize("frame", [
        (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"{}",
        (100).to_bytes(4, "big") + b"{}"], ids=["oversized", "truncated"])
    def test_lost_framing_closes_the_connection(self, frame):
        db = make_db()
        with serve_loopback(db) as handle:
            sock = socket.create_connection(handle.address, timeout=10)
            with sock:
                sock.sendall(frame)
                sock.shutdown(socket.SHUT_WR)
                assert protocol.recv_frame(sock) is None

    @pytest.mark.parametrize("rules", [[], [DUP_RULE]],
                             ids=["no-rules", "rules"])
    def test_cleansed_must_be_a_boolean(self, rules):
        rows = [("c1", 0, "r0", "dock", "s"),
                ("c1", 100, "r0", "dock", "s"),     # duplicate
                ("c2", 50, "r0", "dock", "s")]
        db = make_db(rows)
        sql = "select count(*) as n from reads"
        with serve_loopback(db) as handle:
            with ServerClient(*handle.address) as client:
                client.hello(rules=rules)
                for junk in ("false", "true", 0, 1, None):
                    with pytest.raises(ServerError) as excinfo:
                        client._call({"op": "query", "sql": sql,
                                      "cleansed": junk})
                    assert excinfo.value.code == "bad_request"
                # Absent means false: the dirty count.
                reply = client._call({"op": "query", "sql": sql})
                assert reply["rows"] == [[3]]
                assert client.query(sql, cleansed=False).scalar() == 3
                if rules:
                    assert client.query(sql, cleansed=True).scalar() == 2

    def test_session_plan_cache_reuse(self):
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

    def test_disk_reads_race_appends_and_checkpoints(self, tmp_path,
                                                     monkeypatch):
        """Disk reads run on snapshots outside the write lock, like
        memory reads: four readers racing appends and the checkpoints a
        tiny WAL limit forces never see a torn append, and the directory
        reopens to every committed row."""
        monkeypatch.setenv("REPRO_WAL_LIMIT", "1000")
        path = str(tmp_path / "db")
        db = Database(storage="disk", storage_path=path)
        db.create_table("reads", READS)
        db.load("reads", _rows(10))
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

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serve_loopback(db) as handle:
                threads = [threading.Thread(target=reader, args=(handle,))
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                with ServerClient(*handle.address) as client:
                    client.hello()
                    for batch in range(30):
                        client.append_with_retry(
                            "reads", _rows(7, start=100 + 10 * batch))
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert bad == []
        assert db.storage.checkpoints > 3
        db.shutdown()
        with Database(storage="disk", storage_path=path) as reopened:
            assert reopened.table("reads").rows == \
                _rows(10) + [row for batch in range(30)
                             for row in _rows(7, start=100 + 10 * batch)]


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
