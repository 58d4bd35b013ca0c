"""The five workloads: what they load, and what one round issues.

Every workload uses default knobs, so the benchmark prices what users
get. Sizes are pinned in :data:`PINS`; they were calibrated once on the
2-core reference host so that a round costs 0.1 to 0.3 s and a run,
set-up included, ends in under 30 s. BENCHMARK.json holds each
workload's one-line reason; README.md the longer account.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import time

from repro.datagen.loader import load_into_database
from repro.minidb.engine import Database
from repro.minidb.storage.zones import pruning_enabled
from repro.rewrite.cache import CacheOptions
from repro.rewrite.engine import DeferredCleansingEngine
from repro.server import ServerClient, serve_in_thread
from repro.workloads import make_registry, q1_sql, q2_prime_sql, q2_sql
from repro.workloads.rules import STANDARD_RULE_ORDER, rule_texts

from bench import OUT_DIR, inputs
from bench.statements import (
    Append,
    Checkpoint,
    CleansedQuery,
    DirtyQuery,
    ServedCount,
    ServedQuery,
    Session,
)

RULES_1_3 = ("reader", "duplicate", "replacing")

#: Timed rounds per run, and the warm-up rounds before them.
ROUNDS = 100
WARMUP = 5

#: Pinned sizes (see README.md, "Pinned sizes").
PINS = {
    "paper_static": {"case_reads": 12000},
    "selective_lookups": {"case_reads": 12000, "traces": 14},
    "stream_dashboard": {"case_reads": 20000, "batch_rows": 64},
    "disk_ingest_query": {"case_reads": 8000, "batch_rows": 32,
                          "buffer_pages": 64},
    "served_mixed": {"case_reads": 16000, "batch_rows": 4,
                     "scan_rows": 2000},
}

#: ``python -m bench selftest``: same code, a fraction of the rows.
SELFTEST_PINS = {
    "paper_static": {"case_reads": 2500},
    "selective_lookups": {"case_reads": 2500, "traces": 4},
    "stream_dashboard": {"case_reads": 3000, "batch_rows": 16},
    "disk_ingest_query": {"case_reads": 1500, "batch_rows": 8,
                          "buffer_pages": 12},
    "served_mixed": {"case_reads": 2500, "batch_rows": 4,
                     "scan_rows": 300},
}

#: The four timestamp variants a static round cycles through: the same
#: statement shapes at slightly different selectivities, so no layer
#: can answer a repeat from the previous round's text.
JITTER = (1.0, 1.03, 0.97, 1.06)


class Workload:
    name = ""
    #: True when no statement changes the data, so every repeat must
    #: reproduce the verified digest.
    static = True
    clients = 1
    #: Rounds between untimed re-verifications (append workloads).
    verify_every = 0
    #: The engine's ``CleansingRegionCache``, where the workload has one.
    region_cache = None
    #: What the server child reported when it stopped, where there is one.
    server_report: dict | None = None

    def __init__(self, seed: int, pins: dict, rounds: int) -> None:
        self.seed = seed
        self.pins = pins
        self.rounds = rounds
        #: Seconds spent in each set-up phase, last set-up.
        self.phases: dict[str, float] = {}
        self.database: Database | None = None

    # -- set-up helpers ---------------------------------------------------

    def _generate(self, stream_rows: int = 0):
        start = time.perf_counter()
        data = inputs.generate(self.seed, self.pins["case_reads"])
        stream: list[tuple] = []
        loaded = data
        if stream_rows:
            loaded, stream = inputs.split_stream(data, self.seed,
                                                 stream_rows)
        self.phases["generate_s"] = time.perf_counter() - start
        self.data = data
        self.params = inputs.Parameters(data, self.seed)
        return loaded, stream

    def _load(self, loaded, database: Database | None = None) -> Database:
        start = time.perf_counter()
        self.database = load_into_database(loaded, database)
        self.phases["load_s"] = time.perf_counter() - start
        return self.database

    def _engine(self, names, database=None, **options):
        """An engine over the named rules; *database* persists them."""
        start = time.perf_counter()
        registry = make_registry(database, self.data, names)
        self.phases["define_s"] = self.phases.get("define_s", 0.0) \
            + time.perf_counter() - start
        return DeferredCleansingEngine(self.database, registry, **options)

    def _stream_rows(self, extra_rounds: int = 0) -> int:
        """Rows the warm-up and timed rounds will append, all clients."""
        return ((WARMUP + self.rounds + extra_rounds)
                * self.pins["batch_rows"] * self.clients)

    # -- interface ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything set-up acquired; safe to call twice."""
        if self.database is not None:
            self.database.shutdown()
            self.database = None

    def policy(self) -> dict | None:
        """Storage policy in force, where there is one to state."""
        return None

    def replay(self) -> None:
        """Bring the oracle's database to the served one's final state
        (nothing to do in process: they are the same database)."""

    def statements(self, client: int, slot: int) -> list:
        """The statements of one round."""
        raise NotImplementedError

    def queries(self, client: int) -> list:
        """Every distinct query to verify against the oracle now."""
        raise NotImplementedError


class PaperStatic(Workload):
    """The paper's Fig. 7-9 shapes on a static in-memory database."""

    name = "paper_static"

    def setup(self) -> None:
        loaded, _ = self._generate()
        database = self._load(loaded)
        rules_1_3 = self._engine(RULES_1_3, database)
        all_five = self._engine(STANDARD_RULE_ORDER)
        reader = self._engine(("reader",))
        params = self.params
        site = params.busiest_site(params.above(0.40))
        step_type = params.busiest_step_type(params.above(0.10))
        self.variants = []
        for jitter in JITTER:
            t1 = params.below(0.10 * jitter)
            self.variants.append([
                CleansedQuery("q1_10", rules_1_3, q1_sql(t1)),
                CleansedQuery("q2_40", rules_1_3,
                              q2_sql(params.above(0.40 * jitter), site)),
                CleansedQuery("q2p_10", rules_1_3, q2_prime_sql(
                    params.above(0.10 * jitter), step_type)),
                # The cycle rule makes the expanded rewrite infeasible:
                # the engine can only choose join-back or naive here.
                CleansedQuery("q1_10_all5", all_five, q1_sql(t1)),
                CleansedQuery("q1_10_reader", reader, q1_sql(t1)),
            ])

    def statements(self, client: int, slot: int) -> list:
        return self.variants[slot % len(self.variants)]

    def queries(self, client: int) -> list:
        return [statement for variant in self.variants
                for statement in variant]


class SelectiveLookups(PaperStatic):
    """Short statements: planning and rewriting outweigh execution."""

    name = "selective_lookups"

    def setup(self) -> None:
        loaded, _ = self._generate()
        database = self._load(loaded)
        engine = self._engine(RULES_1_3, database)
        params = self.params
        site = params.busiest_site(params.above(0.005))
        step_type = params.busiest_step_type(params.above(0.005))
        statements = []
        for jitter in JITTER[:2]:
            fraction = 0.005 * jitter
            statements += [
                CleansedQuery("q1_05", engine,
                              q1_sql(params.below(fraction))),
                CleansedQuery("q2_05", engine,
                              q2_sql(params.above(fraction), site)),
                CleansedQuery("q2p_05", engine, q2_prime_sql(
                    params.above(fraction), step_type)),
            ]
        for epc in params.sample_epcs(self.pins["traces"]):
            statements.append(CleansedQuery("trace", engine, f"""
select c.rtime, l.loc_desc, s.type
from caser c, locs l, steps s
where c.epc = '{epc}' and c.biz_loc = l.gln
  and c.biz_step = s.biz_step
"""))
        self.variants = [statements]


class StreamDashboard(Workload):
    """Appends beside a dashboard served from the cleansed-region cache."""

    name = "stream_dashboard"
    static = False
    verify_every = 25

    #: As ``benchmarks/test_streaming.py``: the widest window first (it
    #: owns the cached region), then panels it subsumes.
    PANEL = (0.85, 0.35, 0.55, 0.70)
    QUERY = ("select reader, count(*) as n, avg(rtime) as mean_rtime "
             "from caser where rtime <= {t} group by reader")

    def setup(self) -> None:
        loaded, stream = self._generate(self._stream_rows())
        database = self._load(loaded)
        engine = self._engine(("reader", "duplicate"), database,
                              cache=CacheOptions())
        self.region_cache = engine.region_cache
        self.batches = iter(inputs.batches(stream,
                                           self.pins["batch_rows"]))
        self.panel = [
            CleansedQuery(f"panel_{round(fraction * 100)}", engine,
                          self.QUERY.format(t=self.params.below(fraction)))
            for fraction in self.PANEL]

    def statements(self, client: int, slot: int) -> list:
        return [Append("append", self.database, next(self.batches))] \
            + self.panel

    def queries(self, client: int) -> list:
        return self.panel


class DiskIngestQuery(Workload):
    """Durable appends and page scans against a pool half the heap."""

    name = "disk_ingest_query"
    static = False
    verify_every = 25
    #: One explicit checkpoint per this many rounds, inside the timing.
    CHECKPOINT_EVERY = 25
    path = ""

    def setup(self) -> None:
        loaded, stream = self._generate(self._stream_rows())
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = os.path.join(OUT_DIR, f"disk-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        database = Database(storage="disk", storage_path=self.path,
                            buffer_pages=self.pins["buffer_pages"])
        self._load(loaded, database)
        engine = self._engine(RULES_1_3, database)
        database.checkpoint()
        self.batches = iter(inputs.batches(stream,
                                           self.pins["batch_rows"]))
        self.issued = 0
        params = self.params
        # Above the planner's 80 % index cut-off this is a sequential
        # scan, which on disk reads pages through the pool and skips
        # those whose rtime zone lies before the window.
        self.reads = [
            DirtyQuery("window_agg", database, f"""
select reader, count(*) as n, max(rtime) as last_seen
from caser where rtime >= {params.above(0.90)} group by reader
"""),
            CleansedQuery("q1_05", engine, q1_sql(params.below(0.05))),
        ]

    def policy(self) -> dict:
        storage = self.database.storage
        return {"group_commit_count": storage.wal.group_count,
                "group_commit_window_s": storage.wal.group_window,
                "wal_fsync": storage.sync,
                "checkpoint_wal_bytes": storage.checkpoint_bytes,
                "readahead_pages": storage.pager.readahead,
                "zone_prune": pruning_enabled(),
                "page_size": storage.page_size,
                "buffer_pages": self.pins["buffer_pages"]}

    def teardown(self) -> None:
        super().teardown()
        if self.path:
            shutil.rmtree(self.path, ignore_errors=True)

    def statements(self, client: int, slot: int) -> list:
        statements = [Append("append", self.database, next(self.batches))] \
            + self.reads
        self.issued += 1
        if self.issued % self.CHECKPOINT_EVERY == 0:
            statements.append(Checkpoint("checkpoint", self.database))
        return statements

    def queries(self, client: int) -> list:
        return self.reads

    def file_bytes(self) -> dict[str, int]:
        return {name: os.path.getsize(os.path.join(self.path, name))
                for name in ("data.pages", "wal.log")}

    def reopen(self) -> float:
        """Close and reopen the directory: shutdown plus recovery."""
        start = time.perf_counter()
        self.database.shutdown()
        self.database = Database(storage="disk", storage_path=self.path,
                                 buffer_pages=self.pins["buffer_pages"])
        return time.perf_counter() - start


def _serve(database: Database, pipe) -> None:
    """The forked server process: serve until told to stop, then report
    what only this process knows."""
    handle = serve_in_thread(database, port=0)
    pipe.send(handle.address)
    pipe.recv()
    shed = handle.server.shed_count
    handle.stop()
    pipe.send({"shed": shed, "maxrss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss})
    pipe.close()
    database.shutdown()


class ServedMixed(Workload):
    """Two closed-loop connections to ``repro.server`` in a child."""

    name = "served_mixed"
    static = False
    clients = 2
    child = None

    @property
    def solo_rounds(self) -> int:
        """Rounds one connection runs alone in a traced run, before
        both do: the base of ``server.lock_stretch``."""
        return min(10, self.rounds)

    def setup(self) -> None:
        loaded, stream = self._generate(self._stream_rows(self.solo_rounds))
        database = self._load(loaded)
        reference = self._engine(RULES_1_3)
        # fork, not spawn: the child serves the database this process
        # loaded, and the parent keeps its copy as the oracle. No thread
        # exists yet in this process.
        context = multiprocessing.get_context("fork")
        self.pipe, child_pipe = context.Pipe()
        self.child = context.Process(target=_serve, daemon=True,
                                     args=(database, child_pipe))
        self.child.start()
        child_pipe.close()
        address = self.pipe.recv()
        rules = [text for name in RULES_1_3
                 for text in rule_texts(self.data)[name]]
        self.sessions = []
        for _ in range(self.clients):
            session = Session(ServerClient(*address))
            session.hello(rules)
            self.sessions.append(session)
        self.server_report = {}

        params = self.params
        batches = inputs.batches(stream, self.pins["batch_rows"])
        self.batches = [iter(batches[client::self.clients])
                        for client in range(self.clients)]
        #: Batches sent to the server, for the final replay.
        self.sent: list[list[tuple]] = []
        step_type = params.busiest_step_type(params.above(0.05))
        scan_fraction = self.pins["scan_rows"] / len(self.data.case_reads)
        #: The round's queries on the parent's own copy: the oracle, and
        #: the in-process side of ``server.wire_overhead_ms``.
        self.reference = [
            CleansedQuery("q1_05", reference, q1_sql(params.below(0.05))),
            CleansedQuery("q2p_05", reference, q2_prime_sql(
                params.above(0.05), step_type)),
            DirtyQuery("scan", database, f"""
select epc, rtime, reader, biz_loc, biz_step
from caser where rtime >= {params.above(scan_fraction)}
"""),
            DirtyQuery("agg", database, f"""
select biz_loc, count(*) as n, max(rtime) as last_seen
from caser where rtime >= {params.above(0.30)} group by biz_loc
"""),
            DirtyQuery("count", database, "select count(*) from caser"),
        ]
        self.reads = [
            [(ServedCount if local.cls == "count" else ServedQuery)(
                session, local) for local in self.reference]
            for session in self.sessions]

    def statements(self, client: int, slot: int) -> list:
        batch = next(self.batches[client])
        self.sent.append(batch)
        return self.reads[client] + [
            Append("append", self.sessions[client], batch)]

    def queries(self, client: int) -> list:
        return self.reads[client]

    def replay(self) -> None:
        """Bring the parent's copy to the server's final state."""
        for batch in self.sent:
            self.database.append("caser", batch)
        self.sent = []

    def teardown(self) -> None:
        """Drain the server and keep its report, then the base's."""
        if self.child is not None:
            for session in self.sessions:
                session.client.close()
            self.pipe.send("stop")
            self.server_report = self.pipe.recv()
            self.pipe.close()
            self.child.join(timeout=60)
            if self.child.is_alive():
                self.child.kill()
                self.child.join()
            self.child = None
        super().teardown()


WORKLOADS = {workload.name: workload for workload in (
    PaperStatic, SelectiveLookups, StreamDashboard, DiskIngestQuery,
    ServedMixed)}
