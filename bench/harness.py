"""Spans, closed-loop clients and the correctness oracle.

Everything here is generic over workloads: a :class:`Loop` is one
closed-loop client that executes a workload's statements round by
round, times each statement from outside, and checks every answer —
against the naive rewrite on the scalar executor the first time, and
against the digest verified then on every repeat.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.minidb.result import ResultSet


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """Nearest-rank 90th percentile: with the pinned 100 rounds, ten
    samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, (len(ordered) * 9) // 10)]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "round",
                 "child_s")

    def __init__(self, name: str, parent: "Span | None", op: int,
                 round_: object) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.round = round_
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part its child spans cover."""
        return self.duration - self.child_s


class Tracer:
    """Spans opened by the harness around calls into each layer.

    Kept in memory and written once at exit. A root span starts a new
    op id and carries the round it belongs to; children inherit both.
    Each client thread has its own stack of open spans.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ops = 0
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, round_: object = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if parent is None:
            with self._lock:
                self._ops += 1
                op = self._ops
        else:
            op, round_ = parent.op, parent.round
        span = Span(name, parent, op, round_)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            self.spans.append(span)

    def self_ms_per_round(self, name: str) -> list[float]:
        """Per round, the summed self time of spans called *name*."""
        rounds: dict[object, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                rounds[span.round] += span.self_s * 1e3
        return list(rounds.values())

    def durations_ms(self, name: str) -> list[float]:
        return [span.duration * 1e3 for span in self.spans
                if span.name == name]

    def dump(self, path: str) -> None:
        index = {id(span): number
                 for number, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"id": index[id(span)], "name": span.name,
                        "start": span.start, "end": span.end,
                        "parent": (index[id(span.parent)]
                                   if span.parent is not None else None),
                        "op": span.op, "round": span.round,
                        "self_s": span.self_s}
                       for span in self.spans], handle)


# ----------------------------------------------------------------------
# Closed-loop client
# ----------------------------------------------------------------------

def digest(result: ResultSet) -> int:
    """Order-sensitive digest of an answer, cheap enough to take on
    every timed repeat (same plan, same data: same row order)."""
    return hash(tuple(result.rows))


@dataclass
class RoundSample:
    traced: bool
    total_s: float
    reads_s: float
    append_s: float | None
    statements: int


class Loop:
    """One closed-loop client: the next statement is issued only after
    the previous answer has been materialized and checked."""

    def __init__(self, workload, client: int,
                 tracer: Tracer | None) -> None:
        self.workload = workload
        self.client = client
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples: list[RoundSample] = []
        self.class_ms: dict[str, list[float]] = defaultdict(list)
        #: Per traced round, the counts its statements reported.
        self.round_counts: list[dict[str, float]] = []
        #: Statement key -> digest of the answer the oracle confirmed.
        self.verified: dict[object, int] = {}

    def fail(self, statement, why: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name}/{statement.cls}: {why}",
              file=sys.stderr)

    def execute(self, statement, traced: bool = False,
                round_: object = None, counts: dict | None = None):
        """Run one statement; (seconds, answer or None on error)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                result = statement.traced(self.tracer, round_, counts)
            else:
                result = statement.run()
        except Exception:  # noqa: BLE001 — a failed statement is a datum
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            self.fail(statement, "raised")
            return elapsed, None
        return time.perf_counter() - start, result

    def check(self, statement, result) -> None:
        """Untimed: an answer must be non-empty and, where the data is
        static, reproduce the digest the oracle confirmed."""
        if result is None:
            return  # already counted by execute()
        problem = statement.problem(result)
        if problem is not None:
            self.fail(statement, problem)
        elif self.workload.static and statement.kind == "read":
            expected = self.verified.get(statement.key)
            if expected is None:
                self.fail(statement, "never verified against the oracle")
            elif digest(result) != expected:
                self.fail(statement, "answer differs from verified digest")

    def verify(self, statements) -> None:
        """Untimed correctness pass: each query against its oracle."""
        for statement in statements:
            if statement.kind != "read":
                continue
            _, result = self.execute(statement)
            if result is None:
                continue
            problem = statement.problem(result)
            if problem is None \
                    and result.canonical() != statement.oracle():
                problem = "answer differs from the naive scalar oracle"
            if problem is not None:
                self.fail(statement, problem)
            else:
                self.verified[statement.key] = digest(result)

    def round(self, slot: int, traced: bool = False,
              timed: bool = True) -> None:
        statements = self.workload.statements(self.client, slot)
        counts: dict[str, float] = defaultdict(float)
        round_ = (self.client, len(self.samples))
        total = reads = 0.0
        append = None
        for statement in statements:
            elapsed, result = self.execute(statement, traced, round_,
                                           counts)
            self.check(statement, result)
            total += elapsed
            if statement.kind == "read":
                reads += elapsed
            elif statement.kind == "append":
                append = elapsed
            if timed:
                self.class_ms[statement.cls].append(elapsed * 1e3)
        if timed:
            self.samples.append(RoundSample(traced, total, reads, append,
                                            len(statements)))
            if traced:
                self.round_counts.append(counts)

    def run_timed(self, seconds: float, rounds: int, trace: bool) -> None:
        """Rounds until *rounds* are done or *seconds* have passed.

        A traced run alternates untraced and traced rounds over the same
        slot, so the two medians see the same statements and the same
        table growth; their ratio is the tracing overhead.
        """
        deadline = time.perf_counter() + seconds
        verify_every = self.workload.verify_every
        modes = (False, True) if trace else (False,)
        slot = 0
        while time.perf_counter() < deadline:
            for traced in modes:
                if len(self.samples) >= rounds:
                    return
                self.round(slot, traced)
            slot += 1
            if verify_every and slot % verify_every == 0:
                self.verify(self.workload.queries(self.client))
