"""One workload in one process: set-up, warm-up, timed rounds, metrics.

``python -m bench run`` starts this module in a fresh subprocess per
workload (``PYTHONHASHSEED=0``, inherited ``REPRO_*`` stripped), so no
workload sees another's caches, garbage or peak memory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the same, plus
context, goes to ``bench/out/result-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import time

from repro.server import protocol

from bench import OUT_DIR, spec
from bench.harness import Loop, Tracer, p50, p90
from bench.workloads import (
    PINS,
    ROUNDS,
    SELFTEST_PINS,
    WARMUP,
    WORKLOADS,
)

#: Set-ups per run (``setup_s`` is their median): three at least, and
#: up to seven while all of them together stay under the budget.
SETUPS_MIN, SETUPS_MAX, SETUPS_BUDGET_S = 3, 7, 4.0

#: The knob waterfall's legs, cumulative, in order. Each runs
#: ``paper_static``'s round in a fresh subprocess.
WATERFALL = (
    ("scalar", {"REPRO_BATCH_SIZE": "0"}),
    ("batch", {"REPRO_ENCODE": "0"}),
    ("encoded", {}),
    ("codegen", {"REPRO_CODEGEN": "1"}),
    ("workers2", {"REPRO_CODEGEN": "1", "REPRO_WORKERS": "2"}),
)
WATERFALL_ROUNDS = 12

#: Repeats of each shadow measurement in a traced run.
SHADOW_ROUNDS = 5


def run_leg(workload, rounds: int) -> dict:
    """One waterfall leg: a few rounds under this process's knobs, and
    a process-independent digest of each distinct answer."""
    loop = Loop(workload, 0, None)
    answers: dict[str, str] = {}
    totals = []
    workload.setup()
    try:
        for slot in range(rounds + 1):
            total = 0.0
            for number, statement in enumerate(
                    workload.statements(0, slot)):
                elapsed, result = loop.execute(statement)
                total += elapsed
                key = (f"{slot % len(workload.variants)}:{number}:"
                       f"{statement.cls}")
                if key not in answers and result is not None:
                    answers[key] = hashlib.sha256(
                        repr(result.canonical()).encode()).hexdigest()
            if slot:  # the first round warms up
                totals.append(total)
    finally:
        workload.teardown()
    return {"round_p50_ms": p50(totals) * 1e3, "answers": answers,
            "failed": loop.failed}


def _waterfall(arguments, loops: list[Loop]) -> dict[str, float]:
    """Run the five legs and diff their answers against the default's."""
    results = {}
    for config, knobs in WATERFALL:
        command = [sys.executable, "-m", "bench.worker",
                   "--workload", "paper_static",
                   "--seed", str(arguments.seed), "--leg", config]
        if arguments.selftest:
            command.append("--selftest")
        completed = subprocess.run(
            command, env={**os.environ, **knobs}, check=True,
            stdout=subprocess.PIPE, text=True, timeout=170)
        results[config] = json.loads(completed.stdout.splitlines()[-1])
    expected = results["encoded"]["answers"]
    for config, result in results.items():
        loops[0].attempted += len(expected)
        loops[0].failed += result["failed"]
        for key, answer in expected.items():
            if result["answers"].get(key) != answer:
                loops[0].failed += 1
                print(f"FAILED waterfall/{config}: {key} differs from "
                      f"the default leg", file=sys.stderr)
    return {f"waterfall.{config}.round_p50_ms": result["round_p50_ms"]
            for config, result in results.items()}


def _timed_phase(loops: list[Loop], seconds: float, rounds: int,
                 trace: bool) -> None:
    """Every client's rounds, side by side, one thread per client."""
    threads = [threading.Thread(target=loop.run_timed,
                                args=(seconds, rounds, trace))
               for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _storage_metrics(workload, before: dict, after: dict,
                     appended_rows: int, tracer) -> dict[str, float]:
    delta = {name: after[name] - before[name] for name in after}
    lookups = delta["buffer_hits"] + delta["buffer_misses"]
    files = workload.file_bytes()
    metrics = {f"storage.{name}": float(delta[name]) for name in (
        "pages_read", "pages_written", "pages_evicted", "pages_pruned",
        "prefetch_hits", "prefetch_wasted", "wal_syncs", "group_syncs",
        "checkpoints", "compactions")}
    metrics["storage.buffer_hit_rate"] = \
        delta["buffer_hits"] / lookups if lookups else 0.0
    metrics["storage.wal_bytes_per_row"] = \
        delta["wal_bytes"] / max(appended_rows, 1)
    metrics["storage.data_bytes"] = float(files["data.pages"])
    metrics["disk_bytes_per_row"] = \
        sum(files.values()) / len(workload.database.table("caser"))
    if tracer is not None:
        metrics["storage.checkpoint_ms"] = p50(
            tracer.durations_ms("storage.checkpoint"))
        metrics["storage.reopen_s"] = workload.reopen()
    return metrics


def _served_extras(workload, solo: Loop, loops: list[Loop],
                   tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for the wire path (traced run only): the same
    classes in process on the parent's copy, and shadow calls on the
    real payload."""
    local = Loop(workload, 0, None)
    for _ in range(workload.solo_rounds):
        for statement in workload.reference:
            elapsed, _ = local.execute(statement)
            local.class_ms[statement.cls].append(elapsed * 1e3)
    scan = next(s for s in workload.reference if s.cls == "scan")
    database = workload.database
    for round_ in range(SHADOW_ROUNDS):
        result = scan.run()
        payload = {"id": 1, "ok": True, "columns": list(result.columns),
                   "rows": [list(row) for row in result.rows]}
        with tracer.span("shadow.server.encode", round_):
            frame = protocol.encode_frame(payload)
        with tracer.span("shadow.server.decode", round_):
            decoded = protocol.decode_payload(frame[4:])
            protocol.rows_from_wire(decoded["rows"])
        with tracer.span("shadow.snapshot.pin", round_):
            database.snapshot().release()
    cleansed = ("q1_05", "q2p_05")
    together = sum(p50([ms for loop in loops for ms in loop.class_ms[cls]])
                   for cls in cleansed)
    alone = sum(p50(solo.class_ms[cls]) for cls in cleansed)
    return {
        "server.rtt_floor_ms": p50(solo.class_ms["count"]),
        "server.wire_overhead_ms":
            p50(solo.class_ms["scan"]) - p50(local.class_ms["scan"]),
        "server.encode_ms": p50(tracer.durations_ms("shadow.server.encode")),
        "server.decode_ms": p50(tracer.durations_ms("shadow.server.decode")),
        "server.bytes_per_row": len(frame) / max(len(result), 1),
        "snapshot.pin_ms": p50(tracer.durations_ms("shadow.snapshot.pin")),
        "server.lock_stretch": together / alone if alone else 0.0,
    }


def _traced_metrics(loops: list[Loop], tracer: Tracer) -> dict[str, float]:
    """What the spans and counts of the traced rounds add up to."""
    samples = [s for loop in loops for s in loop.samples]
    traced_s = sum(s.total_s for s in samples if s.traced)
    untraced = p50([s.total_s for s in samples if not s.traced])
    rounds = [counts for loop in loops for counts in loop.round_counts]

    def per_round(name: str) -> float:
        return p50([counts.get(name, 0.0) for counts in rounds])

    def span_ms(*names: str) -> float:
        return sum(p50(tracer.self_ms_per_round(name)) for name in names)

    def share(name: str) -> float:
        total = sum(tracer.self_ms_per_round(name)) / 1e3
        return total / traced_s if traced_s else 0.0

    filtered = sum(counts.get("filter_input_rows", 0) for counts in rounds)
    kept = sum(counts.get("filter_output_rows", 0) for counts in rounds)
    metrics = {name: per_round(name) for name in (
        "rewrite.candidates", "rewrite.chosen.expanded",
        "rewrite.chosen.joinback", "rewrite.chosen.naive",
        "rewrite.chosen.cached", "exec.rows_sorted",
        "exec.sort_operators", "exec.rows_emitted", "exec.batches",
        "exec.encoded_columns", "exec.decode_fallbacks",
        "codegen.fused_pipelines", "codegen.compile_ms",
        "shard.segments", "shard.workers")}
    metrics.update({
        "sqlparse.parse_ms": span_ms("sqlparse.parse"),
        "rewrite.rewrite_ms": span_ms("rewrite.rewrite"),
        "rewrite.analyze_ms": span_ms("shadow.rewrite.analyze"),
        "rewrite.share": share("rewrite.rewrite"),
        "optimizer.plan_ms": span_ms("optimizer.plan",
                                     "shadow.optimizer.plan"),
        "optimizer.qerror_root_p50": p50(
            [q for counts in rounds for q in counts.get("qerrors", [])]),
        "exec.materialize_ms": span_ms("exec.materialize"),
        "exec.share": share("exec.materialize"),
        "exec.filter_density": kept / filtered if filtered else 0.0,
        "ingest.append_ms": span_ms("ingest.append"),
        "trace.overhead_share":
            (p50([s.total_s for s in samples if s.traced]) / untraced - 1.0
             if untraced else 0.0),
    })
    return metrics


def _set_up(workload, quick: bool) -> list[float]:
    """Set the workload up several times, keeping the last; seconds of
    each. ``setup_s`` is their median, so one slow start does not decide
    it: at least SETUPS_MIN, then more while they are cheap."""
    seconds: list[float] = []
    while True:
        start = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - start)
        if quick or len(seconds) >= SETUPS_MAX or (
                len(seconds) >= SETUPS_MIN
                and sum(seconds) >= SETUPS_BUDGET_S):
            break
        workload.teardown()
    # Set-up garbage must not be collected on a timed round's bill.
    gc.collect()
    gc.freeze()
    return seconds


def _measure(workload, arguments, tracer, extras: dict) -> list[Loop]:
    """Warm up, verify, run the timed rounds, verify again.

    Returns every loop that issued statements, the workload's clients
    first; per-layer numbers that need the live workload go to *extras*.
    """
    trace = tracer is not None
    clients = [Loop(workload, client, tracer)
               for client in range(workload.clients)]
    loops = list(clients)
    clients[0].verify(workload.queries(0))
    for loop in clients:
        loop.verified = clients[0].verified
        for slot in range(WARMUP):
            loop.round(slot, timed=False)
    solo = None
    if trace and workload.clients > 1:
        # One connection alone first: the base of lock_stretch, the
        # round-trip floor and the wire overhead.
        solo = Loop(workload, 0, None)
        for slot in range(workload.solo_rounds):
            solo.round(slot)
        loops.append(solo)

    storage = workload.database.storage
    cache = workload.region_cache
    storage_before = storage.counters if storage is not None else None
    cache_before = {name: getattr(cache, name, 0) for name in (
        "hits", "misses", "patches", "sequences_recleaned", "evictions")}

    # A traced run also pays for shadow calls and, on paper_static, the
    # waterfall; half the rounds keep it inside the same time cap.
    _timed_phase(clients, arguments.seconds * (0.5 if trace else 1.0),
                 workload.rounds, trace)

    if trace:
        for round_ in range(SHADOW_ROUNDS):
            for statement in workload.queries(0):
                statement.shadow(tracer, round_)
    if trace and cache is not None:
        # Warm-hit price of the panel's first query: re-issue it with
        # nothing appended since the patch.
        first = workload.panel[0]
        warm = p50([clients[0].execute(first)[0] * 1e3
                    for _ in range(SHADOW_ROUNDS)])
        extras["cache.patch_ms"] = \
            p50(clients[0].class_ms[first.cls]) - warm

    # Final state: every class once more against the oracle.
    workload.replay()
    if not workload.static:
        clients[0].verify(workload.queries(0))

    if cache is not None:
        extras.update({f"cache.{name}": float(getattr(cache, name) - value)
                       for name, value in cache_before.items()})
    if storage is not None:
        workload.database.checkpoint()
        appended = sum(s.append_s is not None for s in clients[0].samples) \
            * workload.pins["batch_rows"]
        extras.update(_storage_metrics(workload, storage_before,
                                       storage.counters, appended, tracer))
    if solo is not None:
        extras.update(_served_extras(workload, solo, clients, tracer))
    return loops


def _summarize(workload, clients: list[Loop], setup_s: list[float],
               peak_kb: int, extras: dict) -> dict[str, float]:
    """The end-to-end metrics; harness-level per-layer ones to *extras*."""
    samples = [s for loop in clients for s in loop.samples]
    appends = [s.append_s for s in samples if s.append_s is not None]
    if appends:
        extras["append_p50_ms"] = p50(appends) * 1e3
        extras["ingest.rows_per_s"] = \
            len(appends) * workload.pins["batch_rows"] / sum(appends)
    extras.update({
        "round_p90_ms": p90([s.total_s for s in samples]) * 1e3,
        "harness.rounds": float(len(samples)),
        "datagen.generate_s": workload.phases["generate_s"],
        "datagen.load_s": workload.phases["load_s"],
        "sqlts.define_ms": workload.phases["define_s"] * 1e3,
    })
    for cls in {cls for loop in clients for cls in loop.class_ms}:
        extras[f"class.{workload.name}.{cls}.p50_ms"] = p50(
            [ms for loop in clients for ms in loop.class_ms[cls]])
    return {
        "setup_s": p50(setup_s),
        "round_p50_ms": p50([s.total_s for s in samples]) * 1e3,
        "reads_p50_ms": p50([s.reads_s for s in samples]) * 1e3,
        # Throughput at the median round. Statements over the summed
        # round times would also count every stall of a noisy host,
        # which round_p90_ms already reports.
        "ops_per_s": (len(clients) * p50([s.statements for s in samples])
                      / p50([s.total_s for s in samples])),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def run(arguments) -> int:
    benchmark = spec.load()
    pins = (SELFTEST_PINS if arguments.selftest else PINS)[arguments.workload]
    workload = WORKLOADS[arguments.workload](
        arguments.seed, pins, rounds=3 if arguments.selftest else ROUNDS)
    if arguments.leg:
        print(json.dumps(run_leg(
            workload, 2 if arguments.selftest else WATERFALL_ROUNDS)))
        return 0
    trace = bool(arguments.trace)
    tracer = Tracer() if trace else None
    extras: dict[str, float] = {}
    try:
        setup_s = _set_up(workload, quick=arguments.selftest)
        loops = _measure(workload, arguments, tracer, extras)
        policy = workload.policy()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        workload.teardown()
    clients = loops[:workload.clients]
    if workload.server_report is not None:
        # What users of a server pay in memory is the server's.
        peak_kb = workload.server_report["maxrss_kb"]
        extras["server.shed"] = float(workload.server_report["shed"])
        extras["server.retries"] = float(
            sum(session.retries for session in workload.sessions))
    if trace and workload.name == "paper_static":
        extras.update(_waterfall(arguments, loops))
    end_to_end = _summarize(workload, clients, setup_s, peak_kb, extras)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    extras["failed_share"] = failed / attempted

    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        extras.update(_traced_metrics(clients, tracer))
        tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
        unknown = sorted(set(extras) - set(benchmark.per_layer))
        if unknown:
            raise SystemExit(f"undeclared per-layer metrics: {unknown}")
        # Every declared per-layer metric, 0 where this workload does
        # not reach the layer.
        values = {name: extras.get(name, 0.0)
                  for name in benchmark.per_layer}
        units = benchmark.per_layer
    else:
        values, units = end_to_end, benchmark.end_to_end
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=workload.name, seed=arguments.seed,
                  trace=trace, rounds=len(clients[0].samples), pins=pins,
                  specific={name: {"value": extras[name],
                                   "unit": gate["unit"]}
                            for name, gate in spec.SPECIFIC.items()
                            if name in extras},
                  policy=policy)
    with open(os.path.join(OUT_DIR, f"result-{workload.name}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    for name, entry in metrics.items():
        if entry["value"] or not trace:
            print(f"{workload.name:<18} {name:<44} "
                  f"{entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--leg", default="")
    arguments = parser.parse_args(argv)
    if arguments.seconds is None:
        arguments.seconds = spec.load().run_seconds
    return run(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
