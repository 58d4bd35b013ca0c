"""Shared fixtures for the benchmark harness.

Scale is controlled by REPRO_BENCH_SCALE (default 12, ~18k case reads)
so the full suite regenerates every figure in minutes on a laptop; raise
it for better-separated curves. Workbenches are session-cached through
the experiment harness, mirroring the paper's pre-loaded db-10..db-40.

Every benchmark run also writes machine-readable results to
``BENCH_RESULTS.json`` at the repo root (gitignored; the checked-in
``BENCH_PR*.json`` files are earlier runs of this recorder): one
wall-clock record per test — stamped with the
process's peak heap bytes (``ru_maxrss``) so memory regressions show
up next to timing ones — plus any :class:`ExecutionMetrics` rows a
test explicitly records via the ``record_metrics`` fixture, all under
a ``host`` block capturing the machine and knob configuration the
numbers were taken on, so a run can be read without parsing
pytest-benchmark output.

``REPRO_BENCH_SMOKE=1`` switches the suite to a correctness smoke run:
iteration counts drop to the minimum and timing-ratio assertions are
skipped (executor exceptions still fail) — this is what the CI smoke
job runs.
"""

import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentSettings, workbench_for

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "12"))

BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_RESULTS.json"

#: Smoke mode: run everything once, assert correctness, skip timing bars.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() == "1"

#: Knob environment variables snapshotted into every results file, so a
#: recorded number can always be tied back to the configuration that
#: produced it.
_KNOB_ENV = ("REPRO_BATCH_SIZE", "REPRO_ENCODE",
             "REPRO_BENCH_SCALE", "REPRO_BENCH_SMOKE",
             "REPRO_STORAGE", "REPRO_BUFFER_PAGES", "REPRO_PAGE_SIZE",
             "REPRO_WAL_LIMIT", "REPRO_GROUP_COMMIT", "REPRO_READAHEAD",
             "REPRO_ZONE_PRUNE", "REPRO_SERVE_WORKERS",
             "REPRO_SERVE_INFLIGHT", "REPRO_SERVE_SESSION_DEPTH")


def host_metadata() -> dict:
    """Machine + knob configuration for the results payload."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
        "knobs": {name: os.environ.get(name) for name in _KNOB_ENV
                  if os.environ.get(name) is not None},
    }


@pytest.fixture(scope="session")
def bench_records():
    """Accumulates result rows; written to BENCH_RESULTS.json at session end."""
    records = []
    yield records
    payload = {"bench_scale": BENCH_SCALE, "host": host_metadata(),
               "records": records}
    BENCH_RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")


@pytest.fixture(autouse=True)
def _record_wallclock(request, bench_records):
    """Wall-clock for every benchmark test, including fixture-free ones."""
    start = time.perf_counter()
    yield
    # ru_maxrss is kilobytes on Linux; the high-water mark is monotone
    # across the session, so per-test deltas are not meaningful — the
    # stamp records "peak heap by the time this test finished".
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bench_records.append({
        "kind": "wallclock",
        "test": request.node.nodeid,
        "elapsed_s": round(time.perf_counter() - start, 6),
        "heap_peak_bytes": peak_kb * 1024,
    })


@pytest.fixture()
def record_metrics(request, bench_records):
    """Callable fixture: ``record_metrics(label, metrics, **extra)``.

    Appends one row with the dataclass fields of an ExecutionMetrics
    (or any dataclass) plus arbitrary extra scalars.
    """
    def _record(label, metrics=None, **extra):
        row = {"kind": "metrics", "test": request.node.nodeid,
               "label": label}
        if metrics is not None:
            row["metrics"] = dataclasses.asdict(metrics)
        row.update(extra)
        bench_records.append(row)
    return _record


def settings(anomaly_percent: float = 10.0) -> ExperimentSettings:
    return ExperimentSettings(scale=BENCH_SCALE,
                              anomaly_percent=anomaly_percent)


@pytest.fixture(scope="session")
def db10_reader_only():
    """db-10 with only the reader rule (the Figure 7/8 setup)."""
    return workbench_for(settings(10.0), rule_names=("reader",))


@pytest.fixture(scope="session")
def db10_all_rules():
    """db-10 with all five rules (Figure 9 a/b endpoint)."""
    return workbench_for(settings(10.0))


def once(benchmark, func):
    """Run *func* exactly once under pytest-benchmark timing.

    The measured operations take hundreds of milliseconds on realistic
    scales; multiple rounds would only slow the suite without improving
    the comparison the figures need.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
