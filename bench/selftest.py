"""``python -m bench selftest``: the harness checks itself, small.

Every workload runs once untraced and once traced at a fraction of the
pinned sizes (3 rounds), then the harness's own claims are asserted:
the metric names are exactly those BENCHMARK.json declares, spans nest,
a wrong answer is counted, and ``compare`` tells +15 % from +3 %.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from bench import OUT_DIR, ROOT, clean_environment, spec
from bench.compare import compare


def _run_worker(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "bench.worker", "--workload", workload,
         "--seed", str(spec.DEFAULT_SEED), "--seconds", "5",
         "--trace", str(trace), "--selftest"],
        cwd=ROOT, env=clean_environment(), text=True,
        stdout=subprocess.PIPE, check=True, timeout=170)
    return json.loads(completed.stdout.splitlines()[-1])


def _check_spans(workload: str) -> int:
    with open(os.path.join(OUT_DIR, f"trace-{workload}.json"),
              encoding="utf-8") as handle:
        spans = json.load(handle)
    assert spans, f"{workload}: traced run recorded no span"
    for span in spans:
        assert span["start"] <= span["end"], span
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] \
                and span["end"] <= parent["end"], \
                f"{workload}: span {span['name']} outlasts its parent"
            assert parent["op"] == span["op"], span
    return len(spans)


def _check_wrong_answer_counts() -> None:
    """Tamper with one verified digest: the next round must fail."""
    from bench.harness import Loop
    from bench.workloads import SELFTEST_PINS, PaperStatic

    workload = PaperStatic(spec.DEFAULT_SEED,
                           SELFTEST_PINS["paper_static"], rounds=3)
    workload.setup()
    try:
        loop = Loop(workload, 0, None)
        loop.verify(workload.queries(0))
        loop.round(0)
        assert loop.failed == 0, "clean round reported failures"
        victim = workload.statements(0, 0)[0]
        loop.verified[victim.key] ^= 1
        with contextlib.redirect_stderr(io.StringIO()):  # the FAILED line
            loop.round(0)
        assert loop.failed == 1 and loop.failed / loop.attempted > 0, \
            "an injected wrong answer did not raise failed_share"
    finally:
        workload.teardown()


def _check_compare() -> None:
    """Against a synthetic 10 % gate, so the check does not move with
    the bounds BENCHMARK.json happens to fix."""
    gates = {"round_p50_ms": {"unit": "ms", "better": "lower",
                              "bound": 0.10}}
    entry = {"value": 100.0, "unit": "ms"}
    base = {"results": {"w": {"metrics": {"round_p50_ms": dict(entry)}}}}

    def verdict(value: float, samples=None) -> str:
        other = copy.deepcopy(base)
        metric = other["results"]["w"]["metrics"]["round_p50_ms"]
        metric["value"] = value
        if samples:
            metric["samples"] = samples
        (row,) = compare(base, other, gates)
        return row["verdict"]

    assert verdict(115.0) == "regressed", "+15 % must be flagged"
    assert verdict(103.0) == "ok", "+3 % must pass"
    assert verdict(85.0) == "ok", "an improvement is not a regression"
    assert verdict(103.0, [80.0, 103.0, 130.0]) == "unresolved"


def selftest() -> int:
    benchmark = spec.load()
    # Nothing here is timed, so two workers share the host at a time.
    jobs = [(workload, trace) for workload in benchmark.workloads
            for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = dict(zip(jobs, pool.map(lambda job: _run_worker(*job),
                                          jobs)))
    for workload in benchmark.workloads:
        for trace, declared in ((0, benchmark.end_to_end),
                                (1, benchmark.per_layer)):
            result = outputs[workload, trace]
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result.keys()
            assert set(result["metrics"]) == set(declared), (
                f"{workload} trace={trace}: metric names differ from "
                f"BENCHMARK.json: "
                f"{set(result['metrics']) ^ set(declared)}")
            for name, entry in result["metrics"].items():
                assert entry["unit"] == declared[name], name
            assert result["correct"] and result["failed"] == 0 \
                and result["attempted"] >= 1, \
                f"{workload} trace={trace}: {result['failed']} failed"
            if not trace:
                zero = [name for name, entry in result["metrics"].items()
                        if not entry["value"] > 0]
                assert not zero, f"{workload}: zero end-to-end {zero}"
        spans = _check_spans(workload)
        print(f"ok {workload}: metric names match, {spans} spans nest")
    _check_wrong_answer_counts()
    print("ok an injected wrong answer raises failed_share")
    _check_compare()
    print("ok compare flags +15 %, passes +3 %, defers to spread")
    return 0


if __name__ == "__main__":
    argparse.ArgumentParser(prog="python -m bench.selftest").parse_args()
    raise SystemExit(selftest())
