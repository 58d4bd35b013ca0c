"""``python -m bench run | compare | selftest`` (from the repo root)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from bench import ALLOWED_KNOBS, OUT_DIR, ROOT, clean_environment, spec

def host_block(environment: dict[str, str]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "knobs": {name: environment[name] for name in ALLOWED_KNOBS
                      if name in environment}}


def run_worker(workload: str, arguments, environment,
               extra: tuple[str, ...] = ()) -> tuple[int, dict | None]:
    """One workload in a fresh process; its output passes through.

    Returns the exit code and the worker's detailed result.
    """
    path = os.path.join(OUT_DIR, f"result-{workload}.json")
    if os.path.exists(path):
        os.remove(path)
    command = [sys.executable, "-m", "bench.worker",
               "--workload", workload, "--seed", str(arguments.seed),
               "--seconds", str(arguments.seconds),
               "--trace", str(arguments.trace), *extra]
    code = subprocess.run(command, cwd=ROOT, env=environment).returncode
    if code != 0 or not os.path.exists(path):
        return code or 1, None
    with open(path, encoding="utf-8") as handle:
        return 0, json.load(handle)


def command_run(arguments) -> int:
    benchmark = spec.load()
    if arguments.seconds is None:
        arguments.seconds = benchmark.run_seconds
    environment = clean_environment()
    if arguments.workload:
        # One workload: the worker's last line is this command's too.
        return run_worker(arguments.workload, arguments, environment)[0]

    started = time.time()
    results: dict[str, dict] = {}
    for _ in range(arguments.repeat):
        for workload in benchmark.workloads:
            code, detail = run_worker(workload, arguments, environment)
            if detail is None:
                return code
            detail["metrics"].update(detail.pop("specific"))
            merged = results.setdefault(workload, detail)
            for name, entry in detail["metrics"].items():
                merged["metrics"][name].setdefault("samples", []).append(
                    entry["value"])
            if merged is not detail:
                merged["attempted"] += detail["attempted"]
                merged["failed"] += detail["failed"]
                merged["correct"] = merged["correct"] and detail["correct"]
    for detail in results.values():
        for entry in detail["metrics"].values():
            entry["value"] = statistics.median(entry["samples"])
    document = {"host": host_block(environment), "seed": arguments.seed,
                "trace": bool(arguments.trace),
                "run_seconds": arguments.seconds,
                "repeat": arguments.repeat,
                "wall_s": time.time() - started, "results": results}
    out = arguments.out or os.path.join(
        OUT_DIR, "trace.json" if arguments.trace else "run.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    failed = sum(detail["failed"] for detail in results.values())
    print(f"wrote {os.path.relpath(out)}: {len(results)} workloads, "
          f"{failed} failed statements, {document['wall_s']:.0f} s")
    return 1 if failed else 0


def command_compare(arguments) -> int:
    from bench.compare import compare_files

    return compare_files(arguments.a, arguments.b)


def command_selftest(arguments) -> int:
    from bench.selftest import selftest

    return selftest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="run the workloads and print every metric")
    run.add_argument("--workload", default="",
                     help="one workload only (default: all five)")
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per workload "
                          "(default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     help="traced run: per-layer metrics, not end-to-end")
    run.add_argument("--repeat", type=int, default=1,
                     help="run the whole set this many times; the result "
                          "holds each metric's median and samples")
    run.add_argument("--out", default="",
                     help="result file (default: bench/out/run.json)")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser(
        "compare", help="compare two result files metric by metric")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=command_compare)
    selftest = commands.add_parser(
        "selftest", help="check the harness itself at a tiny scale")
    selftest.set_defaults(handler=command_selftest)
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
