"""``python -m repro.fuzz`` — the differential fuzzing CLI.

Examples::

    python -m repro.fuzz --seed 0 --iterations 50
    python -m repro.fuzz --time-budget 60 --iterations 100000
    python -m repro.fuzz --strategies expanded,joinback -v

Exit status 0 when every iteration agreed, 1 on any divergence (shrunk
regressions land in ``tests/fuzz/regressions/`` unless redirected).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.fuzz.oracle import ALL_LABELS
from repro.fuzz.runner import FuzzConfig, run_fuzz


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential rewrite-equivalence fuzzer.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default: 0)")
    parser.add_argument("--iterations", type=int, default=50,
                        help="iteration budget (default: 50)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget; stops early when hit")
    parser.add_argument("--strategies", default=None, metavar="LABELS",
                        help="comma-separated subset of: "
                             + ",".join(ALL_LABELS))
    parser.add_argument("--max-rules", type=int, default=3,
                        help="max rules per case (default: 3)")
    parser.add_argument("--stop-after", type=int, default=1,
                        metavar="N", dest="stop_after",
                        help="stop after N divergent cases (default: 1)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging on divergence")
    parser.add_argument("--regression-dir", type=Path, default=None,
                        help="where to write shrunk regressions")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log every iteration to stderr")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    labels = None
    if args.strategies:
        labels = [label.strip() for label in args.strategies.split(",")
                  if label.strip()]
        unknown = set(labels) - set(ALL_LABELS)
        if unknown:
            print(f"unknown strategies: {', '.join(sorted(unknown))}; "
                  f"choose from {', '.join(ALL_LABELS)}",
                  file=sys.stderr)
            return 2

    def report(message: str) -> None:
        print(message, file=sys.stderr)

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        labels=labels,
        shrink=not args.no_shrink,
        regression_dir=args.regression_dir,
        max_rules=args.max_rules,
        stop_after_failures=args.stop_after,
        report=report if args.verbose else None,
    )
    outcome = run_fuzz(config)
    print(f"repro.fuzz seed={args.seed}: {outcome.summary()}")
    for failure in outcome.failures:
        print(f"  {failure.report.summary()}")
        if failure.regression_path is not None:
            print(f"  regression: {failure.regression_path}")
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
