"""Reproduction scorecard: one command that checks every qualitative
claim of the paper's evaluation and prints PASS/FAIL per claim.

Unlike the figure harnesses (which print raw series for eyeballing),
this runs a compact configuration and *asserts* the shapes:

  S1  dirty queries return different answers than cleansed ones
  S2  every rewrite strategy returns exactly the naive rewrite's rows
      (q1 and q2 with rules 1-3; q2' at 30% and 60% with all five)
  S3  expanded and join-back beat naive on q1 and q2
  S4  Table 1 feasibility: cycle {} everywhere, missing {} for q1 only
  S5  expanded is feasible exactly for rule prefixes 1..3
  S6  q1's expanded plan shares the sort (one sort operator end to end)
  S7  q2' (uncorrelated predicate) erodes join-back's q2 advantage
  S8  anomaly growth 10% -> 40% raises rewrite cost by less than naive's
      cost ratio over the rewrites

Exit code is non-zero when any claim fails, so the scorecard can gate
CI. Run: ``python -m repro.experiments summary`` (REPRO_SCALE honored).
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.experiments.common import ExperimentSettings, workbench_for
from repro.workloads import STANDARD_RULE_ORDER

__all__ = ["run_scorecard", "main"]


def _measure(bench, sql: str, strategy: str) -> tuple[float, set]:
    start = time.perf_counter()
    result = bench.engine.execute(sql, strategies={strategy})
    return time.perf_counter() - start, result.as_set()


def run_scorecard(settings: ExperimentSettings | None = None) -> dict[str, bool]:
    settings = settings or ExperimentSettings()
    checks: dict[str, bool] = {}
    bench3 = workbench_for(settings,
                           rule_names=("reader", "duplicate", "replacing"))
    bench1 = workbench_for(settings, rule_names=("reader",))
    q1 = bench3.q1(0.10)
    q2 = bench3.q2(0.10)

    # S1: anomalies corrupt answers.
    dirty = bench3.database.execute(q1).as_set()
    clean = bench3.engine.execute(q1, strategies={"naive"}).as_set()
    checks["S1 dirty != cleansed"] = dirty != clean

    # S2: strategy equivalence. With all five rules expanded is
    # infeasible and the missing rule reads a view (DESIGN.md §6).
    bench5 = workbench_for(settings)
    agree = True
    for bench, sql, strategies in (
            (bench3, q1, ("expanded", "joinback")),
            (bench3, q2, ("expanded", "joinback")),
            (bench5, bench5.q2_prime(0.30), ("joinback",)),
            (bench5, bench5.q2_prime(0.60), ("joinback",))):
        baseline = bench.engine.execute(sql, strategies={"naive"}).as_set()
        for strategy in strategies:
            got = bench.engine.execute(sql, strategies={strategy}).as_set()
            agree = agree and got == baseline
    checks["S2 rewrites preserve semantics"] = agree

    # S3: rewrites beat naive.
    beats = True
    for sql in (q1, q2):
        naive_time, _ = _measure(bench3, sql, "naive")
        for strategy in ("expanded", "joinback"):
            elapsed, _ = _measure(bench3, sql, strategy)
            beats = beats and elapsed < naive_time
    checks["S3 rewrites beat naive"] = beats

    # S4: Table 1 feasibility pattern.
    from repro.experiments.table1 import table1_conditions
    from repro.workloads import (
        timestamp_for_fraction_above,
        timestamp_for_fraction_below,
    )
    rtimes = bench5.case_rtimes()
    table = table1_conditions(bench5,
                              timestamp_for_fraction_below(rtimes, 0.10),
                              timestamp_for_fraction_above(rtimes, 0.10))
    checks["S4 Table 1 feasibility"] = (
        table["cycle"] == {"q1": "{}", "q2": "{}"}
        and table["missing"]["q1"] == "{}"
        and table["missing"]["q2"] != "{}"
        and all(table[name]["q1"] != "{}" and table[name]["q2"] != "{}"
                for name in ("reader", "duplicate", "replacing")))

    # S5: expanded feasibility boundary at 3 rules.
    flags = []
    for count in range(1, 6):
        bench = workbench_for(settings,
                              rule_names=STANDARD_RULE_ORDER[:count])
        flags.append(bench.engine.rewrite(bench.q1(0.10)).analysis.feasible)
    checks["S5 expanded feasible for 1..3 rules"] = \
        flags == [True, True, True, False, False]

    # S6: order sharing — q1 expanded uses exactly one sort.
    _, metrics, _ = bench3.engine.execute_with_metrics(
        q1, strategies={"expanded"})
    checks["S6 shared sort in q1_e"] = metrics.sort_operators == 1

    # S7: the uncorrelated predicate erodes join-back's advantage.
    q2_hi = bench1.q2(0.40)
    q2p_hi = bench1.q2_prime(0.40)
    q2_ratio = _measure(bench1, q2_hi, "joinback")[0] \
        / max(_measure(bench1, q2_hi, "expanded")[0], 1e-9)
    q2p_ratio = _measure(bench1, q2p_hi, "joinback")[0] \
        / max(_measure(bench1, q2p_hi, "expanded")[0], 1e-9)
    checks["S7 q2' erodes join-back advantage"] = q2p_ratio > q2_ratio

    # S8: anomaly scaling stays mild relative to naive's disadvantage.
    dirty40 = workbench_for(replace(settings, anomaly_percent=40.0),
                            rule_names=("reader", "duplicate", "replacing"))
    base_time, _ = _measure(bench3, q1, "joinback")
    heavy_time, _ = _measure(dirty40, dirty40.q1(0.10), "joinback")
    naive_time, _ = _measure(bench3, q1, "naive")
    checks["S8 anomaly growth is mild"] = \
        heavy_time / max(base_time, 1e-9) < naive_time / max(base_time, 1e-9)

    return checks


def main() -> int:
    checks = run_scorecard()
    print("\n=== Reproduction scorecard ===")
    for claim, passed in checks.items():
        print(f"  [{'PASS' if passed else 'FAIL'}] {claim}")
    failed = [claim for claim, passed in checks.items() if not passed]
    print(f"\n{len(checks) - len(failed)}/{len(checks)} claims reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
