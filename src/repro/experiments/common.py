"""Shared experiment infrastructure.

The paper compares, for each benchmark query q:

* ``q``    — the query run directly on dirty data (wrong answers;
  baseline only);
* ``q_e``  — the expanded rewrite;
* ``q_j``  — the join-back rewrite;
* ``q_n``  — the naive rewrite (cleanse everything first).

:func:`run_variants` measures all four on a workbench and also captures
work metrics (rows sorted, sort passes) that explain the shapes.
Workbenches are cached per (scale, anomaly%, rule set) within the
process, mirroring the paper's four pre-loaded databases db-10..db-40.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.datagen import GeneratorConfig
from repro.errors import RewriteError
from repro.knobs import int_knob
from repro.workloads import STANDARD_RULE_ORDER, Workbench

__all__ = ["ExperimentSettings", "QueryTimings", "workbench_for",
           "run_variants", "VARIANTS"]

VARIANTS = ("q", "q_e", "q_j", "q_n")


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale knobs; the default keeps a full sweep to a few minutes.

    The paper uses s ~ 6,700 (10M case reads) on DB2; the pure-Python
    engine is roughly three orders of magnitude slower per row, so the
    default scale keeps the same *fractions* (selectivity, anomaly %)
    over proportionally fewer rows. Override with REPRO_SCALE.
    """

    scale: int = field(
        default_factory=lambda: int_knob("REPRO_SCALE", 24, 1))
    anomaly_percent: float = 10.0
    seed: int = 20060912

    def config(self) -> GeneratorConfig:
        return GeneratorConfig(scale=self.scale,
                               anomaly_percent=self.anomaly_percent,
                               seed=self.seed)


@dataclass
class QueryTimings:
    """One experiment point: elapsed seconds and work metrics."""

    label: str
    elapsed: dict[str, float] = field(default_factory=dict)
    rows_sorted: dict[str, int] = field(default_factory=dict)
    row_counts: dict[str, int] = field(default_factory=dict)
    chosen: str | None = None

    def row(self, variants=VARIANTS) -> str:
        cells = []
        for variant in variants:
            value = self.elapsed.get(variant)
            cells.append("   n/a " if value is None else f"{value:7.3f}")
        return f"{self.label:<18}" + "  ".join(cells)


_WORKBENCHES: dict[tuple, Workbench] = {}


def workbench_for(settings: ExperimentSettings,
                  rule_names: tuple[str, ...] = STANDARD_RULE_ORDER,
                  ) -> Workbench:
    """Cached workbench for the given settings and rule set."""
    base_key = (settings.scale, settings.anomaly_percent, settings.seed)
    base = _WORKBENCHES.get(base_key)
    if base is None:
        base = Workbench.create(settings.config(), rule_names)
        _WORKBENCHES[base_key] = base
        _WORKBENCHES[base_key + (tuple(rule_names),)] = base
        return base
    rules_key = base_key + (tuple(rule_names),)
    bench = _WORKBENCHES.get(rules_key)
    if bench is None:
        bench = base.with_rules(rule_names)
        _WORKBENCHES[rules_key] = bench
    return bench


def _timed(callable_) -> tuple[float, object]:
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def run_variants(bench: Workbench, sql: str, label: str,
                 variants=VARIANTS) -> QueryTimings:
    """Measure the requested variants of *sql* on *bench*."""
    timings = QueryTimings(label=label)
    strategy_of = {"q_e": "expanded", "q_j": "joinback", "q_n": "naive"}
    for variant in variants:
        if variant == "q":
            elapsed, result = _timed(lambda: bench.database.execute(sql))
            timings.elapsed[variant] = elapsed
            timings.row_counts[variant] = len(result)
            continue
        strategy = strategy_of[variant]
        try:
            def run():
                return bench.engine.execute_with_metrics(
                    sql, strategies={strategy})
            elapsed, (result, metrics, _) = _timed(run)
        except RewriteError:
            continue  # infeasible (e.g. expanded with the cycle rule)
        timings.elapsed[variant] = elapsed
        timings.rows_sorted[variant] = metrics.rows_sorted
        timings.row_counts[variant] = len(result)
    decision = bench.engine.rewrite(sql)
    timings.chosen = decision.chosen.label
    return timings


def print_header(title: str, variants=VARIANTS) -> None:
    print(f"\n=== {title} ===")
    print(f"{'point':<18}" + "  ".join(f"{v:>7}" for v in variants)
          + "   (seconds)")
