"""The fuzz loop: generate, execute, diff, shrink, persist.

Each iteration derives a child seed from the master seed, builds a
random (dataset, rules, query) triple, and hands it to the oracle. On
divergence the case is delta-debugged down and written out as a
self-contained pytest regression. The loop is bounded by iterations
and/or wall-clock budget, whichever trips first.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.fuzz.cases import FuzzCase
from repro.fuzz.datasets import random_profile
from repro.fuzz.oracle import OracleReport, run_case
from repro.fuzz.queries import random_query
from repro.fuzz.regression import write_regression
from repro.fuzz.rules import random_rules
from repro.fuzz.shrink import shrink_case

__all__ = ["Failure", "FuzzConfig", "FuzzOutcome", "generate_case",
           "run_fuzz"]


@dataclass
class FuzzConfig:
    """Knobs for one fuzzing campaign."""

    seed: int = 0
    iterations: int = 50
    #: Wall-clock budget in seconds; ``None`` means iterations only.
    time_budget: float | None = None
    #: Subset of :data:`~repro.fuzz.oracle.ALL_LABELS`; ``None`` = all.
    labels: Sequence[str] | None = None
    shrink: bool = True
    #: Where shrunk regressions land; ``None`` = repo default.
    regression_dir: Path | None = None
    max_rules: int = 3
    stop_after_failures: int = 1
    #: Progress callback (message) — the CLI wires this to stderr.
    report: Callable[[str], None] | None = None


@dataclass
class Failure:
    """One divergence, with its shrunk form and regression file."""

    report: OracleReport
    shrunk: FuzzCase
    regression_path: Path | None = None


@dataclass
class FuzzOutcome:
    """What a campaign produced."""

    iterations_run: int = 0
    skipped_labels: dict[str, int] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            skips = sum(self.skipped_labels.values())
            return (f"{self.iterations_run} iterations, 0 divergences "
                    f"({skips} legitimate strategy skips)")
        labels = sorted({label for failure in self.failures
                         for label in failure.report.diverged_labels()})
        return (f"{self.iterations_run} iterations, "
                f"{len(self.failures)} divergent case(s) "
                f"[{', '.join(labels)}]")


def generate_case(rng: random.Random, seed: int,
                  iteration: int, max_rules: int = 3) -> FuzzCase:
    """One random (dataset, rules, query) triple from *rng*."""
    profile = random_profile(rng)
    rules = random_rules(rng, profile, max_rules=max_rules)
    query = random_query(rng, profile)
    return FuzzCase(seed=seed, iteration=iteration,
                    reads_rows=list(profile.rows), rules=rules,
                    query=query)


def run_fuzz(config: FuzzConfig) -> FuzzOutcome:
    """Run one campaign; returns the aggregate outcome."""
    outcome = FuzzOutcome()
    report = config.report or (lambda message: None)
    deadline = (None if config.time_budget is None
                else time.monotonic() + config.time_budget)
    master = random.Random(config.seed)

    for iteration in range(config.iterations):
        if deadline is not None and time.monotonic() >= deadline:
            report(f"time budget exhausted after "
                   f"{outcome.iterations_run} iterations")
            break
        case_rng = random.Random(master.getrandbits(64))
        case = generate_case(case_rng, config.seed, iteration,
                             max_rules=config.max_rules)
        oracle_report = run_case(case, labels=config.labels)
        outcome.iterations_run += 1
        for label, status in oracle_report.results.items():
            if status.startswith("skipped"):
                outcome.skipped_labels[label] = \
                    outcome.skipped_labels.get(label, 0) + 1
        if oracle_report.ok:
            report(f"iteration {iteration}: ok ({case.describe()})")
            continue

        report(f"iteration {iteration}: {oracle_report.summary()}")
        shrunk = case
        if config.shrink:
            shrunk = shrink_case(case,
                                 sorted(oracle_report.diverged_labels()))
            report(f"iteration {iteration}: shrunk "
                   f"{case.describe()} -> {shrunk.describe()}")
        failure = Failure(report=oracle_report, shrunk=shrunk)
        try:
            failure.regression_path = write_regression(
                shrunk, oracle_report, config.regression_dir)
            report(f"iteration {iteration}: regression written to "
                   f"{failure.regression_path}")
        except OSError as error:
            report(f"iteration {iteration}: could not write "
                   f"regression ({error})")
        outcome.failures.append(failure)
        if len(outcome.failures) >= config.stop_after_failures:
            break
    return outcome
