"""Delta-debugging shrinker for diverging fuzz cases.

On a divergence the raw case is typically dozens of rows, several
rules, and a multi-conjunct query — far more than the bug needs. The
shrinker minimizes along every axis while preserving the failure:

1. **rows** — classic ddmin (Zeller's delta debugging) over the reads
   rows: try subsets, then complements, doubling granularity until
   1-minimal (removing any single row makes the divergence vanish);
2. **rules** — greedy drop, one rule at a time (order matters for rule
   chains, so surviving rules keep their relative order);
3. **query conjuncts** and **dimension joins** — greedy drop likewise;

each round first tries dropping the query's GROUP BY, which turns the
diff back into one over whole reads rows;

then loops the passes to a fixpoint (dropping a rule can unlock further
row removal). The failure predicate re-runs the differential oracle
restricted to the originally diverged labels, so each probe costs only
the strategies that matter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence, TypeVar

from repro.fuzz.cases import FuzzCase
from repro.fuzz.oracle import run_case

__all__ = ["ddmin", "shrink_case"]

Item = TypeVar("Item")


def ddmin(items: Sequence[Item],
          fails: Callable[[list[Item]], bool]) -> list[Item]:
    """Minimal sublist of *items* for which *fails* still holds.

    *fails(items)* must be True on entry; the result is 1-minimal with
    respect to removal of contiguous chunks (and, at granularity
    ``len(items)``, of single elements).
    """
    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        # Subsets first (fast win when the bug lives in one chunk) ...
        for start in range(0, len(current), chunk):
            subset = current[start:start + chunk]
            if len(subset) < len(current) and fails(subset):
                current = subset
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        # ... then complements (remove one chunk at a time).
        for start in range(0, len(current), chunk):
            complement = current[:start] + current[start + chunk:]
            if complement and len(complement) < len(current) \
                    and fails(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if reduced:
            continue
        if granularity >= len(current):
            break
        granularity = min(len(current), granularity * 2)
    if len(current) == 1 and fails([]):
        return []
    return current


def _greedy_drop(items: list[Item],
                 fails: Callable[[list[Item]], bool]) -> list[Item]:
    """Drop elements one at a time (right to left) while still failing."""
    current = list(items)
    index = len(current) - 1
    while index >= 0:
        candidate = current[:index] + current[index + 1:]
        if candidate and fails(candidate):
            current = candidate
        index -= 1
    return current


def shrink_case(case: FuzzCase, diverged_labels: Sequence[str],
                max_rounds: int = 5,
                check: Callable[[FuzzCase], bool] | None = None,
                ) -> FuzzCase:
    """Minimize *case* while some originally-diverged label still
    diverges. *check* overrides the failure predicate (tests use it)."""
    labels = list(diverged_labels)

    def still_fails(candidate: FuzzCase) -> bool:
        if check is not None:
            return check(candidate)
        try:
            report = run_case(candidate, labels=labels)
        except Exception:  # noqa: BLE001 — a crashing probe is no repro
            return False
        return bool(report.diverged_labels() & set(labels))

    current = case
    for _ in range(max_rounds):
        before = current.size()

        if current.query.group_by is not None:
            plain = current.with_query(replace(current.query, group_by=None))
            if still_fails(plain):
                current = plain

        rows = ddmin(current.reads_rows,
                     lambda rows: still_fails(current.with_rows(rows)))
        if len(rows) < len(current.reads_rows):
            current = current.with_rows(rows)

        rules = _greedy_drop(
            current.rules,
            lambda rules: still_fails(current.with_rules(rules)))
        if len(rules) < len(current.rules):
            current = current.with_rules(rules)

        query = current.query
        conjuncts = _greedy_drop(
            query.conjuncts,
            lambda kept: still_fails(current.with_query(
                replace(query, conjuncts=list(kept)))))
        # Unlike rows/rules, an empty conjunct list is a legal query.
        if conjuncts and still_fails(current.with_query(
                replace(query, conjuncts=[]))):
            conjuncts = []
        if len(conjuncts) < len(query.conjuncts):
            current = current.with_query(
                replace(query, conjuncts=list(conjuncts)))

        query = current.query
        dimensions = _greedy_drop(
            query.dimensions,
            lambda kept: still_fails(current.with_query(
                replace(query, dimensions=list(kept)))))
        if dimensions and still_fails(
                current.with_query(replace(query, dimensions=[]))):
            dimensions = []
        if len(dimensions) < len(query.dimensions):
            current = current.with_query(
                replace(query, dimensions=list(dimensions)))

        if current.size() == before:
            break
    return current
