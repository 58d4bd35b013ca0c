"""Delta-debugging shrinker unit tests (engine-free predicates)."""

from __future__ import annotations

from dataclasses import replace

from repro.fuzz.cases import FuzzCase, QuerySpec
from repro.fuzz.shrink import ddmin, shrink_case


def test_ddmin_finds_minimal_pair() -> None:
    items = list(range(10))
    result = ddmin(items, lambda kept: {3, 7} <= set(kept))
    assert result == [3, 7]


def test_ddmin_single_culprit() -> None:
    result = ddmin(list(range(8)), lambda kept: 5 in kept)
    assert result == [5]


def test_ddmin_empty_when_failure_is_unconditional() -> None:
    assert ddmin([1, 2, 3], lambda kept: True) == []


def test_ddmin_keeps_everything_when_all_needed() -> None:
    items = [1, 2, 3, 4]
    result = ddmin(items, lambda kept: kept == items)
    assert result == items


def test_ddmin_preserves_order() -> None:
    items = list(range(20))
    result = ddmin(items, lambda kept: {2, 11, 17} <= set(kept))
    assert result == [2, 11, 17]


def test_ddmin_probe_count_is_subquadratic() -> None:
    probes = []

    def fails(kept: list[int]) -> bool:
        probes.append(len(kept))
        return 42 in kept

    ddmin(list(range(64)), fails)
    # ddmin is O(n log n)-ish in the happy case; a linear scan of
    # singletons alone would already cost 64 probes.
    assert len(probes) < 200


def _case() -> FuzzCase:
    rows = [("E", index, "r", "L", "s") for index in range(12)]
    rules = ["rule_a", "rule_b", "rule_c"]
    query = QuerySpec(conjuncts=["c.rtime <= 5", "c.reader != 'r'",
                                 "c.epc = 'E'"])
    return FuzzCase(seed=0, iteration=0, reads_rows=rows, rules=rules,
                    query=query)


def test_shrink_case_minimizes_every_axis() -> None:
    # Failure requires: the row with rtime 7, rule_b, and any conjunct
    # mentioning rtime. Everything else must be stripped.
    def check(candidate: FuzzCase) -> bool:
        has_row = any(row[1] == 7 for row in candidate.reads_rows)
        has_rule = "rule_b" in candidate.rules
        has_conjunct = any("rtime" in conjunct
                           for conjunct in candidate.query.conjuncts)
        return has_row and has_rule and has_conjunct

    shrunk = shrink_case(_case(), ["expanded"], check=check)
    assert shrunk.size() == (1, 1, 1)
    assert shrunk.reads_rows == [("E", 7, "r", "L", "s")]
    assert shrunk.rules == ["rule_b"]
    assert shrunk.query.conjuncts == ["c.rtime <= 5"]


def test_shrink_case_drops_conjuncts_to_empty() -> None:
    # The failure does not depend on the query at all: conjuncts and
    # dimensions must both shrink to nothing (a legal empty query).
    def check(candidate: FuzzCase) -> bool:
        return any(row[1] == 3 for row in candidate.reads_rows) \
            and bool(candidate.rules)

    shrunk = shrink_case(_case(), ["joinback"], check=check)
    assert shrunk.size() == (1, 1, 0)
    assert shrunk.query.conjuncts == []


def test_shrink_case_fixpoint_runs_multiple_rounds() -> None:
    # Dropping the last conjunct unlocks further row removal: rows
    # matter only while a conjunct is present, so round 2 must re-shrink
    # rows after round 1 emptied the conjunct list... which ddmin can
    # only discover on the second pass.
    def check(candidate: FuzzCase) -> bool:
        if candidate.query.conjuncts:
            return len(candidate.reads_rows) >= 2 \
                and "rule_a" in candidate.rules
        return bool(candidate.reads_rows) \
            and "rule_a" in candidate.rules

    shrunk = shrink_case(_case(), ["expanded"], check=check)
    assert shrunk.size() == (1, 1, 0)


def test_shrink_case_preserves_failure(tmp_path) -> None:
    # The returned case must still satisfy the predicate.
    def check(candidate: FuzzCase) -> bool:
        return any(row[1] in (2, 9) for row in candidate.reads_rows)

    case = _case()
    shrunk = shrink_case(case, ["reference"], check=check)
    assert check(shrunk)
    assert len(shrunk.reads_rows) == 1


def test_with_helpers_do_not_mutate() -> None:
    case = _case()
    case.with_rows([])
    case.with_rules([])
    case.with_query(replace(case.query, conjuncts=[]))
    assert case.size() == (12, 3, 3)
