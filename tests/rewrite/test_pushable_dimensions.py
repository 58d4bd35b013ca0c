"""The literal-free verdict on pushing a dimension below cleansing.

The rewrite engine used to decide whether a dimension's
``K IN (SELECT ...)`` restriction can travel below cleansing by
re-running the whole Figure 4 analysis with that conjunct added, once
per dimension, and checking that every context reference received it.
:func:`key_propagates` answers the same question from per-rule facts.
The re-analysis is kept here as the reference, and both must agree on
every ordered subset of the five standard rules and on generated rules.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from repro.fuzz.datasets import random_profile
from repro.fuzz.rules import random_rules
from repro.minidb.expressions import InSubquery
from repro.minidb.sqlparse import parse_expression
from repro.minidb.sqlparse.ast import TableName
from repro.rewrite.context import DimensionJoin
from repro.rewrite.expanded import analyze_expanded, key_propagates
from repro.sqlts import parse_rule
from repro.workloads.rules import STANDARD_RULE_ORDER, rule_texts

READS_COLUMNS = {"epc", "rtime", "reader", "biz_loc", "biz_step"}
FACT_KEYS = ("epc", "biz_loc", "biz_step", "reader")

#: The engine asks only when the expanded analysis is feasible; a range
#: on the sequence key makes it feasible for most chains.
CONDITION = ("rtime >= 100000", "rtime <= 200000")


def _reference_verdict(rules, fact_key) -> bool | None:
    """Today's re-analysis with the IN conjunct added; None when the
    analysis is infeasible, where the engine never asks."""
    dimension = DimensionJoin(fact_key=fact_key, table=TableName("dim"),
                              dim_key="k")
    conjunct = dimension.in_conjunct()
    s_conjuncts = [parse_expression(text) for text in CONDITION]
    probe = analyze_expanded(rules, s_conjuncts + [conjunct], READS_COLUMNS)
    if not probe.feasible:
        return None
    for rule_analysis in probe.per_rule:
        for conjuncts in rule_analysis.context_conditions.values():
            if not any(isinstance(candidate, InSubquery)
                       and candidate.operand == conjunct.operand
                       for candidate in conjuncts):
                return False
    return True


def _check(rules) -> int:
    """Compare verdicts on one rule chain; returns how many were asked."""
    asked = 0
    for fact_key in FACT_KEYS:
        expected = _reference_verdict(rules, fact_key)
        if expected is not None:
            asked += 1
            assert key_propagates(rules, fact_key) == expected, \
                (fact_key, [rule.name for rule in rules])
    return asked


@pytest.fixture(scope="module")
def standard_units(clean_bench) -> dict[str, list]:
    """Each standard rule, parsed; the missing rule is two sub-rules that
    always apply together."""
    return {name: [parse_rule(text) for text in texts]
            for name, texts in rule_texts(clean_bench.data).items()}


def test_every_ordered_subset_of_the_standard_rules(standard_units):
    asked = 0
    verdicts = set()
    for size in range(1, len(STANDARD_RULE_ORDER) + 1):
        for order in permutations(STANDARD_RULE_ORDER, size):
            rules = [rule for name in order for rule in standard_units[name]]
            asked += _check(rules)
            verdicts.update(key_propagates(rules, key) for key in FACT_KEYS)
    assert asked > 0
    assert verdicts == {True, False}


def test_generated_rule_chains():
    rng = random.Random(29)
    asked = 0
    for _ in range(6):
        profile = random_profile(rng)
        for _ in range(25):
            asked += _check([parse_rule(text)
                             for text in random_rules(rng, profile)])
    assert asked > 100


#: Set references keep every atom of their conjunctive group, so an
#: equality on a non-key column carries it to them; a MODIFY of that
#: column still blocks it. Neither the standard nor the generated rules
#: have this shape.
HAND_WRITTEN = [
    ("""DEFINE carry ON caser CLUSTER BY epc SEQUENCE BY rtime
        AS (A, *B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 600
        ACTION DELETE A""", {"epc": True, "biz_loc": True}),
    ("""DEFINE carry_modified ON caser CLUSTER BY epc SEQUENCE BY rtime
        AS (A, *B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 600
        ACTION MODIFY A.biz_loc = 'elsewhere'""",
     {"epc": True, "biz_loc": False}),
    ("""DEFINE position_based ON caser CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 600
        ACTION DELETE B""", {"epc": True, "biz_loc": False}),
]


@pytest.mark.parametrize("text, expected", HAND_WRITTEN)
def test_hand_written_rules(text, expected):
    rules = [parse_rule(text)]
    assert _check(rules) == len(FACT_KEYS)
    for fact_key, verdict in expected.items():
        assert key_propagates(rules, fact_key) is verdict

