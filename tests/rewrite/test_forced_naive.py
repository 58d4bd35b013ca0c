"""Naive planned alone: where the engine skips the candidate race.

When every s-conjunct restricts only the cluster key, no rule MODIFYs
that key, and no dimension join-back could push carries a predicate,
the engine plans Q_n alone (DESIGN.md §6). The planner pushes a
cluster-key conjunct below the OLAP functions, so Q_n already cleanses
just the sequences the query names; Q_e and Q_j read those sequences
too and add work. Answers cannot change, since naive is the definition
Q(Φ_C(R)); only the choice could. The property pins that, wherever the
rule fires, the race it skips would also have picked naive.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.common import ExperimentSettings, workbench_for
from repro.fuzz import reference
from repro.fuzz.cases import FuzzCase, QuerySpec
from repro.fuzz.oracle import build_database
from repro.fuzz.runner import generate_case
from repro.minidb.engine import Database, ExecutionMetrics
from repro.minidb.vector import materialize
from repro.rewrite import DeferredCleansingEngine, engine as engine_module

_KEY_SHAPES = ("none", "equal", "in")


def _forced_query(rng: random.Random, case: FuzzCase,
                  shape: str) -> QuerySpec:
    """The case's query with its reads conjuncts replaced by a cluster-key
    lookup and its dimension predicates dropped."""
    epcs = sorted({row[0] for row in case.reads_rows}) or ["no such epc"]
    if shape == "equal":
        conjuncts = [f"c.epc = '{rng.choice(epcs)}'"]
    elif shape == "in":
        picked = rng.sample(epcs, min(len(epcs), rng.randint(1, 3)))
        conjuncts = ["c.epc in ({})".format(
            ", ".join(f"'{epc}'" for epc in picked))]
    else:
        conjuncts = []
    return replace(case.query, conjuncts=conjuncts,
                   dimensions=[replace(dimension, predicate=None)
                               for dimension in case.query.dimensions])


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(_KEY_SHAPES))
def test_naive_wins_wherever_the_race_is_skipped(seed, shape):
    rng = random.Random(seed)
    case = generate_case(rng, seed, 0)
    case = case.with_query(_forced_query(rng, case, shape))
    sql = case.query.sql("caser")
    database, registry = build_database(case)
    try:
        engine = DeferredCleansingEngine(database, registry)
        result = engine.rewrite(sql)
        assert [candidate.label for candidate in result.candidates] \
            == ["naive"]
        assert result.analysis is None and result.context is not None
        race = engine.rewrite(sql, {"expanded", "joinback"})
        assert result.chosen.cost <= min(candidate.cost
                                         for candidate in race.candidates)
        assert Counter(materialize(result.physical)) \
            == Counter(reference.cleansed(engine, sql))
    finally:
        database.shutdown()


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------

TRACE = """
select c.rtime, l.loc_desc, s.type
from caser c, locs l, steps s
where c.epc = '{epc}' and c.biz_loc = l.gln
  and c.biz_step = s.biz_step
"""


#: Case 298 of a 3 000-case scan at master seed 7 that replaced each
#: query's reads conjuncts by ``c.epc = X`` and kept its dimension
#: predicates. Naive lost 7 of those races, each to a ``joinback+1dims``
#: candidate; this is one of them.
WITNESS_INDEX = 298


def test_a_dimension_predicate_still_races():
    """A cluster-key s plus a pushable ``steps`` predicate: the pushed
    sequence list is estimated cheaper than naive, so the race runs
    and ``joinback+1dims`` wins it."""
    master = random.Random(7)
    for _ in range(WITNESS_INDEX):
        master.getrandbits(64)
    rng = random.Random(master.getrandbits(64))
    case = generate_case(rng, 7, WITNESS_INDEX)
    epc = rng.choice(sorted({row[0] for row in case.reads_rows}))
    case = case.with_query(replace(case.query,
                                   conjuncts=[f"c.epc = '{epc}'"]))
    sql = case.query.sql("caser")
    database, registry = build_database(case)
    try:
        engine = DeferredCleansingEngine(database, registry)
        result = engine.rewrite(sql)
        assert result.chosen.label == "joinback+1dims"
        assert result.costs()["naive"] > result.chosen.cost
        assert Counter(materialize(result.physical)) \
            == Counter(reference.cleansed(engine, sql))
    finally:
        database.shutdown()


def test_view_input_rule_trace_plans_naive_alone():
    """All five standard rules (``missing`` reads a view) on the trace
    query: naive alone. Every skipped candidate gives the same answer
    and produces at least as many rows on the way.

    Costs are not compared here. The join-back semi-join over the view's
    union is estimated to drop rows that its own sequence list keeps,
    so the race would rank plain join-back up to 1.6 % below naive
    while it does more work (DESIGN.md §6)."""
    bench = workbench_for(ExperimentSettings(scale=1))
    epc = sorted({row[0] for row in bench.data.case_reads})[0]
    sql = TRACE.format(epc=epc)
    result = bench.engine.rewrite(sql)
    assert [candidate.label for candidate in result.candidates] == ["naive"]
    rows = materialize(result.physical)
    assert rows
    work = ExecutionMetrics.from_plan(result.physical).rows_emitted
    race = bench.engine.rewrite(sql, {"expanded", "joinback"})
    for candidate in race.candidates:
        assert Counter(materialize(candidate.physical)) == Counter(rows)
        assert ExecutionMetrics.from_plan(
            candidate.physical).rows_emitted >= work, candidate.label


def test_forced_rewrite_skips_the_analysis_and_plans_once(monkeypatch):
    bench = workbench_for(ExperimentSettings(scale=1))
    epc = sorted({row[0] for row in bench.data.case_reads})[0]
    calls = Counter()
    analyze = engine_module.analyze_expanded
    plan = Database.plan

    def counting_analyze(*args, **kwargs):
        calls["analyze_expanded"] += 1
        return analyze(*args, **kwargs)

    def counting_plan(self, *args, **kwargs):
        calls["plan"] += 1
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(engine_module, "analyze_expanded", counting_analyze)
    monkeypatch.setattr(Database, "plan", counting_plan)
    result = bench.engine.rewrite(TRACE.format(epc=epc))
    assert result.strategy == "naive"
    assert calls == {"plan": 1}
