"""Golden pins for the rewrite engine's choices on the paper's statements.

A speed change to the rewrite engine, the planner or the executor must
leave every statement's decision exactly where it was: the chosen
strategy, the full-precision cost of every candidate, the EXPLAIN text
of every candidate plan, and the answer rows in order. This test pins
all four at a small fixed seed and scale.

The database is always built with ``storage="memory"``, so the disk CI
legs (``REPRO_STORAGE=disk``) compute the same values. To re-pin after a
deliberate plan change, print :func:`_fingerprints` and paste it below.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.datagen import GeneratorConfig
from repro.datagen.generator import RFIDGen
from repro.datagen.loader import load_into_database
from repro.minidb import Database
from repro.minidb.vector import materialize
from repro.rewrite import DeferredCleansingEngine
from repro.workloads import (
    make_registry,
    q1_sql,
    q2_prime_sql,
    q2_sql,
    timestamp_for_fraction_above,
    timestamp_for_fraction_below,
)
from repro.workloads.rules import STANDARD_RULE_ORDER

CONFIG = GeneratorConfig(scale=8, seed=29, anomaly_percent=10.0,
                         stores=10, warehouses=5, distribution_centers=3,
                         locations_per_site=10, products=50,
                         manufacturers=10, min_cases_per_pallet=4,
                         max_cases_per_pallet=12)

TRACE = """
select c.rtime, l.loc_desc, s.type
from caser c, locs l, steps s
where c.epc = '{epc}' and c.biz_loc = l.gln
  and c.biz_step = s.biz_step
"""


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _busiest(data, since: int, column: int, rows, key: int) -> str:
    """The dimension value with most case reads at or after *since*
    (the paper's fixed site is empty in most windows at this scale)."""
    value_of = {row[0]: row[key] for row in rows}
    counts = Counter(value_of[row[column]] for row in data.case_reads
                     if row[1] >= since)
    return max(sorted(counts), key=counts.__getitem__)


def _statements(data) -> list[tuple[str, tuple[str, ...], str]]:
    """(name, rule set, SQL) for every pinned statement."""
    rtimes = [row[1] for row in data.case_reads]
    below = lambda fraction: timestamp_for_fraction_below(rtimes, fraction)
    above = lambda fraction: timestamp_for_fraction_above(rtimes, fraction)
    rules_1_3 = ("reader", "duplicate", "replacing")
    epcs = sorted({row[0] for row in data.case_reads})
    site = lambda since: _busiest(data, since, 3, data.location_rows, 1)
    step_type = _busiest(data, above(0.10), 4, data.step_rows, 1)
    return [
        ("q1_10", rules_1_3, q1_sql(below(0.10))),
        ("q1_02", rules_1_3, q1_sql(below(0.02))),
        ("q2_40", rules_1_3, q2_sql(above(0.40), site(above(0.40)))),
        ("q2_10", rules_1_3, q2_sql(above(0.10), site(above(0.10)))),
        ("q2p_10", rules_1_3, q2_prime_sql(above(0.10), step_type)),
        ("q1_10_all5", STANDARD_RULE_ORDER, q1_sql(below(0.10))),
        ("q1_10_reader", ("reader",), q1_sql(below(0.10))),
        ("trace_first", rules_1_3, TRACE.format(epc=epcs[0])),
        ("trace_middle", rules_1_3, TRACE.format(epc=epcs[len(epcs) // 2])),
    ]


def _fingerprints() -> dict[str, tuple]:
    """Per statement: strategy, candidate cost reprs, EXPLAIN and row
    digests."""
    data = RFIDGen(CONFIG).generate()
    database = load_into_database(data, Database(storage="memory"))
    engines: dict[tuple[str, ...], DeferredCleansingEngine] = {}
    out: dict[str, tuple] = {}
    try:
        for name, rules, sql in _statements(data):
            engine = engines.get(rules)
            if engine is None:
                engine = DeferredCleansingEngine(
                    database, make_registry(None, data, rules))
                engines[rules] = engine
            result = engine.rewrite(sql)
            costs = {candidate.label: repr(candidate.cost)
                     for candidate in result.candidates}
            explain = _digest([candidate.physical.explain()
                               for candidate in result.candidates])
            rows = _digest(materialize(result.physical))
            out[name] = (result.strategy, costs, explain, rows)
    finally:
        database.shutdown()
    return out


GOLDEN: dict[str, tuple] = {
    'q1_02': ('expanded', {
        'expanded': '851.8',
        'joinback': '956.2096929238239',
        'naive': '22801.326799665716',
    }, '56a55d1760ae13fa', 'd68053668887157f'),
    'q1_10': ('expanded', {
        'expanded': '1283.5341668939866',
        'joinback': '1575.629229191073',
        'naive': '23015.97002883238',
    }, '5ef7f3a56040fc5d', '27ff079b0888fa45'),
    'q1_10_all5': ('joinback', {
        'joinback': '15848.658242829904',
        'naive': '63721.141000915864',
    }, 'f484698673ddca90', '51f6d7f79e8e679d'),
    'q1_10_reader': ('expanded', {
        'expanded': '1139.072429560583',
        'joinback': '1547.7840092890317',
        'naive': '20134.680445499045',
    }, '4d86b240370ac308', 'e1ce7efa4238bb5c'),
    'q2_10': ('expanded', {
        'expanded': '1079.9681425892577',
        'joinback': '1304.7688254265863',
        'joinback+1dims': '1690.7688254265863',
        'joinback+2dims': '1982.4688254265864',
        'naive': '22588.22069434164',
    }, '701c3af57b4051a8', '36960712673d34ed'),
    'q2_40': ('joinback', {
        'expanded': '6376.107806663206',
        'joinback': '5693.743638205727',
        'joinback+1dims': '6546.943638205727',
        'joinback+2dims': '7305.843638205727',
        'naive': '22881.153304295345',
    }, 'f6e522a7f3a6607e', 'ea5b6ba68ad1555a'),
    'q2p_10': ('expanded', {
        'expanded': '1247.9681425892577',
        'joinback': '1472.7688254265863',
        'joinback+1dims': '1454.1688254265864',
        'joinback+2dims': '1605.4688254265861',
        'naive': '22764.94914341571',
    }, 'a91d98965c199b94', 'c6690d0cf6c0bb38'),
    'trace_first': ('naive', {
        'naive': '875.2',
    }, '05c4b6773ce0afbd', '03cf8e13222b19dd'),
    'trace_middle': ('naive', {
        'naive': '875.2',
    }, '94d794fe0fe338fa', '7895733a55e481b3'),
}


@pytest.fixture(scope="module")
def fingerprints() -> dict[str, tuple]:
    return _fingerprints()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_statement_matches_golden(fingerprints, name):
    assert fingerprints[name] == GOLDEN[name]


def test_every_statement_is_pinned(fingerprints):
    assert sorted(fingerprints) == sorted(GOLDEN)
