"""Auto-generated fuzz regression (do not edit by hand).

Found by: python -m repro.fuzz --seed 2 (iteration 4)
Diverged: cached-cold, cached-warm, chosen, disk, eager, expanded, incremental, joinback, plan-cache, reference, served
Shrunk to 2 rows / 1 rules / 0 query conjuncts.

Reproduce interactively:

    from repro.fuzz.oracle import run_case
    import test_shrunk_seed2_iter4 as m
    print(run_case(m._case()).summary())
"""

from repro.fuzz.cases import DimensionSpec, FuzzCase, QuerySpec
from repro.fuzz.oracle import run_case

READS_ROWS = [
    ('urn:epc:id:sgtin:c.0000000000000000000000000000000', 978387109, 'reader_0001_001', '0000010000010', 'step_004'),
    ('urn:epc:id:sgtin:c.0000000000000000000000000000000', 978387293, 'reader_0001_001', '0000010000010', 'step_004'),
]

RULES = [
    'DEFINE fuzz_rule_0 ON caser CLUSTER BY epc SEQUENCE BY rtime\nAS (A, *B)\nWHERE b.rtime - a.rtime < 1200\nACTION DELETE A',
]

QUERY = QuerySpec(
    conjuncts=[],
    dimensions=[
    ],
)


def _case() -> FuzzCase:
    return FuzzCase(seed=2, iteration=4,
                    reads_rows=list(READS_ROWS), rules=list(RULES),
                    query=QUERY)


def test_shrunk_seed2_iter4() -> None:
    report = run_case(_case())
    assert report.ok, report.summary()
