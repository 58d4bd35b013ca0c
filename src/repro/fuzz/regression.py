"""Shrunk-divergence regression files.

Every shrunk reproducing case is written as a self-contained pytest
module under ``tests/fuzz/regressions/``: the reads rows, rule texts,
and query spec are embedded as literals, and the test simply re-runs
the differential oracle and asserts agreement. Checking the file in
pins the fix forever; deleting it is the only way to un-pin.
"""

from __future__ import annotations

from pathlib import Path

from repro.fuzz.cases import FuzzCase
from repro.fuzz.oracle import OracleReport

__all__ = ["default_regression_dir", "write_regression"]

_TEMPLATE = '''"""Auto-generated fuzz regression (do not edit by hand).

Found by: python -m repro.fuzz --seed {seed} (iteration {iteration})
Diverged: {labels}
Shrunk to {rows} rows / {rules} rules / {conjuncts} query conjuncts.

Reproduce interactively:

    from repro.fuzz.oracle import run_case
    import {module_name} as m
    print(run_case(m._case()).summary())
"""

from repro.fuzz.cases import DimensionSpec, FuzzCase, QuerySpec
from repro.fuzz.oracle import run_case

READS_ROWS = {reads_rows}

RULES = {rules_literal}

QUERY = QuerySpec(
    conjuncts={conjuncts_literal},
    dimensions=[
{dimensions_literal}    ],
    group_by={group_by!r},
)


def _case() -> FuzzCase:
    return FuzzCase(seed={seed}, iteration={iteration},
                    reads_rows=list(READS_ROWS), rules=list(RULES),
                    query=QUERY)


def test_{test_name}() -> None:
    report = run_case(_case())
    assert report.ok, report.summary()
'''


def default_regression_dir() -> Path:
    """``tests/fuzz/regressions`` next to the repo's test tree when it
    exists, else the current working directory's ``fuzz-regressions``."""
    repo_dir = Path(__file__).resolve().parents[3] / "tests" / "fuzz" \
        / "regressions"
    if repo_dir.parent.is_dir():
        return repo_dir
    return Path.cwd() / "fuzz-regressions"


def _dimension_literal(dimension) -> str:
    return (f"        DimensionSpec(name={dimension.name!r}, "
            f"alias={dimension.alias!r},\n"
            f"                      fact_key={dimension.fact_key!r}, "
            f"dim_key={dimension.dim_key!r},\n"
            f"                      predicate={dimension.predicate!r},\n"
            f"                      rows={dimension.rows!r},\n"
            f"                      schema={tuple(dimension.schema)!r}),\n")


def write_regression(case: FuzzCase, report: OracleReport,
                     directory: Path | None = None) -> Path:
    """Write *case* as a pytest regression module; returns its path."""
    directory = directory or default_regression_dir()
    directory.mkdir(parents=True, exist_ok=True)
    test_name = f"shrunk_seed{case.seed}_iter{case.iteration}"
    path = directory / f"test_{test_name}.py"
    rows_literal = "[\n" + "".join(
        f"    {row!r},\n" for row in case.reads_rows) + "]"
    rules_literal = "[\n" + "".join(
        f"    {text!r},\n" for text in case.rules) + "]"
    dimensions_literal = "".join(
        _dimension_literal(dimension)
        for dimension in case.query.dimensions)
    path.write_text(_TEMPLATE.format(
        seed=case.seed,
        iteration=case.iteration,
        labels=", ".join(sorted(report.diverged_labels())) or "unknown",
        rows=len(case.reads_rows),
        rules=len(case.rules),
        conjuncts=len(case.query.conjuncts),
        module_name=f"test_{test_name}",
        reads_rows=rows_literal,
        rules_literal=rules_literal,
        conjuncts_literal=repr(case.query.conjuncts),
        dimensions_literal=dimensions_literal,
        group_by=case.query.group_by,
        test_name=test_name,
    ))
    return path
