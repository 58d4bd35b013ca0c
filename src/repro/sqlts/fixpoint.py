"""Fixpoint rule application — the paper's arbitrary-length-cycle
extension (§4.3: "A rule that removes cycles of arbitrary length is also
possible, but more involved").

One application of the cycle rule collapses each read flanked by two
equal-location neighbours; nested or long cycles like ``[X Y Z Y X]``
need repeated application until no row changes. This module evaluates a
rule (or rule list) to fixpoint by materializing intermediate results
into a private scratch table, with a configurable iteration bound. The
scratch table is never in the catalog and has no storage, so a disk
database logs nothing for it.

Fixpoint evaluation is an *eager-style* tool: it cannot be folded into
the single-pass deferred rewrites (each iteration changes the sequence
positions the next one sees), which is precisely why the paper calls the
general rule "more involved" and sticks to single-pass rules for
deferred cleansing.
"""

from __future__ import annotations

from repro.errors import RuleError
from repro.minidb.engine import Database
from repro.minidb.plan.logical import LogicalScan
from repro.minidb.result import ResultSet
from repro.minidb.table import private_table
from repro.sqlts.compiler import CompiledRule

__all__ = ["apply_to_fixpoint", "FixpointResult"]


class FixpointResult:
    """Outcome of a fixpoint evaluation."""

    def __init__(self, rows: list[tuple], columns: list[str],
                 iterations: int, converged: bool) -> None:
        self.result = ResultSet(columns, rows)
        self.iterations = iterations
        self.converged = converged


def apply_to_fixpoint(database: Database, rules: list[CompiledRule],
                      table_name: str, *, max_iterations: int = 32,
                      ) -> FixpointResult:
    """Apply *rules* repeatedly over *table_name* until stable.

    Each iteration applies the full rule list once (in order) to the
    previous iteration's output. Iteration stops when an application
    leaves the rows unchanged, or after *max_iterations* (``converged``
    is False then — possible for rules whose MODIFY actions oscillate).
    """
    if not rules:
        raise RuleError("fixpoint evaluation needs at least one rule")
    source = database.table(table_name)
    scratch = private_table(f"fixpoint {source.name}", source.schema)
    scratch.bulk_load(source.rows)
    database.stats.analyze(scratch)
    try:
        previous = list(scratch.rows)
        iterations = 0
        converged = False
        columns = list(source.schema.names)
        while iterations < max_iterations:
            plan = LogicalScan(scratch)
            for compiled in rules:
                plan = compiled.apply(plan)
            current = database.execute(plan).rows
            current = [row[:len(columns)] for row in current]
            iterations += 1
            if current == previous:
                converged = True
                break
            scratch.replace_rows(current)
            database.stats.analyze(scratch)
            previous = current
        return FixpointResult(previous, columns, iterations, converged)
    finally:
        database.stats.invalidate(scratch.name)
