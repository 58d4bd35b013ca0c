"""Rewritten-query SQL (architecture step 5).

The paper's rewrite engine hands the DBMS a SQL statement. Here that
statement is the plan the engine chose, printed by
:func:`repro.minidb.plan.printer.plan_sql`: every candidate the engine
can pick, dimension pushdowns and the naive-only plan included, has its
text, and executing the text returns the engine's rows.
"""

from __future__ import annotations

from repro.errors import RewriteError
from repro.minidb.engine import Database
from repro.minidb.plan.printer import plan_sql
from repro.minidb.sqlparse import parse_select
from repro.minidb.sqlparse.ast import SelectStmt
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry

__all__ = ["rewritten_sql"]


def rewritten_sql(database: Database, registry: RuleRegistry,
                  query: str | SelectStmt,
                  strategy: str = "expanded") -> str:
    """The SQL text of the engine's cheapest *strategy* rewrite of *query*.

    Strategies: "naive", "expanded" (raises when infeasible), or
    "joinback". A query over no rule-governed table is its own text.
    """
    if strategy not in ("naive", "expanded", "joinback"):
        raise RewriteError(f"unknown strategy {strategy!r}")
    statement = parse_select(query) if isinstance(query, str) else query
    engine = DeferredCleansingEngine(database, registry)
    chosen = engine.rewrite(statement, {strategy}).chosen
    if chosen.logical is None:
        return statement.to_sql()
    return plan_sql(chosen.logical)
