"""The rule registry — the system's persisted "rules table".

Architecture steps 1–2 of the paper (Figure 1): the rule engine accepts
extended SQL-TS rules, compiles each into a SQL/OLAP template, and
persists pattern/condition/action plus the template in a rules table for
the rewrite engine to use at query time.

The registry also holds named *rule input views*: a rule may be defined
``ON R`` but take its input ``FROM`` a derived table whose definition
includes R plus compensation data (the missing-read rule's union of case
reads and expected pallet reads, §4.3 Example 5). Views are stored as
SQL text and instantiated at rewrite time with the cleansed-so-far
stream substituted for R.
"""

from __future__ import annotations

from repro.errors import RuleError
from repro.minidb.engine import Database
from repro.minidb.schema import TableSchema
from repro.minidb.sqlparse import parse_select
from repro.minidb.sqlparse.ast import SelectStmt
from repro.minidb.types import SqlType
from repro.sqlts.compiler import CompiledRule, compile_rule
from repro.sqlts.model import CleansingRule
from repro.sqlts.parser import parse_rule

__all__ = ["RuleRegistry", "RULES_TABLE", "RULES_TABLE_SCHEMA"]

#: Name of the persisted rules table inside the host database.
RULES_TABLE = "_cleansing_rules"

RULES_TABLE_SCHEMA = TableSchema.of(
    ("rule_name", SqlType.VARCHAR),
    ("on_table", SqlType.VARCHAR),
    ("from_table", SqlType.VARCHAR),
    ("cluster_key", SqlType.VARCHAR),
    ("sequence_key", SqlType.VARCHAR),
    ("rule_text", SqlType.VARCHAR),
    ("sql_template", SqlType.VARCHAR),
    ("created_at", SqlType.INTEGER),
)


class RuleRegistry:
    """Compiles, orders, and persists cleansing rules per application.

    :attr:`version` moves on every ``define``, ``drop``, ``define_view``
    and ``clear``, so state derived from the rules (cached regions) can
    key on it even when a rule is redefined under its old name.
    """

    def __init__(self, database: Database | None = None) -> None:
        self._database = database
        self._rules: list[CompiledRule] = []
        self._views: dict[str, SelectStmt] = {}
        self._view_sql: dict[str, str] = {}
        self._counter = 0
        self.version = 0
        if database is not None and RULES_TABLE not in database.catalog:
            database.create_table(RULES_TABLE, RULES_TABLE_SCHEMA)

    # ------------------------------------------------------------------

    def define(self, rule: str | CleansingRule) -> CompiledRule:
        """Parse (if text), compile, order, and persist one rule."""
        if isinstance(rule, str):
            rule_text = rule
            parsed = parse_rule(rule)
        else:
            rule_text = ""
            parsed = rule
        if any(existing.name == parsed.name for existing in self._rules):
            raise RuleError(f"rule {parsed.name!r} is already defined")
        self._counter += 1
        parsed.created_at = self._counter
        compiled = compile_rule(parsed)
        self._rules.append(compiled)
        self.version += 1
        self._persist(parsed, rule_text, compiled)
        return compiled

    def define_view(self, name: str, sql: str) -> None:
        """Register a named rule-input view (derived FROM table)."""
        name = name.lower()
        statement = parse_select(sql)
        self._views[name] = statement
        self._view_sql[name] = sql
        self.version += 1

    def _persist(self, rule: CleansingRule, rule_text: str,
                 compiled: CompiledRule) -> None:
        if self._database is None:
            return
        template_columns = sorted(compiled.required_columns())
        self._database.table(RULES_TABLE).insert({
            "rule_name": rule.name,
            "on_table": rule.on_table,
            "from_table": rule.from_table,
            "cluster_key": rule.cluster_key,
            "sequence_key": rule.sequence_key,
            "rule_text": rule_text,
            "sql_template": compiled.sql_template(template_columns),
            "created_at": rule.created_at,
        })

    # ------------------------------------------------------------------

    def drop(self, name: str) -> None:
        name = name.lower()
        before = len(self._rules)
        self._rules = [rule for rule in self._rules if rule.name != name]
        if len(self._rules) == before:
            raise RuleError(f"no rule named {name!r}")
        self.version += 1

    def clear(self) -> None:
        self._rules.clear()
        self.version += 1

    def __len__(self) -> int:
        return len(self._rules)

    def rule(self, name: str) -> CompiledRule:
        name = name.lower()
        for compiled in self._rules:
            if compiled.name == name:
                return compiled
        raise RuleError(f"no rule named {name!r}")

    def rules_for(self, table_name: str) -> list[CompiledRule]:
        """Rules defined ON *table_name*, in creation order (§4.4)."""
        table_name = table_name.lower()
        ordered = [compiled for compiled in self._rules
                   if compiled.rule.on_table == table_name]
        ordered.sort(key=lambda compiled: compiled.rule.created_at)
        return ordered

    def view(self, name: str) -> SelectStmt | None:
        return self._views.get(name.lower())

    def view_sql(self, name: str) -> str | None:
        return self._view_sql.get(name.lower())

    def tables_with_rules(self) -> set[str]:
        return {compiled.rule.on_table for compiled in self._rules}
