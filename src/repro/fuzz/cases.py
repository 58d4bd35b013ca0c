"""Case model for the differential rewrite-equivalence fuzzer.

A :class:`FuzzCase` is one self-contained (dataset, rules, query)
triple: the raw reads-table rows, the SQL-TS cleansing rule texts, and
a structured :class:`QuerySpec` the oracle renders to SQL against any
table name (the eager path queries the materialized cleansed copy).

Everything is plain data — lists of tuples and strings — so cases
serialize losslessly into regression files via ``repr`` and shrink by
simple list surgery (drop rows, drop rules, drop conjuncts, drop
dimension joins) without touching the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["READS_COLUMNS", "DimensionSpec", "QuerySpec", "FuzzCase"]

#: The reads-table column order of Figure 2 (matches ``datagen``).
READS_COLUMNS = ("epc", "rtime", "reader", "biz_loc", "biz_step")

#: Fact-table alias used in every generated query.
FACT_ALIAS = "c"


@dataclass
class DimensionSpec:
    """One dimension join edge of a fuzzed query, with its table data.

    Carrying the dimension rows and schema inside the spec keeps shrunk
    regression files fully self-contained: replaying a case never needs
    the original generated dataset.
    """

    #: Dimension table name ("locs", "steps", ...).
    name: str
    #: Alias used in the rendered SQL.
    alias: str
    #: Reads-table join column.
    fact_key: str
    #: Dimension-side join column.
    dim_key: str
    #: Optional local predicate over ``alias`` (SQL text), e.g.
    #: ``"l.site = 'store 1'"``.
    predicate: str | None
    #: The dimension table's rows.
    rows: list[tuple] = field(default_factory=list)
    #: ``(column, sql_type_value)`` pairs; type values are the
    #: :class:`~repro.minidb.types.SqlType` enum values ("varchar", ...).
    schema: tuple[tuple[str, str], ...] = ()

    def join_conjuncts(self) -> list[str]:
        """The SQL conjuncts this dimension adds to the WHERE clause."""
        conjuncts = [f"{FACT_ALIAS}.{self.fact_key} = "
                     f"{self.alias}.{self.dim_key}"]
        if self.predicate:
            conjuncts.append(self.predicate)
        return conjuncts


@dataclass
class QuerySpec:
    """A fuzzed user query: selection conjuncts plus dimension joins,
    optionally grouped by one reads column."""

    #: SQL conjuncts over the fact alias (``c.rtime <= 1000``, ...).
    conjuncts: list[str] = field(default_factory=list)
    dimensions: list[DimensionSpec] = field(default_factory=list)
    #: A reads column to GROUP BY, or None for a plain selection.
    group_by: str | None = None

    def sql(self, table: str = "caser") -> str:
        """Render to a SELECT over *table*: all reads columns, or with
        ``group_by`` that column and one of each aggregate."""
        if self.group_by is None:
            select = ", ".join(f"{FACT_ALIAS}.{column}"
                               for column in READS_COLUMNS)
        else:
            select = (f"{FACT_ALIAS}.{self.group_by}, count(*), "
                      f"count(distinct {FACT_ALIAS}.reader), "
                      + ", ".join(f"{name}({FACT_ALIAS}.rtime)"
                                  for name in ("min", "max", "sum", "avg")))
        from_refs = [f"{table} {FACT_ALIAS}"]
        where: list[str] = list(self.conjuncts)
        for dimension in self.dimensions:
            from_refs.append(f"{dimension.name} {dimension.alias}")
            where.extend(dimension.join_conjuncts())
        text = f"select {select} from {', '.join(from_refs)}"
        if where:
            text += " where " + " and ".join(where)
        if self.group_by is not None:
            text += f" group by {FACT_ALIAS}.{self.group_by}"
        return text


@dataclass
class FuzzCase:
    """One (dataset, rules, query) triple under differential test."""

    #: Fuzz-run seed and iteration index the case was drawn at (for the
    #: regression-file audit trail; replay needs neither).
    seed: int
    iteration: int
    #: Reads-table rows in :data:`READS_COLUMNS` order.
    reads_rows: list[tuple] = field(default_factory=list)
    #: SQL-TS rule definitions, in application (creation) order.
    rules: list[str] = field(default_factory=list)
    query: QuerySpec = field(default_factory=QuerySpec)

    def with_rows(self, rows: list[tuple]) -> "FuzzCase":
        return replace(self, reads_rows=list(rows))

    def with_rules(self, rules: list[str]) -> "FuzzCase":
        return replace(self, rules=list(rules))

    def with_query(self, query: QuerySpec) -> "FuzzCase":
        return replace(self, query=query)

    def size(self) -> tuple[int, int, int]:
        """(rows, rules, query conjuncts) — the shrinker's progress."""
        return (len(self.reads_rows), len(self.rules),
                len(self.query.conjuncts))

    def describe(self) -> str:
        rows, rules, conjuncts = self.size()
        grouped = ("" if self.query.group_by is None
                   else f", group by {self.query.group_by}")
        return (f"case(seed={self.seed}, iter={self.iteration}: "
                f"{rows} rows, {rules} rules, {conjuncts} conjuncts, "
                f"{len(self.query.dimensions)} dims{grouped})")
