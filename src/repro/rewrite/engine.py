"""The deferred-cleansing rewrite engine (architecture steps 3–5).

Intercepts user queries, determines whether any referenced table has
cleansing rules, enumerates the correct candidate rewrites —

* naive (cleanse all of R),
* expanded rewrites pushing 0..m derivable dimension restrictions before
  cleansing (when the Figure 4 analysis is feasible),
* join-back rewrites pushing 0..n dimension semi-joins into the
  relevant-sequence subquery (always applicable),

— compiles every candidate through the minidb planner, and executes the
one with the cheapest cost estimate, exactly mirroring the paper's
m+1 / n+1 statement-selection heuristic on DB2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import RewriteError
from repro.minidb.engine import Database, ExecutionMetrics
from repro.minidb.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    InSubquery,
    Literal,
    and_all,
    or_all,
)
from repro.minidb.plan.logical import (
    LogicalFilter,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)
from repro.minidb.plan.builder import build_plan
from repro.minidb.plan.physical import PhysicalNode
from repro.minidb.result import ResultSet
from repro.minidb.sqlparse import parse_select
from repro.minidb.sqlparse.ast import SelectStmt, TableName
from repro.minidb.vector import materialize
from repro.rewrite.cache import CacheOptions, CleansingRegionCache, RegionEntry
from repro.rewrite.context import QueryContext, extract_context
from repro.rewrite.expanded import (
    ExpandedAnalysis,
    analyze_expanded,
    key_propagates,
    modified_columns,
    stable_conjuncts,
)
from repro.rewrite.strategies import (
    expanded_subplan,
    joinback_subplan,
    naive_subplan,
    validate_rule_keys,
)
from repro.sqlts.registry import RuleRegistry

__all__ = ["DeferredCleansingEngine", "RewriteResult", "Candidate"]


@dataclass
class Candidate:
    """One candidate rewrite with its optimizer cost estimate."""

    label: str
    #: "naive" | "expanded" | "joinback" | "cached" | "passthrough"
    strategy: str
    logical: LogicalNode | None
    physical: PhysicalNode
    cost: float


@dataclass
class RewriteResult:
    """The engine's decision for one query."""

    strategy: str
    chosen: Candidate
    candidates: list[Candidate] = field(default_factory=list)
    analysis: ExpandedAnalysis | None = None
    context: QueryContext | None = None

    @property
    def physical(self) -> PhysicalNode:
        return self.chosen.physical

    def costs(self) -> dict[str, float]:
        return {candidate.label: candidate.cost
                for candidate in self.candidates}


class DeferredCleansingEngine:
    """Rewrites and executes queries over rule-governed tables."""

    def __init__(self, database: Database, registry: RuleRegistry,
                 cache: CacheOptions | None = None) -> None:
        self.database = database
        self.registry = registry
        #: Cleansed-region cache; None (the default) leaves rewrite
        #: behavior byte-identical to the uncached engine.
        self.region_cache = (CleansingRegionCache(database, cache)
                             if cache is not None and cache.enabled
                             else None)

    # ------------------------------------------------------------------

    def _referenced_tables(self, statement: SelectStmt) -> set[str]:
        names: set[str] = set()

        def visit(select: SelectStmt) -> None:
            for cte in select.ctes:
                visit(cte.select)
            from repro.minidb.sqlparse.ast import DerivedTable, JoinRef

            def walk_ref(ref) -> None:
                if isinstance(ref, TableName):
                    names.add(ref.name)
                elif isinstance(ref, DerivedTable):
                    visit(ref.select)
                elif isinstance(ref, JoinRef):
                    walk_ref(ref.left)
                    walk_ref(ref.right)

            for ref in select.from_refs:
                walk_ref(ref)
            if select.where is not None:
                for node in select.where.walk():
                    if isinstance(node, InSubquery):
                        visit(node.subquery)
            if select.set_op is not None:
                visit(select.set_op.right)

        visit(statement)
        return names

    # ------------------------------------------------------------------

    def rewrite(self, query: str | SelectStmt,
                strategies: set[str] | None = None) -> RewriteResult:
        """Produce the cheapest correct rewrite of *query*.

        ``strategies`` optionally restricts which families are considered
        (useful for the benchmark harness: ``{"naive"}``,
        ``{"expanded"}``, ``{"joinback"}``).
        """
        statement = parse_select(query) if isinstance(query, str) else query
        allowed = strategies or {"naive", "expanded", "joinback"}
        referenced = self._referenced_tables(statement)
        dirty = sorted(referenced & self.registry.tables_with_rules())
        if not dirty:
            return self._passthrough(statement)
        if len(dirty) > 1:
            return self._naive_only(statement, dirty)
        table_name = dirty[0]
        try:
            context = extract_context(statement, table_name, self.database)
        except RewriteError:
            return self._naive_only(statement, [table_name])
        rules = self.registry.rules_for(table_name)
        rule_list = [compiled.rule for compiled in rules]
        reads_columns = set(self.database.table(table_name).schema.names)
        analysis = analyze_expanded(rule_list, context.s_conjuncts,
                                    reads_columns)
        if self.region_cache is not None and analysis.feasible \
                and "expanded" in allowed:
            candidate = self._region_candidate(table_name, rules, context,
                                               analysis)
            if candidate is not None:
                return RewriteResult(strategy="cached", chosen=candidate,
                                     candidates=[candidate],
                                     analysis=analysis, context=context)
        candidates: list[Candidate] = []
        if "naive" in allowed:
            subplan = naive_subplan(self.database, self.registry, rules,
                                    table_name)
            candidates.append(self._cost_candidate(
                "naive", "naive", context, subplan,
                kept_s=context.s_original))
        if analysis.feasible and "expanded" in allowed:
            # Dimensions whose IN-restriction is derivable on every
            # context reference of every rule (§5.2 join-query support).
            pushable = [dimension for dimension in context.dimensions
                        if key_propagates(rule_list, dimension.fact_key)]
            kept = self._residual_originals(context, analysis)
            for count in range(len(pushable) + 1):
                label = "expanded" if count == 0 \
                    else f"expanded+{count}dims"
                subplan = expanded_subplan(
                    self.database, self.registry, rules, table_name,
                    analysis.ec_conjuncts, pushable[:count])
                candidates.append(self._cost_candidate(
                    label, "expanded", context, subplan, kept_s=kept))
        if "joinback" in allowed:
            ec = analysis.ec_conjuncts if analysis.feasible else None
            kept = (self._residual_originals(context, analysis)
                    if analysis.feasible else context.s_original)
            # Conjuncts (and dimension joins) over MODIFY-ed columns must
            # not restrict the relevant-sequence list: membership can
            # change under modification.
            modified = modified_columns(rule_list)
            stable_s = stable_conjuncts(context.s_conjuncts, modified)
            stable_dims = [dimension for dimension in context.dimensions
                           if dimension.fact_key not in modified]
            for count in range(len(stable_dims) + 1):
                label = "joinback" if count == 0 \
                    else f"joinback+{count}dims"
                subplan = joinback_subplan(
                    self.database, self.registry, rules, table_name,
                    stable_s, ec, stable_dims[:count])
                candidates.append(self._cost_candidate(
                    label, "joinback", context, subplan, kept_s=kept))
        if not candidates:
            raise RewriteError(
                f"no candidate for strategies {sorted(allowed)}: naive and "
                "joinback are excluded, and the expanded rewrite is "
                "excluded or infeasible for this query")
        chosen = min(candidates, key=lambda candidate: candidate.cost)
        return RewriteResult(strategy=chosen.strategy, chosen=chosen,
                             candidates=candidates, analysis=analysis,
                             context=context)

    # ------------------------------------------------------------------

    def execute(self, query: str | SelectStmt,
                strategies: set[str] | None = None) -> ResultSet:
        """Rewrite and run *query*, returning cleansed results."""
        result = self.rewrite(query, strategies)
        plan = result.physical
        rows = materialize(plan)
        return ResultSet([f.name for f in plan.schema], rows)

    def execute_with_metrics(
            self, query: str | SelectStmt,
            strategies: set[str] | None = None,
    ) -> tuple[ResultSet, ExecutionMetrics, RewriteResult]:
        cache = self.region_cache
        patches = cache.patches if cache is not None else 0
        recleaned = cache.sequences_recleaned if cache is not None else 0
        epochs = cache.delta_epochs_applied if cache is not None else 0
        result = self.rewrite(query, strategies)
        plan = result.physical
        rows = materialize(plan)
        metrics = ExecutionMetrics.from_plan(plan)
        if cache is not None:
            metrics.cache_patches = cache.patches - patches
            metrics.sequences_recleaned = \
                cache.sequences_recleaned - recleaned
            metrics.delta_epochs_applied = \
                cache.delta_epochs_applied - epochs
        return (ResultSet([f.name for f in plan.schema], rows), metrics,
                result)

    # ------------------------------------------------------------------

    def _passthrough(self, statement: SelectStmt) -> RewriteResult:
        physical = self.database.plan(statement)
        candidate = Candidate("passthrough", "passthrough",
                              logical=None, physical=physical,
                              cost=physical.estimated_cost)
        return RewriteResult(strategy="passthrough", chosen=candidate,
                             candidates=[candidate])

    def _naive_only(self, statement: SelectStmt,
                    dirty_tables: list[str]) -> RewriteResult:
        table_plans = {}
        for table_name in dirty_tables:
            rules = self.registry.rules_for(table_name)
            table_plans[table_name] = naive_subplan(
                self.database, self.registry, rules, table_name)
        logical = build_plan(statement, self.database.catalog,
                             table_plans=table_plans)
        physical = self.database.plan(logical)
        candidate = Candidate("naive", "naive", logical, physical,
                              physical.estimated_cost)
        return RewriteResult(strategy="naive", chosen=candidate,
                             candidates=[candidate])

    def _region_candidate(self, table_name: str, rules,
                          context: QueryContext,
                          analysis: ExpandedAnalysis) -> Candidate | None:
        """Serve the query from a cached cleansed region.

        On a subsumption hit the sort + window pass is skipped entirely:
        the candidate scans the materialized region, filters it by the
        *stable* query conjuncts (plain ones over columns no rule
        modifies — the region holds post-cleansing rows, where stable
        columns still carry their original values, so these conjuncts
        prune exactly; unstable ones are simply not pushed), and
        re-applies the full original condition in the outer statement.
        On a miss the expanded region is materialized once and then
        served the same way; None means the region did not fit the
        cache budget and the normal candidate race should run.

        A region whose source table has only *appended* rows since
        materialization is patched rather than re-materialized: the
        lookup hands the cache a patcher that re-cleanses just the dirty
        cluster-key sequences (see ``CleansingRegionCache._patch``).
        """
        cache = self.region_cache
        table = self.database.table(table_name)
        rule_key = tuple(compiled.name for compiled in rules)
        cluster_key, _ = validate_rule_keys(rules)
        modified = modified_columns([compiled.rule for compiled in rules])
        label = "cached"
        entry = cache.lookup(table, rule_key, analysis.ec_conjuncts,
                             patcher=self._region_patcher(table_name, rules))
        if entry is None:
            subplan = expanded_subplan(self.database, self.registry, rules,
                                       table_name, analysis.ec_conjuncts)
            rows = materialize(self.database.plan(subplan))
            entry = cache.store(
                table, rule_key, analysis.ec_conjuncts, rows,
                cluster_key=cluster_key,
                cluster_key_modified=cluster_key in modified)
            if entry is None:
                return None
            label = "cached-cold"
        stable = stable_conjuncts(context.s_conjuncts, modified,
                                  subqueries=False)
        region: LogicalNode = LogicalScan(entry.table)
        predicate = and_all(stable)
        if predicate is not None:
            region = LogicalFilter(region, predicate)
        region = LogicalProject(region, [(ColumnRef(name), name)
                                         for name in table.schema.names])
        return self._cost_candidate(label, "cached", context, region,
                                    kept_s=context.s_original)

    def _region_patcher(self, table_name: str, rules):
        """Build the dirty-sequence re-cleanser handed to the cache.

        The patcher recomputes the expanded subplan under the *entry's
        own* ec (not the current probe's, which may be narrower) with an
        extra OR-of-equalities restriction to the dirty cluster keys —
        the predicate is constant per sequence, so pushing it with the
        ec guards is sound.
        """

        def patch(entry: RegionEntry,
                  dirty_values: Sequence[object]) -> list[tuple]:
            predicate = or_all([
                BinaryOp("=", ColumnRef(entry.cluster_key), Literal(value))
                for value in dirty_values])
            subplan = expanded_subplan(
                self.database, self.registry, rules, table_name,
                list(entry.ec_conjuncts) + [predicate])
            return materialize(self.database.plan(subplan))

        return patch

    def _residual_originals(self, context: QueryContext,
                            analysis: ExpandedAnalysis) -> list[Expr]:
        """Map the analysis' residual (unqualified) back to the original
        qualified conjuncts of the statement's WHERE."""
        residual = list(analysis.residual)
        kept: list[Expr] = []
        for original, stripped in zip(context.s_original,
                                      context.s_conjuncts):
            if stripped in residual:
                kept.append(original)
        return kept

    def _cost_candidate(self, label: str, strategy: str,
                        context: QueryContext, subplan: LogicalNode,
                        kept_s: list[Expr]) -> Candidate:
        """Splice *subplan* into the query, plan it, record its cost.

        The target statement's WHERE is temporarily rewritten to the
        non-reads conjuncts plus the kept residual conjuncts (σ_s'),
        then restored.
        """
        target = context.target_statement
        saved_where = target.where
        try:
            target.where = and_all(context.other_conjuncts + kept_s)
            logical = build_plan(
                context.statement, self.database.catalog,
                table_plans={context.table_ref.name: subplan})
        finally:
            target.where = saved_where
        physical = self.database.plan(logical)
        return Candidate(label, strategy, logical, physical,
                         physical.estimated_cost)
