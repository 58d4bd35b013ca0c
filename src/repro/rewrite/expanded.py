"""The expanded-rewrite analysis (Figure 4 of the paper).

Given the query condition ``s`` on the reads table and an ordered rule
list, derives for every rule and context reference a *context condition*
(the data needed to decide the rule's action on query rows), and
assembles:

* ``cc`` — the union (OR) of all context conditions;
* ``ec`` — the expanded condition ``s OR cc``, strengthened with
  *factored bounds*: when every disjunct implies a bound on the same
  column (e.g. ``rtime < T1`` and ``rtime < T1 + 5 mins``), the weaker
  bound is emitted as a top-level conjunct so the planner can drive an
  index range scan through it;
* the residual condition ``s'`` to re-apply after cleansing, minus
  conjuncts provably covered by every context condition (and touching
  no column any rule modifies).

Infeasibility (``Q_e = null``) arises exactly as in the paper: some
context reference yields no derivable conjunct (its context set is
unbounded), so no condition can be pushed below cleansing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.linear import normalize_comparison
from repro.minidb.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    InSubquery,
    Literal,
    and_all,
    or_all,
)
from repro.rewrite.positions import rule_facts
from repro.rewrite.transitivity import derive_context_conjuncts
from repro.sqlts.model import CleansingRule

__all__ = ["RuleContextAnalysis", "ExpandedAnalysis", "analyze_expanded",
           "key_propagates", "modified_columns", "stable_conjuncts",
           "FAULT_ENV"]

#: Test-only fault injection: when this environment variable is set to
#: ``1`` or ``expanded``, :func:`analyze_expanded` deliberately
#: drops every derived context condition, collapsing the expanded
#: condition ``ec = s OR cc`` to just ``s``. That is precisely the class
#: of silent wrong-answer bug the differential fuzzer exists to catch
#: (the cleansing window loses the context rows outside the query
#: region), and the fuzz acceptance test flips this flag to prove the
#: oracle detects it and the shrinker minimizes it. Never set outside
#: tests; the flag is read per call and defaults to off. Every other
#: value belongs to another layer's drill (``storage``: the disk
#: backend's segment-decode fault in ``repro.minidb.storage.segment``) and
#: leaves this one off, so the drills stay separable.
FAULT_ENV = "REPRO_FUZZ_INJECT_BUG"


def _fault_injected() -> bool:
    return os.environ.get(FAULT_ENV, "") in ("1", "expanded")


@dataclass
class RuleContextAnalysis:
    """Per-rule outcome of the Figure 4 loop (lines 2–10)."""

    rule: CleansingRule
    #: context-reference name -> derived conjuncts (unqualified, over R).
    context_conditions: dict[str, list[Expr]] = field(default_factory=dict)
    feasible: bool = True

    def disjuncts(self) -> list[Expr]:
        """One AND-ed context condition per context reference."""
        out = []
        for conjuncts in self.context_conditions.values():
            combined = and_all(conjuncts)
            if combined is not None:
                out.append(combined)
        return out


@dataclass
class ExpandedAnalysis:
    """The assembled expanded-rewrite conditions."""

    feasible: bool
    per_rule: list[RuleContextAnalysis]
    #: OR of all context conditions (None when no context data is needed).
    cc: Expr | None
    #: Expanded condition to push into R (None when infeasible).
    ec: Expr | None
    #: Top-level conjuncts of ec (factored bounds + the disjunction).
    ec_conjuncts: list[Expr] = field(default_factory=list)
    #: Residual conjuncts (s') to re-apply after cleansing.
    residual: list[Expr] = field(default_factory=list)


def _strip_qualifiers(expr: Expr) -> Expr:
    mapping = {ref: ColumnRef(ref.name)
               for ref in expr.referenced_columns()
               if ref.qualifier is not None}
    return expr.substitute(mapping)


def _qualify(expr: Expr, qualifier: str) -> Expr:
    mapping = {ref: ColumnRef(ref.name, qualifier)
               for ref in expr.referenced_columns()
               if ref.qualifier is None}
    return expr.substitute(mapping)


def analyze_rule(rule: CleansingRule,
                 s_conjuncts: list[Expr],
                 allowed_columns: set[str] | None = None,
                 ) -> RuleContextAnalysis:
    """Run lines 2–10 of Figure 4 for one rule.

    *s_conjuncts* are the query's conjuncts on the reads table with
    unqualified column references. ``allowed_columns``, when given,
    restricts derived context conjuncts to columns that exist where the
    expanded condition is pushed (the base reads table): conjuncts over
    rule-created columns (e.g. ``has_case_nearby``) cannot travel into
    σ_ec(R) and are dropped — which is what makes the missing rule's r2
    infeasible for upper-bounded queries, as in the paper's Table 1.
    """
    analysis = RuleContextAnalysis(rule)
    bound_s = [_qualify(conjunct, rule.target.name)
               for conjunct in s_conjuncts]
    correlations = rule_facts(rule).correlations
    for ref in rule.context_references:
        correlation = correlations[ref.name]
        if correlation is None:
            analysis.feasible = False
            analysis.context_conditions.clear()
            return analysis
        derived = derive_context_conjuncts(correlation, bound_s, ref.name,
                                           rule.target.name)
        stripped = [_strip_qualifiers(conjunct) for conjunct in derived]
        if allowed_columns is not None:
            stripped = [
                conjunct for conjunct in stripped
                if {r.name for r in conjunct.referenced_columns()}
                <= allowed_columns]
        if not stripped:
            analysis.feasible = False
            analysis.context_conditions.clear()
            return analysis
        analysis.context_conditions[ref.name] = stripped
    return analysis


def _column_bounds(conjuncts: list[Expr]) -> dict[str, list]:
    """Per-column (upper, lower) numeric bounds implied by *conjuncts*.

    Returns ``{column: [upper|None, lower|None]}`` with each bound a
    ``(value, strict)`` pair; only single-variable unit-coefficient
    comparisons contribute.
    """
    bounds: dict[str, list] = {}
    for conjunct in conjuncts:
        normalized = normalize_comparison(conjunct)
        if normalized is None:
            continue
        form, op = normalized
        ref = form.single_reference()
        if ref is None:
            negated = form.negate()
            ref = negated.single_reference()
            if ref is None:
                continue
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            if op not in flip:
                continue
            op = flip[op]
            form = negated
        if op in ("=", "!="):
            continue
        value = -form.constant
        strict = op in ("<", ">")
        entry = bounds.setdefault(ref.name, [None, None])
        if op in ("<", "<="):
            if entry[0] is None or value < entry[0][0]:
                entry[0] = (value, strict)
        else:
            if entry[1] is None or value > entry[1][0]:
                entry[1] = (value, strict)
    return bounds


def _factored_bound_conjuncts(disjuncts: list[list[Expr]]) -> list[Expr]:
    """Bounds implied by *every* disjunct, weakened to their union."""
    if not disjuncts:
        return []
    per_disjunct = [_column_bounds(conjuncts) for conjuncts in disjuncts]
    columns = set(per_disjunct[0])
    for bounds in per_disjunct[1:]:
        columns &= set(bounds)
    factored: list[Expr] = []
    for column in sorted(columns):
        uppers = [bounds[column][0] for bounds in per_disjunct]
        lowers = [bounds[column][1] for bounds in per_disjunct]
        if all(upper is not None for upper in uppers):
            value = max(upper[0] for upper in uppers)
            strict = all(upper[1] for upper in uppers if upper[0] == value)
            op = "<" if strict else "<="
            factored.append(BinaryOp(op, ColumnRef(column),
                                     Literal(_number(value))))
        if all(lower is not None for lower in lowers):
            value = min(lower[0] for lower in lowers)
            strict = all(lower[1] for lower in lowers if lower[0] == value)
            op = ">" if strict else ">="
            factored.append(BinaryOp(op, ColumnRef(column),
                                     Literal(_number(value))))
    return factored


def _number(value: float) -> int | float:
    return int(value) if value == int(value) else value


def analyze_expanded(rules: list[CleansingRule],
                     s_conjuncts: list[Expr],
                     allowed_columns: set[str] | None = None,
                     ) -> ExpandedAnalysis:
    """Assemble the expanded rewrite's conditions for an ordered rule list.

    Multiple rules follow §5.4: the overall context condition is the OR
    of each rule's, and any infeasible rule makes the whole expanded
    rewrite infeasible. ``allowed_columns`` restricts context conjuncts
    to pushable columns (see :func:`analyze_rule`).
    """
    # Conjuncts over columns some rule MODIFYs are unreliable before
    # cleansing completes: a row may satisfy them only after (or only
    # before) modification. They are excluded from context derivation
    # and from the expanded condition's s-disjunct (a sound weakening),
    # and always re-applied in the residual.
    modified = modified_columns(rules)
    s_stable = stable_conjuncts(s_conjuncts, modified)
    per_rule = [analyze_rule(rule, s_stable, allowed_columns)
                for rule in rules]
    if any(not analysis.feasible for analysis in per_rule):
        return ExpandedAnalysis(feasible=False, per_rule=per_rule,
                                cc=None, ec=None)
    context_disjuncts: list[Expr] = []
    context_conjunct_lists: list[list[Expr]] = []
    for analysis in per_rule:
        for conjuncts in analysis.context_conditions.values():
            # IN-subqueries cannot appear under OR in the engine's
            # dialect; dropping them from a disjunct only widens ec.
            plain = [conjunct for conjunct in conjuncts
                     if not _contains_subquery(conjunct)]
            combined = and_all(plain)
            if combined is not None:
                context_disjuncts.append(combined)
                context_conjunct_lists.append(plain)
    if context_disjuncts and _fault_injected():
        # Deliberate test-only wrong-answer bug (see FAULT_ENV above).
        context_disjuncts = []
        context_conjunct_lists = []
    cc = or_all(context_disjuncts)

    # The s-disjunct excludes IN-subquery conjuncts (weakening is safe:
    # ec only needs to select a superset of the required rows), because
    # subqueries cannot appear under OR in the engine's dialect.
    s_plain = [conjunct for conjunct in s_stable
               if not _contains_subquery(conjunct)]
    disjunct_lists = [s_plain] + context_conjunct_lists
    factored = _factored_bound_conjuncts(disjunct_lists)
    s_disjunct = and_all(s_plain) or Literal(True)
    unique_disjuncts: list[Expr] = []
    for disjunct in [s_disjunct] + context_disjuncts:
        if disjunct not in unique_disjuncts:
            unique_disjuncts.append(disjunct)
    or_part = or_all(unique_disjuncts)
    ec_conjuncts = list(factored)
    if context_disjuncts:
        ec_conjuncts.append(or_part)
    else:
        # No context data needed at all: ec degenerates to s.
        ec_conjuncts = list(s_plain)
    deduped: list[Expr] = []
    for conjunct in ec_conjuncts:
        if conjunct not in deduped:
            deduped.append(conjunct)
    ec_conjuncts = deduped
    ec = and_all(ec_conjuncts) or Literal(True)

    residual: list[Expr] = []
    for conjunct in s_conjuncts:
        touched = {ref.name for ref in conjunct.referenced_columns()}
        covered_everywhere = context_conjunct_lists and all(
            conjunct in conjuncts for conjuncts in context_conjunct_lists)
        if covered_everywhere and not (touched & modified):
            continue
        residual.append(conjunct)
    return ExpandedAnalysis(feasible=True, per_rule=per_rule, cc=cc, ec=ec,
                            ec_conjuncts=ec_conjuncts, residual=residual)


def key_propagates(rules: list[CleansingRule], column: str) -> bool:
    """Whether a query conjunct over *column* alone is replayed on every
    context reference of every rule, whatever its literals.

    That holds exactly when no rule modifies *column* (conjuncts over
    modified columns are kept out of the derivation) and every rule's
    correlation equalities carry the target's *column* to each of its
    context references (:meth:`RuleFacts.propagates`). The rewrite
    engine pushes a dimension's ``K IN (SELECT ...)`` below cleansing on
    this verdict (§5.2), so it depends on the rules alone.
    """
    if any(column in rule.action.assignments for rule in rules):
        return False
    return all(rule_facts(rule).propagates(column) for rule in rules)


def modified_columns(rules: Sequence[CleansingRule]) -> set[str]:
    """Every column some rule's MODIFY action assigns."""
    return {column for rule in rules for column in rule.action.assignments}


def stable_conjuncts(conjuncts: Sequence[Expr], modified: set[str],
                     subqueries: bool = True) -> list[Expr]:
    """The *conjuncts* over no column in *modified*, in order.

    A row may satisfy a conjunct over a MODIFY-ed column only after (or
    only before) modification, so only stable conjuncts may restrict
    rows ahead of the rules; dropping the others only widens the input,
    which stays correct. ``subqueries=False`` also drops conjuncts that
    hold an IN subquery, for callers that re-apply the rest as a plain
    filter.
    """
    return [conjunct for conjunct in conjuncts
            if not ({ref.name for ref in conjunct.referenced_columns()}
                    & modified)
            and (subqueries or not _contains_subquery(conjunct))]


def _contains_subquery(conjunct: Expr) -> bool:
    return any(isinstance(node, InSubquery) for node in conjunct.walk())
