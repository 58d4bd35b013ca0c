"""Correlation-condition assembly and position-preserving analysis
(Definitions 1–2 and Observation 1 of the paper).

For each context reference X of a rule with target T this module
produces the correlation conjunct list used by transitivity analysis:

1. the rule-condition atoms mentioning X (they must form one conjunctive
   group, the same requirement the rule compiler imposes);
2. the implied conjuncts: ``X.ckey = T.ckey`` always, and
   ``X.skey < T.skey`` / ``X.skey > T.skey`` from the pattern side;
3. for *position-based* context references (no ``*``), only the
   position-preserving subset is kept (Observation 1): the cluster-key
   equality, the pattern-side sequence-key inequality, and sequence-key
   bounds of the form ``|X.skey - T.skey| < t`` that keep the context
   window contiguous with the target row. Everything else — including
   X-local predicates on non-key columns — is discarded, because
   filtering the input on such predicates would change relative sequence
   positions (the paper's C2/Q2 counterexample).

None of this depends on the query, so :func:`rule_facts` derives it once
per rule and keeps it on the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.conjunction import atoms_of, find_conjoined_group
from repro.analysis.linear import normalize_comparison
from repro.minidb.expressions import BinaryOp, ColumnRef, Expr
from repro.sqlts.model import CleansingRule, PatternRef

__all__ = ["correlation_conjuncts", "is_position_preserving", "RuleFacts",
           "rule_facts"]


def _conjunctive_group(rule: CleansingRule, ref: PatternRef) -> list[Expr] | None:
    """The atoms mentioning *ref*, provided they are jointly conjoined.

    The atoms qualify when their lowest common ancestor reaches each of
    them through AND nodes only (other atoms may sit beside them). The
    whole group may live inside one OR branch: rows bound to *ref* can
    only influence the rule through that branch, so its ref-atoms still
    characterize the context set (the missing rule's r1 needs this).
    Returns None when the atoms are split across OR branches, in which
    case no single conjunction characterizes the context set.
    """
    atoms = [atom for atom in atoms_of(rule.condition)
             if ref.name in rule.references_in(atom)]
    if not atoms:
        return []
    atom_ids = {id(atom) for atom in atoms}
    if find_conjoined_group(rule.condition, atom_ids) is None:
        return None
    return atoms


def _implied_conjuncts(rule: CleansingRule, ref: PatternRef) -> list[Expr]:
    """Pattern-implied conjuncts on the cluster and sequence keys."""
    target = rule.target
    implied: list[Expr] = [
        BinaryOp("=",
                 ColumnRef(rule.cluster_key, ref.name),
                 ColumnRef(rule.cluster_key, target.name))]
    x_key = ColumnRef(rule.sequence_key, ref.name)
    t_key = ColumnRef(rule.sequence_key, target.name)
    if ref.position < target.position:
        implied.append(BinaryOp("<=", x_key, t_key))
    else:
        implied.append(BinaryOp(">=", x_key, t_key))
    return implied


def is_position_preserving(conjunct: Expr, rule: CleansingRule,
                           ref: PatternRef) -> bool:
    """Observation 1: is *conjunct* position-preserving for *ref*?

    Allowed shapes (X = *ref*, T = target, both on rule keys):

    * ``X.ckey = T.ckey``;
    * sequence-key inequalities ``X.skey - T.skey op c`` where the
      selected window stays contiguous with the target row:
      before-target references allow upper bounds with ``c >= 0`` and
      lower bounds with ``c <= 0``; after-target references mirror that.
    """
    refs = conjunct.referenced_columns()
    qualifiers = {column.qualifier for column in refs}
    if qualifiers - {ref.name, rule.target.name}:
        return False
    ckey_x = ColumnRef(rule.cluster_key, ref.name)
    ckey_t = ColumnRef(rule.cluster_key, rule.target.name)
    if isinstance(conjunct, BinaryOp) and conjunct.op == "=" \
            and {conjunct.left, conjunct.right} == {ckey_x, ckey_t}:
        return True
    normalized = normalize_comparison(conjunct)
    if normalized is None:
        return False
    form, op = normalized
    skey_x = ColumnRef(rule.sequence_key, ref.name)
    skey_t = ColumnRef(rule.sequence_key, rule.target.name)
    if set(form.coeffs) != {skey_x, skey_t}:
        return False
    if form.coeffs[skey_x] == 1 and form.coeffs[skey_t] == -1:
        pass
    elif form.coeffs[skey_x] == -1 and form.coeffs[skey_t] == 1:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        if op not in flip:
            return False
        op = flip[op]
        form = form.negate()
    else:
        return False
    # Now: (X.skey - T.skey) op (-form.constant)
    bound = -form.constant
    # Upper bounds keep the window contiguous when they do not exclude
    # rows adjacent to the target (c >= 0); lower bounds mirror that
    # (c <= 0). This holds on both pattern sides.
    if op in ("<", "<="):
        return bound >= 0
    if op in (">", ">="):
        return bound <= 0
    return False


def correlation_conjuncts(rule: CleansingRule,
                          ref: PatternRef) -> list[Expr] | None:
    """Figure 4, lines 3–5: the correlation conjuncts for one context ref.

    Returns None when the rule condition's atoms for *ref* cannot be
    isolated as a conjunction (no safe analysis possible).
    """
    group = _conjunctive_group(rule, ref)
    if group is None:
        return None
    conjuncts = list(group) + _implied_conjuncts(rule, ref)
    if not ref.is_set:
        conjuncts = [conjunct for conjunct in conjuncts
                     if is_position_preserving(conjunct, rule, ref)]
    return conjuncts


@dataclass(frozen=True)
class RuleFacts:
    """What the Figure 4 analysis needs of one rule, whatever the query."""

    #: Context-reference name -> :func:`correlation_conjuncts`.
    correlations: dict[str, list[Expr] | None]


def rule_facts(rule: CleansingRule) -> RuleFacts:
    """The rule's :class:`RuleFacts`, derived on first use and kept on
    the rule."""
    facts = rule.analysis_facts
    if facts is None:
        facts = rule.analysis_facts = _derive_facts(rule)
    return facts


def _derive_facts(rule: CleansingRule) -> RuleFacts:
    return RuleFacts({ref.name: correlation_conjuncts(rule, ref)
                      for ref in rule.context_references})
