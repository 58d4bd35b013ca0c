"""Transitivity analysis between rule correlation conditions and query
conditions (the core of the Figure 4 algorithm).

Variables are ``(pattern reference, column)`` pairs represented as
qualified :class:`ColumnRef` expressions (``a.rtime``). Two engines are
combined:

* a **difference-constraint closure** over atoms normalizable to
  ``u - v <= c`` / ``u <= c`` (with strictness tracked), run as an
  all-pairs shortest path over a small constraint graph with a virtual
  zero node — deriving bounds like ``B.rtime < T1 + 5 mins`` from
  ``A.rtime < T1`` and ``B.rtime - A.rtime < 5 mins``;
* **equality-class propagation** — atoms ``X.c = T.c`` put the two
  variables in one class, and any query conjunct whose variables all
  have class members on the context reference is replayed on it. This
  propagates non-numeric restrictions (``epc IN (SELECT ...)``, string
  equality) through the cluster key, which is what lets selective
  dimension predicates travel into context conditions for join queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.linear import normalize_comparison
from repro.minidb.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
)

__all__ = ["Bound", "derive_context_conjuncts", "DifferenceClosure",
           "EqualityClasses", "ZERO_VAR"]

#: Virtual node representing the constant 0 in the constraint graph.
_ZERO = ColumnRef("_zero_", "_const_")

#: Public alias for the zero node, used by consumers that query the
#: closed constraint graph directly (the region cache's subsumption
#: check reads ``(var, ZERO_VAR)`` edges to test bound entailment).
ZERO_VAR = _ZERO


@dataclass(frozen=True)
class Bound:
    """A weight in the constraint graph: value plus strictness."""

    value: float
    strict: bool = False

    def __add__(self, other: "Bound") -> "Bound":
        return Bound(self.value + other.value, self.strict or other.strict)

    def tighter_than(self, other: "Bound") -> bool:
        if self.value != other.value:
            return self.value < other.value
        return self.strict and not other.strict


class DifferenceClosure:
    """All-pairs closure over difference constraints ``u - v <= bound``."""

    def __init__(self) -> None:
        self._edges: dict[tuple[ColumnRef, ColumnRef], Bound] = {}
        self._vars: set[ColumnRef] = {_ZERO}

    def add_edge(self, u: ColumnRef, v: ColumnRef, bound: Bound) -> None:
        """Record the constraint ``u - v <= bound``."""
        self._vars.add(u)
        self._vars.add(v)
        key = (u, v)
        existing = self._edges.get(key)
        if existing is None or bound.tighter_than(existing):
            self._edges[key] = bound

    def add_atom(self, atom: Expr) -> bool:
        """Ingest one comparison atom; returns True when usable."""
        normalized = normalize_comparison(atom)
        if normalized is None:
            return False
        form, op = normalized
        if op in ("=", "!="):
            if op == "!=":
                return False
            # u = v + c  ==>  u - v <= c and v - u <= -c.
            usable = self._ingest_inequality(form, "<=")
            usable = self._ingest_inequality(form.negate(), "<=") and usable
            return usable
        if op in (">", ">="):
            form = form.negate()
            op = "<" if op == ">" else "<="
        return self._ingest_inequality(form, op)

    def _ingest_inequality(self, form, op: str) -> bool:
        """``form op 0`` with op in {<, <=}; accepts <=2 unit variables."""
        strict = op == "<"
        refs = list(form.coeffs.items())
        if len(refs) == 1:
            ref, coeff = refs[0]
            if coeff == 1:
                # ref <= -constant
                self.add_edge(ref, _ZERO, Bound(-form.constant, strict))
                return True
            if coeff == -1:
                # -ref + c <= 0  ==>  ZERO - ref <= -c
                self.add_edge(_ZERO, ref, Bound(-form.constant, strict))
                return True
            return False
        if len(refs) == 2:
            (ref_a, coeff_a), (ref_b, coeff_b) = refs
            if coeff_a == 1 and coeff_b == -1:
                self.add_edge(ref_a, ref_b, Bound(-form.constant, strict))
                return True
            if coeff_a == -1 and coeff_b == 1:
                self.add_edge(ref_b, ref_a, Bound(-form.constant, strict))
                return True
        return False

    def close(self) -> dict[tuple[ColumnRef, ColumnRef], Bound]:
        """Floyd–Warshall closure; returns the tightest derived edges."""
        distance = dict(self._edges)
        variables = list(self._vars)
        for middle in variables:
            for source in variables:
                through = distance.get((source, middle))
                if through is None:
                    continue
                for sink in variables:
                    tail = distance.get((middle, sink))
                    if tail is None:
                        continue
                    candidate = through + tail
                    existing = distance.get((source, sink))
                    if existing is None or candidate.tighter_than(existing):
                        distance[(source, sink)] = candidate
        return distance

    def derived_bounds(self, ref_name: str) -> list[Expr]:
        """Upper/lower bound conjuncts for every variable of *ref_name*."""
        conjuncts: list[Expr] = []
        closure = self.close()
        for variable in self._vars:
            if variable.qualifier != ref_name:
                continue
            upper = closure.get((variable, _ZERO))
            if upper is not None:
                op = "<" if upper.strict else "<="
                conjuncts.append(
                    BinaryOp(op, variable, Literal(_as_number(upper.value))))
            lower = closure.get((_ZERO, variable))
            if lower is not None:
                op = ">" if lower.strict else ">="
                conjuncts.append(
                    BinaryOp(op, variable, Literal(_as_number(-lower.value))))
        return conjuncts


def _as_number(value: float) -> int | float:
    return int(value) if value == int(value) else value


class EqualityClasses:
    """Union-find over variables related by equality atoms."""

    def __init__(self, atoms: Iterable[Expr] = ()) -> None:
        self._parent: dict[ColumnRef, ColumnRef] = {}
        for atom in atoms:
            self.add_atom(atom)

    def _find(self, ref: ColumnRef) -> ColumnRef:
        parent = self._parent.setdefault(ref, ref)
        if parent is ref or parent == ref:
            return ref
        root = self._find(parent)
        self._parent[ref] = root
        return root

    def union(self, left: ColumnRef, right: ColumnRef) -> None:
        self._parent[self._find(left)] = self._find(right)

    def add_atom(self, atom: Expr) -> None:
        if isinstance(atom, BinaryOp) and atom.op == "=" \
                and isinstance(atom.left, ColumnRef) \
                and isinstance(atom.right, ColumnRef):
            self.union(atom.left, atom.right)

    def same(self, left: ColumnRef, right: ColumnRef) -> bool:
        """Whether the equality atoms make *left* equal *right*."""
        return self._find(left) == self._find(right)

    def counterpart(self, ref: ColumnRef, target_qualifier: str,
                    candidates: set[ColumnRef]) -> ColumnRef | None:
        """A variable of *target_qualifier* equal to *ref*, if any."""
        root = self._find(ref)
        for candidate in candidates:
            if candidate.qualifier == target_qualifier \
                    and self._find(candidate) == root:
                return candidate
        return None


def derive_context_conjuncts(
        correlation: list[Expr],
        query_conjuncts: list[Expr],
        context_name: str,
        target_name: str) -> list[Expr]:
    """Figure 4, lines 6–7: derive conjuncts referring only to *context*.

    *correlation* holds the (position-filtered) correlation conjuncts
    between the context and target references; *query_conjuncts* are the
    query condition's conjuncts bound to the target reference. Both use
    qualified column references (``a.rtime``).

    The result contains, deduplicated:

    * correlation conjuncts already referring only to the context;
    * equality-propagated query conjuncts;
    * difference-closure bounds on the context's numeric variables.
    """
    context_name = context_name.lower()
    target_name = target_name.lower()
    derived: list[Expr] = []
    seen: set[Expr] = set()

    def emit(conjunct: Expr) -> None:
        if conjunct not in seen:
            seen.add(conjunct)
            derived.append(conjunct)

    # 1. Correlation conjuncts local to the context reference.
    for conjunct in correlation:
        qualifiers = {ref.qualifier for ref in conjunct.referenced_columns()}
        if qualifiers == {context_name}:
            emit(conjunct)

    # 2. Equality propagation of query conjuncts.
    classes = EqualityClasses(correlation)
    all_vars: set[ColumnRef] = set()
    for conjunct in correlation:
        all_vars.update(conjunct.referenced_columns())
    for conjunct in query_conjuncts:
        all_vars.update(conjunct.referenced_columns())
    for conjunct in query_conjuncts:
        refs = conjunct.referenced_columns()
        if not refs:
            continue
        mapping: dict[Expr, Expr] = {}
        replaceable = True
        for ref in refs:
            if ref.qualifier == context_name:
                continue
            counterpart = classes.counterpart(ref, context_name, all_vars)
            if counterpart is None:
                replaceable = False
                break
            mapping[ref] = counterpart
        if replaceable:
            emit(conjunct.substitute(mapping))

    # 3. Numeric difference-constraint closure.
    closure = DifferenceClosure()
    ingested_any = False
    for conjunct in correlation + query_conjuncts:
        if closure.add_atom(conjunct):
            ingested_any = True
    if ingested_any:
        for bound in closure.derived_bounds(context_name):
            emit(bound)
    return derived
