"""Object model for extended SQL-TS cleansing rules.

Terminology follows the paper:

* a **pattern** is an ordered list of references; a reference without a
  ``*`` binds one row (*singleton*), a ``*`` reference binds the set of
  rows before/after the adjacent singleton and may only appear at the
  pattern's ends;
* the **target** reference is the one named in the ACTION clause;
  all other references are **context** references (Definition 1);
* context references without a ``*`` are **position-based**: their
  pattern position implies a sequence-position correlation with the
  target (the ``spos`` conjunct of Section 5.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import RuleValidationError
from repro.minidb.expressions import Expr

__all__ = ["PatternRef", "ActionKind", "Action", "CleansingRule"]


@dataclass(frozen=True)
class PatternRef:
    """One reference in a rule pattern.

    ``min_matches`` (set references only) is the §4.3 extension the
    paper sketches with count(): the existential condition holds only
    when at least that many rows of the set satisfy it. Written
    ``*B{3}`` in the pattern.
    """

    name: str
    is_set: bool = False
    position: int = 0  # index within the pattern
    min_matches: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        if self.min_matches < 1:
            raise RuleValidationError(
                f"pattern reference {self.name}: min_matches must be >= 1")


class ActionKind(enum.Enum):
    DELETE = "delete"
    KEEP = "keep"
    MODIFY = "modify"


@dataclass
class Action:
    """The rule's ACTION clause.

    For MODIFY, ``assignments`` maps column names to value expressions
    (which may reference any pattern reference's columns).
    """

    kind: ActionKind
    target: str
    assignments: dict[str, Expr] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.target = self.target.lower()
        self.assignments = {name.lower(): expr
                            for name, expr in self.assignments.items()}


@dataclass
class CleansingRule:
    """A parsed, validated cleansing rule."""

    name: str
    on_table: str
    from_table: str
    cluster_key: str
    sequence_key: str
    pattern: list[PatternRef]
    condition: Expr
    action: Action
    #: Creation sequence number; rules apply in creation order (§4.4).
    created_at: int = 0
    #: Query-independent facts the rewrite analysis derives from this
    #: rule, filled in on first use by
    #: :func:`repro.rewrite.positions.rule_facts`. A rule is not changed
    #: after validation, so they never go stale.
    analysis_facts: Any = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        self.on_table = self.on_table.lower()
        self.from_table = self.from_table.lower()
        self.cluster_key = self.cluster_key.lower()
        self.sequence_key = self.sequence_key.lower()
        self.validate()

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural constraints of the extended SQL-TS grammar."""
        if not self.pattern:
            raise RuleValidationError(f"rule {self.name}: empty pattern")
        names = [ref.name for ref in self.pattern]
        if len(set(names)) != len(names):
            raise RuleValidationError(
                f"rule {self.name}: duplicate pattern reference names")
        for index, ref in enumerate(self.pattern):
            if ref.is_set and index not in (0, len(self.pattern) - 1):
                raise RuleValidationError(
                    f"rule {self.name}: set reference *{ref.name} must be "
                    "first or last in the pattern")
            if not ref.is_set and ref.min_matches != 1:
                raise RuleValidationError(
                    f"rule {self.name}: only set references may carry a "
                    "match-count qualifier")
        target = self.reference(self.action.target)
        if target is None:
            raise RuleValidationError(
                f"rule {self.name}: action target {self.action.target!r} is "
                "not a pattern reference")
        if target.is_set:
            raise RuleValidationError(
                f"rule {self.name}: actions must target a singleton "
                "reference")
        known = set(names)
        for ref in self.condition.referenced_columns():
            if ref.qualifier is not None and ref.qualifier not in known:
                raise RuleValidationError(
                    f"rule {self.name}: condition references unknown pattern "
                    f"reference {ref.qualifier!r}")

    # ------------------------------------------------------------------

    def reference(self, name: str) -> PatternRef | None:
        name = name.lower()
        for ref in self.pattern:
            if ref.name == name:
                return ref
        return None

    @property
    def target(self) -> PatternRef:
        """The target reference (Definition 1)."""
        ref = self.reference(self.action.target)
        assert ref is not None
        return ref

    @property
    def context_references(self) -> list[PatternRef]:
        """All non-target references, in pattern order (Definition 1)."""
        return [ref for ref in self.pattern if ref.name != self.action.target]

    def offset_of(self, ref: PatternRef) -> int:
        """Pattern-position offset of *ref* relative to the target.

        Negative offsets are before the target. Only meaningful for
        position-based (non-set) references.
        """
        return ref.position - self.target.position

    def columns_of(self, ref_name: str) -> set[str]:
        """Column names the condition reads from reference *ref_name*."""
        ref_name = ref_name.lower()
        columns = {
            column.name
            for column in self.condition.referenced_columns()
            if column.qualifier == ref_name}
        for expr in self.action.assignments.values():
            columns.update(
                column.name for column in expr.referenced_columns()
                if column.qualifier == ref_name)
        return columns

    def references_in(self, expr: Expr) -> set[str]:
        """Pattern-reference names mentioned by *expr*."""
        names = {ref.name for ref in self.pattern}
        found = set()
        for column in expr.referenced_columns():
            if column.qualifier in names:
                found.add(column.qualifier)
        return found

    def describe(self) -> str:
        """Human-readable one-line summary."""
        body = ", ".join(("*" if ref.is_set else "") + ref.name.upper()
                         for ref in self.pattern)
        action = self.action.kind.value.upper()
        if self.action.kind is ActionKind.MODIFY:
            sets = ", ".join(
                f"{self.action.target.upper()}.{column}={expr.to_sql()}"
                for column, expr in self.action.assignments.items())
            action = f"MODIFY {sets}"
        else:
            action = f"{action} {self.action.target.upper()}"
        return (f"{self.name}: ({body}) WHERE {self.condition.to_sql()} "
                f"ACTION {action}")
