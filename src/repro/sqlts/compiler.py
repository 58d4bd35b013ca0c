"""Compilation of SQL-TS rules to SQL/OLAP templates (paper §4.2).

A rule compiles into:

* one window-function column per (singleton context reference, column)
  pair — a scalar aggregate over a one-row ROWS frame at the reference's
  pattern offset from the target;
* one window-function column per set (``*``) reference — an existential
  flag computed as ``max(CASE WHEN <X-only condition> THEN 1 ELSE 0 END)``
  over a RANGE frame derived from the rule's sequence-key constraints
  (e.g. ``B.rtime - A.rtime < 5 mins`` becomes
  ``RANGE BETWEEN 1 FOLLOWING AND 299 FOLLOWING`` at one-second
  timestamp resolution);
* a residual condition over the target row's columns and those computed
  columns;
* the action, rendered as a filter (DELETE/KEEP, with SQL's NULL
  semantics handled: DELETE drops only rows whose condition is TRUE) or
  as CASE projections (MODIFY, creating flag columns on the fly with a
  0 default when absent from the input).

The compiled form is a logical-plan transformer
(:meth:`CompiledRule.apply`, the paper's Φ_C); its SQL text template,
with an ``{input}`` placeholder and persisted in the rules table, is
that plan printed (:mod:`repro.minidb.plan.printer`).
"""

from __future__ import annotations

import math

from repro.analysis.conjunction import find_conjoined_group
from repro.analysis.linear import normalize_comparison
from repro.errors import RuleValidationError
from repro.minidb.expressions import (
    UNBOUNDED,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    Literal,
    SortSpec,
    WindowFrame,
    WindowFunction,
    and_all,
)
from repro.minidb.plan.logical import (
    LogicalFilter,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalWindow,
)
from repro.minidb.plan.printer import plan_sql
from repro.minidb.schema import TableSchema
from repro.minidb.table import Table
from repro.minidb.types import SqlType
from repro.sqlts.model import ActionKind, CleansingRule, PatternRef

__all__ = ["CompiledRule", "compile_rule"]

#: The table name a rule template's input slot prints as.
_SLOT = "{input}"


def _strict_upper(bound: float) -> int:
    """Largest integer strictly below *bound* (integer sequence keys)."""
    ceiling = math.ceil(bound)
    return int(ceiling) - 1 if ceiling == bound else int(math.floor(bound))


def _strict_lower(bound: float) -> int:
    """Smallest integer strictly above *bound*."""
    floor = math.floor(bound)
    return int(floor) + 1 if floor == bound else int(math.ceil(bound))


def _replace_node(tree: Expr, target: Expr, replacement: Expr) -> Expr:
    """Replace one node (by identity) within an expression tree."""
    if tree is target:
        return replacement
    children = tree.children()
    if not children:
        return tree
    rebuilt = tuple(_replace_node(child, target, replacement)
                    for child in children)
    if all(new is old for new, old in zip(rebuilt, children)):
        return tree
    return tree._rebuild(rebuilt)


def _atoms_by_identity(tree: Expr) -> list[Expr]:
    atoms: list[Expr] = []

    def visit(node: Expr) -> None:
        if isinstance(node, BinaryOp) and node.op in ("and", "or"):
            visit(node.left)
            visit(node.right)
        else:
            atoms.append(node)

    visit(tree)
    return atoms


class CompiledRule:
    """The executable form of one cleansing rule (the paper's Φ_C)."""

    def __init__(self, rule: CleansingRule,
                 window_columns: list[tuple[str, WindowFunction]],
                 condition: Expr,
                 assignments: dict[str, Expr]) -> None:
        self.rule = rule
        #: (column name, window function) pairs computed before filtering.
        self.window_columns = window_columns
        #: Residual condition over input + window columns.
        self.condition = condition
        #: MODIFY assignments with references already substituted.
        self.assignments = assignments

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.rule.name

    def required_columns(self) -> set[str]:
        """Input column names this compiled rule reads."""
        needed = {self.rule.cluster_key, self.rule.sequence_key}
        for _, function in self.window_columns:
            if function.argument is not None:
                needed.update(ref.name for ref
                              in function.argument.referenced_columns())
        window_names = {name for name, _ in self.window_columns}
        for ref in self.condition.referenced_columns():
            if ref.name not in window_names:
                needed.add(ref.name)
        for expr in self.assignments.values():
            for ref in expr.referenced_columns():
                if ref.name not in window_names:
                    needed.add(ref.name)
        return needed

    # ------------------------------------------------------------------

    def apply(self, plan: LogicalNode) -> LogicalNode:
        """Φ_C as a plan transform: cleanse the rows produced by *plan*.

        The output schema is the input's columns (unqualified), plus any
        columns created by MODIFY, in input order.
        """
        input_names = [field.name for field in plan.schema]
        for name, _ in self.window_columns:
            if name in input_names:
                raise RuleValidationError(
                    f"rule {self.name}: auxiliary column {name!r} collides "
                    "with an input column")
        cleansed: LogicalNode = plan
        if self.window_columns:
            cleansed = LogicalWindow(
                cleansed,
                [(call, name) for name, call in self.window_columns])
        kind = self.rule.action.kind
        if kind is ActionKind.KEEP:
            cleansed = LogicalFilter(cleansed, self.condition)
        elif kind is ActionKind.DELETE:
            keep_predicate = Case(((self.condition, Literal(False)),),
                                  Literal(True))
            cleansed = LogicalFilter(cleansed, keep_predicate)
        items: list[tuple[Expr, str]] = []
        for name in input_names:
            if kind is ActionKind.MODIFY and name in self.assignments:
                items.append((Case(((self.condition,
                                     self.assignments[name]),),
                                   ColumnRef(name)), name))
            else:
                items.append((ColumnRef(name), name))
        if kind is ActionKind.MODIFY:
            for name, value in self.assignments.items():
                if name in input_names:
                    continue
                default = self._created_default(value)
                items.append((Case(((self.condition, value),), default),
                              name))
        return LogicalProject(cleansed, items)

    @staticmethod
    def _created_default(value: Expr) -> Literal:
        """Default for a column created on the fly by MODIFY.

        Numeric flags (the paper's ``has_case_nearby``) default to 0 so
        later rules can test them with plain equality; anything else
        defaults to NULL.
        """
        if isinstance(value, Literal) and isinstance(value.value, (int, float)) \
                and not isinstance(value.value, bool):
            return Literal(0)
        return Literal(None)

    # ------------------------------------------------------------------

    def sql_template(self, input_columns: list[str]) -> str:
        """SQL text of Φ_C with one ``{input}`` slot for its input.

        The printed :meth:`apply` over a placeholder scan of the slot,
        which carries *input_columns* and any other column the rule
        reads. The rules table persists it (system architecture step 2).
        """
        columns = dict.fromkeys([*input_columns,
                                 *sorted(self.required_columns())])
        slot = Table(_SLOT, TableSchema.of(
            *[(name, SqlType.VARCHAR) for name in columns]))
        text = plan_sql(self.apply(LogicalScan(slot)))
        # Literal braces must survive str.format; the slot must not.
        return text.replace("{", "{{").replace("}", "}}") \
            .replace("{" + _SLOT + "}", _SLOT)

    def describe(self) -> str:
        lines = [self.rule.describe()]
        for name, function in self.window_columns:
            lines.append(f"  {name} := {function.to_sql()}")
        lines.append(f"  residual condition: {self.condition.to_sql()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


class _Compiler:
    def __init__(self, rule: CleansingRule) -> None:
        self.rule = rule
        self.partition = (ColumnRef(rule.cluster_key),)
        self.order = (SortSpec(ColumnRef(rule.sequence_key)),)
        self.window_columns: list[tuple[str, WindowFunction]] = []

    # -- helpers ---------------------------------------------------------

    def _window(self, name: str, function: str, argument: Expr | None,
                frame: WindowFrame | None) -> ColumnRef:
        call = WindowFunction(function, argument, self.partition,
                              self.order, frame)
        self.window_columns.append((name, call))
        return ColumnRef(name)

    def _error(self, message: str) -> RuleValidationError:
        return RuleValidationError(f"rule {self.rule.name}: {message}")

    # -- set references ----------------------------------------------------

    def _sequence_key_bound(self, atom: Expr, set_ref: PatternRef
                            ) -> tuple[str, float] | None:
        """Recognize an atom bounding ``X.skey - T.skey``.

        Returns ``(op, c)`` meaning ``(X.skey - T.skey) op c``, or None.
        """
        normalized = normalize_comparison(atom)
        if normalized is None:
            return None
        form, op = normalized
        skey = self.rule.sequence_key
        x_key = ColumnRef(skey, set_ref.name)
        t_key = ColumnRef(skey, self.rule.target.name)
        coeffs = form.coeffs
        if set(coeffs) != {x_key, t_key}:
            return None
        if coeffs[x_key] == 1 and coeffs[t_key] == -1:
            pass
        elif coeffs[x_key] == -1 and coeffs[t_key] == 1:
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            if op not in flip:
                return None
            op = flip[op]
            form = form.negate()
        else:
            return None
        if op in ("=", "!="):
            return None
        return op, -form.constant

    def _compile_set_reference(self, condition: Expr,
                               set_ref: PatternRef) -> Expr:
        """Replace the sub-condition over *set_ref* with a flag test.

        The atoms mentioning the set reference must be jointly conjoined
        (AND-reachable from their least common ancestor) because the
        existential applies to all of them at once: one row of the set
        must satisfy the whole group.
        """
        atoms = [atom for atom in _atoms_by_identity(condition)
                 if set_ref.name in self.rule.references_in(atom)]
        if not atoms:
            return condition
        if find_conjoined_group(condition, {id(a) for a in atoms}) is None:
            raise self._error(
                f"the atoms mentioning *{set_ref.name} are split across OR "
                "branches; the existential semantics requires them to form "
                "one conjunction")
        is_after = set_ref.position > self.rule.target.position
        if is_after:
            start: float | str = 1
            end: float | str = UNBOUNDED
        else:
            start = UNBOUNDED
            end = -1
        phi_parts: list[Expr] = []
        for atom in atoms:
            bound = self._sequence_key_bound(atom, set_ref)
            if bound is not None:
                op, constant = bound
                if op == "<":
                    value: float = _strict_upper(constant)
                    end = value if end == UNBOUNDED else min(end, value)
                elif op == "<=":
                    value = int(constant) if constant == int(constant) \
                        else _strict_upper(constant + 1)
                    end = value if end == UNBOUNDED else min(end, value)
                elif op == ">":
                    value = _strict_lower(constant)
                    start = value if start == UNBOUNDED else max(start, value)
                else:  # ">="
                    value = int(constant) if constant == int(constant) \
                        else _strict_lower(constant - 1)
                    start = value if start == UNBOUNDED else max(start, value)
                continue
            mentioned = self.rule.references_in(atom)
            if mentioned != {set_ref.name}:
                raise self._error(
                    f"atom {atom.to_sql()} correlates set reference "
                    f"*{set_ref.name} with other references on non-sequence "
                    "columns; only sequence-key bounds may correlate a set "
                    "reference")
            phi_parts.append(self._strip_qualifier(atom, set_ref.name))
        frame = WindowFrame("range", start, end)
        flag_name = f"_{self.rule.name}_has_{set_ref.name}"
        phi = and_all(phi_parts)
        threshold = set_ref.min_matches
        if phi is None:
            flag = self._window(flag_name, "count", None, frame)
            test: Expr = BinaryOp(">=", flag, Literal(threshold))
        elif threshold > 1:
            # The §4.3 count() extension: at least k set rows must match.
            argument = Case(((phi, Literal(1)),), Literal(0))
            flag = self._window(flag_name, "sum", argument, frame)
            test = BinaryOp(">=", flag, Literal(threshold))
        else:
            argument = Case(((phi, Literal(1)),), Literal(0))
            flag = self._window(flag_name, "max", argument, frame)
            test = BinaryOp("=", flag, Literal(1))
        # Replace the first set-reference atom with the flag test and
        # the remaining ones with TRUE: they are all conjoined, so the
        # single flag (computed over their conjunction) carries the whole
        # group's existential semantics.
        rewritten = _replace_node(condition, atoms[0], test)
        for atom in atoms[1:]:
            rewritten = _replace_node(rewritten, atom, Literal(True))
        return rewritten

    # -- singleton references ----------------------------------------------

    @staticmethod
    def _strip_qualifier(expr: Expr, qualifier: str) -> Expr:
        mapping = {
            ref: ColumnRef(ref.name)
            for ref in expr.referenced_columns()
            if ref.qualifier == qualifier}
        return expr.substitute(mapping)

    def _singleton_substitution(self) -> dict[Expr, Expr]:
        """Window columns + substitutions for singleton references."""
        mapping: dict[Expr, Expr] = {}
        target = self.rule.target
        for ref in self.rule.pattern:
            if ref.is_set:
                continue
            columns = self.rule.columns_of(ref.name)
            if ref.name == target.name:
                for column in columns:
                    mapping[ColumnRef(column, ref.name)] = ColumnRef(column)
                continue
            offset = self.rule.offset_of(ref)
            frame = WindowFrame("rows", offset, offset)
            for column in sorted(columns):
                aux_name = f"_{self.rule.name}_{ref.name}_{column}"
                aux_ref = self._window(aux_name, "max", ColumnRef(column),
                                       frame)
                mapping[ColumnRef(column, ref.name)] = aux_ref
        return mapping

    # -- main -------------------------------------------------------------

    def compile(self) -> CompiledRule:
        condition = self.rule.condition
        for ref in self.rule.pattern:
            if ref.is_set:
                condition = self._compile_set_reference(condition, ref)
        mapping = self._singleton_substitution()
        condition = condition.substitute(mapping)
        assignments: dict[str, Expr] = {}
        for column, value in self.rule.action.assignments.items():
            for value_ref in value.referenced_columns():
                referenced = self.rule.reference(value_ref.qualifier or "")
                if referenced is not None and referenced.is_set:
                    raise self._error(
                        "MODIFY values may not read from set references")
            assignments[column] = value.substitute(mapping)
        return CompiledRule(self.rule, self.window_columns, condition,
                            assignments)


def compile_rule(rule: CleansingRule) -> CompiledRule:
    """Compile *rule* into its SQL/OLAP form."""
    return _Compiler(rule).compile()
