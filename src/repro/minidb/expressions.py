"""Scalar expression AST and evaluator for minidb.

Expressions are immutable dataclass trees. They support:

* three-valued evaluation against a row, via :meth:`Expr.bind`, which
  compiles the tree into a closure over column positions (resolved once,
  evaluated per row) — the specification of scalar semantics;
* the same semantics over a whole :class:`RowBatch`, via
  :meth:`Expr.bind_batch` — what the executor runs;
* structural equality and hashing (used by the rewrite engine to compare
  and deduplicate conjuncts);
* traversal (:meth:`Expr.walk`), substitution (:meth:`Expr.substitute`)
  and column-reference collection (:meth:`Expr.referenced_columns`);
* rendering back to SQL text (:meth:`Expr.to_sql`).

Aggregate calls (:class:`AggregateCall`) and window functions
(:class:`WindowFunction`) are represented as expression nodes so they can
appear anywhere in a select list, but they cannot be bound directly: the
plan builder extracts them and replaces them with plain column
references onto computed columns.
"""

from __future__ import annotations

import operator as _operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import PlanningError, TypeMismatchError
from repro.minidb.types import sql_and, sql_not, sql_or
from repro.minidb.vector import RowBatch

__all__ = [
    "BatchBound",
    "Expr",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "UnaryOp",
    "IsNull",
    "Case",
    "InList",
    "InSubquery",
    "FuncCall",
    "AggregateCall",
    "WindowFrame",
    "WindowFunction",
    "SortSpec",
    "CURRENT_ROW",
    "UNBOUNDED",
    "column",
    "lit",
    "true_positions",
    "and_all",
    "or_all",
]

#: A resolver maps a (qualifier, column-name) pair to a row position.
Resolver = Callable[[str | None, str], int]
#: A bound expression evaluates a row tuple to a value.
Bound = Callable[[tuple], Any]
#: A batch-bound expression evaluates a whole RowBatch to a value list.
BatchBound = Callable[[RowBatch], list]

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}
_ARITHMETIC_OPS = {"+", "-", "*", "/"}
_LOGICAL_OPS = {"and", "or"}

#: Comparison kernels for the vectorized evaluator (NULL handled by the
#: surrounding comprehension, so these see only non-NULL operands).
_COMPARE_FN = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}
#: NULL-propagating arithmetic kernels; "/" keeps the scalar `_arith`
#: path for its division-by-zero and integer-division semantics.
_ARITH_FN = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
}


def true_positions(values: list) -> list[int]:
    """Row positions where a batch kernel's result is TRUE.

    The selection vector of a predicate (NULL and FALSE both reject).
    """
    return [i for i, value in enumerate(values) if value is True]


class Expr:
    """Base class for all scalar expression nodes."""

    __slots__ = ()

    def bind(self, resolver: Resolver) -> Bound:
        """Compile this expression into a closure evaluating one row."""
        raise NotImplementedError

    def bind_batch(self, resolver: Resolver) -> BatchBound:
        """Compile this expression into a whole-batch evaluator.

        Returns a callable mapping a :class:`RowBatch` to a list of one
        value per row, with semantics identical to applying the
        :meth:`bind` closure row by row. Nodes with a vectorized kernel
        override :meth:`_bind_batch_fast`; everything else applies the
        row-bound closure elementwise.
        """
        fast = self._bind_batch_fast(resolver)
        if fast is not None:
            return fast
        bound = self.bind(resolver)

        def elementwise(batch: RowBatch) -> list:
            return [bound(row) for row in batch.rows()]

        return elementwise

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound | None:
        """Vectorized kernel for this node, or None to apply :meth:`bind`
        elementwise."""
        return None

    def children(self) -> Sequence["Expr"]:
        """Direct sub-expressions, for traversal."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def substitute(self, mapping: Mapping["Expr", "Expr"]) -> "Expr":
        """Return a copy with every node found in *mapping* replaced.

        Matching is by structural equality, applied top-down: once a node
        is replaced, its subtree is not visited further.
        """
        if self in mapping:
            return mapping[self]
        return self._rebuild(
            tuple(child.substitute(mapping) for child in self.children()))

    def _rebuild(self, children: tuple["Expr", ...]) -> "Expr":
        """Return a copy of this node with *children* as sub-expressions."""
        if not children:
            return self
        raise NotImplementedError(type(self).__name__)

    def referenced_columns(self) -> set["ColumnRef"]:
        """Every :class:`ColumnRef` appearing anywhere in the tree."""
        return {node for node in self.walk() if isinstance(node, ColumnRef)}

    def to_sql(self) -> str:
        """Render this expression as SQL text."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True, slots=True)
class ColumnRef(Expr):
    """A reference to ``qualifier.name`` (qualifier optional)."""

    name: str
    qualifier: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        if self.qualifier is not None:
            object.__setattr__(self, "qualifier", self.qualifier.lower())

    def bind(self, resolver: Resolver) -> Bound:
        position = resolver(self.qualifier, self.name)
        return lambda row: row[position]

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound:
        position = resolver(self.qualifier, self.name)
        return lambda batch: batch.columns[position]

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def unqualified(self) -> "ColumnRef":
        """The same reference with the qualifier stripped."""
        return ColumnRef(self.name)


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    """A constant. ``value`` follows the conventions in ``types``."""

    value: Any

    def bind(self, resolver: Resolver) -> Bound:
        value = self.value
        return lambda row: value

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound:
        value = self.value
        return lambda batch: [value] * batch.length

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise TypeMismatchError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int):
            return left // right if left % right == 0 else result
        return result
    raise AssertionError(op)


def _compare(op: str, left: Any, right: Any) -> bool | None:
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise AssertionError(op)


@dataclass(frozen=True, slots=True)
class BinaryOp(Expr):
    """A binary operator: comparison, arithmetic, AND/OR."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        op = self.op.lower() if self.op.isalpha() else self.op
        if op == "<>":
            op = "!="
        if op not in _COMPARISON_OPS | _ARITHMETIC_OPS | _LOGICAL_OPS:
            raise PlanningError(f"unknown binary operator {self.op!r}")
        object.__setattr__(self, "op", op)

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        return BinaryOp(self.op, children[0], children[1])

    def bind(self, resolver: Resolver) -> Bound:
        op = self.op
        left = self.left.bind(resolver)
        right = self.right.bind(resolver)
        if op == "and":
            return lambda row: sql_and(left(row), right(row))
        if op == "or":
            return lambda row: sql_or(left(row), right(row))
        if op in _COMPARISON_OPS:
            return lambda row: _compare(op, left(row), right(row))
        return lambda row: _arith(op, left(row), right(row))

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound:
        op = self.op
        left = self.left.bind_batch(resolver)
        right = self.right.bind_batch(resolver)
        if op == "and":
            def kleene_and(batch: RowBatch) -> list:
                return [False if a is False or b is False
                        else None if a is None or b is None
                        else True
                        for a, b in zip(left(batch), right(batch))]
            return kleene_and
        if op == "or":
            def kleene_or(batch: RowBatch) -> list:
                return [True if a is True or b is True
                        else None if a is None or b is None
                        else False
                        for a, b in zip(left(batch), right(batch))]
            return kleene_or
        if op == "/":
            return lambda batch: [_arith("/", a, b)
                                  for a, b in zip(left(batch), right(batch))]
        fn = _COMPARE_FN[op] if op in _COMPARISON_OPS else _ARITH_FN[op]
        # Hoist literal operands out of the comprehension: column-vs-
        # constant is by far the most common shape in rewrite output
        # (``rtime <= t``, ``reader = 'rdr-3'``).
        if isinstance(self.right, Literal):
            constant = self.right.value
            if constant is None:
                return lambda batch: [None] * batch.length
            return lambda batch: [None if v is None else fn(v, constant)
                                  for v in left(batch)]
        if isinstance(self.left, Literal):
            constant = self.left.value
            if constant is None:
                return lambda batch: [None] * batch.length
            return lambda batch: [None if v is None else fn(constant, v)
                                  for v in right(batch)]
        return lambda batch: [None if a is None or b is None else fn(a, b)
                              for a, b in zip(left(batch), right(batch))]

    def to_sql(self) -> str:
        op = self.op.upper() if self.op in _LOGICAL_OPS else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    """Unary NOT or arithmetic negation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        op = self.op.lower()
        if op not in ("not", "-"):
            raise PlanningError(f"unknown unary operator {self.op!r}")
        object.__setattr__(self, "op", op)

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        return UnaryOp(self.op, children[0])

    def bind(self, resolver: Resolver) -> Bound:
        operand = self.operand.bind(resolver)
        if self.op == "not":
            return lambda row: sql_not(operand(row))

        def negate(row: tuple) -> Any:
            value = operand(row)
            return None if value is None else -value

        return negate

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound:
        operand = self.operand.bind_batch(resolver)
        if self.op == "not":
            return lambda batch: [None if v is None else not v
                                  for v in operand(batch)]
        return lambda batch: [None if v is None else -v
                              for v in operand(batch)]

    def to_sql(self) -> str:
        if self.op == "not":
            return f"(NOT {self.operand.to_sql()})"
        return f"(-{self.operand.to_sql()})"


@dataclass(frozen=True, slots=True)
class IsNull(Expr):
    """``operand IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        return IsNull(children[0], self.negated)

    def bind(self, resolver: Resolver) -> Bound:
        operand = self.operand.bind(resolver)
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound:
        operand = self.operand.bind_batch(resolver)
        if self.negated:
            return lambda batch: [v is not None for v in operand(batch)]
        return lambda batch: [v is None for v in operand(batch)]

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {keyword})"


@dataclass(frozen=True, slots=True)
class Case(Expr):
    """Searched CASE: ``CASE WHEN c THEN v ... [ELSE e] END``."""

    whens: tuple[tuple[Expr, Expr], ...]
    else_result: Expr | None = None

    def children(self) -> Sequence[Expr]:
        flat: list[Expr] = []
        for condition, result in self.whens:
            flat.append(condition)
            flat.append(result)
        if self.else_result is not None:
            flat.append(self.else_result)
        return flat

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        pair_count = len(self.whens)
        whens = tuple(
            (children[2 * i], children[2 * i + 1]) for i in range(pair_count))
        else_result = children[-1] if self.else_result is not None else None
        return Case(whens, else_result)

    def bind(self, resolver: Resolver) -> Bound:
        bound_whens = [(c.bind(resolver), r.bind(resolver))
                       for c, r in self.whens]
        bound_else = (self.else_result.bind(resolver)
                      if self.else_result is not None else None)

        def evaluate(row: tuple) -> Any:
            for condition, result in bound_whens:
                if condition(row) is True:
                    return result(row)
            if bound_else is not None:
                return bound_else(row)
            return None

        return evaluate

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound:
        """Selection-vector kernel.

        Each WHEN condition sees only the rows no earlier arm took, and
        each THEN / ELSE only the rows that select it, so an arm that
        would raise on a row it never receives (``CASE WHEN b = 0 THEN 0
        ELSE a / b END``) stays as silent as in the row evaluator.
        Literal arms are stored straight into the output.
        """
        def arm(result: Expr) -> tuple[bool, Any]:
            if isinstance(result, Literal):
                return True, result.value
            return False, result.bind_batch(resolver)

        arms = [(condition.bind_batch(resolver), *arm(result))
                for condition, result in self.whens]
        else_literal, else_payload = arm(
            self.else_result if self.else_result is not None
            else Literal(None))

        def evaluate(batch: RowBatch) -> list:
            out = [else_payload if else_literal else None] * batch.length
            # ``current`` holds the rows still undecided; ``rows`` maps
            # its positions back to the batch's (None = identity).
            current, rows = batch, None
            for index, (condition, literal, payload) in enumerate(arms):
                hits = true_positions(condition(current))
                if not hits:
                    continue
                everything = len(hits) == current.length
                targets = hits if rows is None else [rows[i] for i in hits]
                if literal:
                    for target in targets:
                        out[target] = payload
                else:
                    values = payload(current if everything
                                     else current.take(hits))
                    for target, value in zip(targets, values):
                        out[target] = value
                if everything:
                    return out
                if index + 1 < len(arms) or not else_literal:
                    taken = set(hits)
                    keep = [i for i in range(current.length)
                            if i not in taken]
                    rows = keep if rows is None else [rows[i] for i in keep]
                    current = current.take(keep)
            if not else_literal:
                values = else_payload(current)
                if rows is None:
                    return values
                for target, value in zip(rows, values):
                    out[target] = value
            return out

        return evaluate

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.whens:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.else_result is not None:
            parts.append(f"ELSE {self.else_result.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class InList(Expr):
    """``operand [NOT] IN (v1, v2, ...)`` with literal items."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, *self.items)

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        return InList(children[0], tuple(children[1:]), self.negated)

    def bind(self, resolver: Resolver) -> Bound:
        operand = self.operand.bind(resolver)
        bound_items = [item.bind(resolver) for item in self.items]
        negated = self.negated

        def evaluate(row: tuple) -> bool | None:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in bound_items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return evaluate

    def _bind_batch_fast(self, resolver: Resolver) -> BatchBound | None:
        if not all(isinstance(item, Literal) for item in self.items):
            return None
        operand = self.operand.bind_batch(resolver)
        values = [item.value for item in self.items]
        has_null_item = any(value is None for value in values)
        members = {value for value in values if value is not None}
        hit, miss = not self.negated, self.negated

        def evaluate(batch: RowBatch) -> list:
            return [None if v is None
                    else hit if v in members
                    else None if has_null_item
                    else miss
                    for v in operand(batch)]

        return evaluate

    def to_sql(self) -> str:
        body = ", ".join(item.to_sql() for item in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} ({body}))"


@dataclass(frozen=True, slots=True)
class InSubquery(Expr):
    """``operand [NOT] IN (SELECT ...)``.

    The subquery is an opaque SELECT AST (from ``minidb.sqlparse.ast``);
    the plan builder turns this node into a semi-join (or materializes
    the subquery when it is uncorrelated), so binding it directly is an
    error.
    """

    operand: Expr
    subquery: Any
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        return InSubquery(children[0], self.subquery, self.negated)

    def __hash__(self) -> int:
        # The subquery AST is mutable; hash it by identity.
        return hash(("insubquery", self.operand, id(self.subquery),
                     self.negated))

    def bind(self, resolver: Resolver) -> Bound:
        raise PlanningError(
            "IN (SELECT ...) must be planned as a semi-join; it cannot be "
            "evaluated as a scalar expression")

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        subquery_sql = getattr(self.subquery, "to_sql", lambda: "<subquery>")()
        return f"({self.operand.to_sql()} {keyword} ({subquery_sql}))"


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    regex_parts = ["^"]
    for char in pattern:
        if char == "%":
            regex_parts.append(".*")
        elif char == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(char))
    regex_parts.append("$")
    compiled = re.compile("".join(regex_parts), re.DOTALL)
    return lambda text: compiled.match(text) is not None


def _scalar_function(name: str, args: list[Bound]) -> Bound:
    if name == "coalesce":
        def coalesce(row: tuple) -> Any:
            for arg in args:
                value = arg(row)
                if value is not None:
                    return value
            return None
        return coalesce
    if name == "abs":
        arg = args[0]
        return lambda row: None if arg(row) is None else abs(arg(row))
    if name == "length":
        arg = args[0]
        return lambda row: None if arg(row) is None else len(arg(row))
    if name == "lower":
        arg = args[0]
        return lambda row: None if arg(row) is None else arg(row).lower()
    if name == "upper":
        arg = args[0]
        return lambda row: None if arg(row) is None else arg(row).upper()
    if name == "substr":
        def substr(row: tuple) -> Any:
            text = args[0](row)
            start = args[1](row)
            if text is None or start is None:
                return None
            begin = max(start - 1, 0)
            if len(args) > 2:
                count = args[2](row)
                if count is None:
                    return None
                return text[begin:begin + count]
            return text[begin:]
        return substr
    if name == "like":
        def like(row: tuple) -> bool | None:
            text = args[0](row)
            pattern = args[1](row)
            if text is None or pattern is None:
                return None
            return _like_matcher(pattern)(text)
        return like
    if name == "nullif":
        def nullif(row: tuple) -> Any:
            first = args[0](row)
            second = args[1](row)
            if first is not None and first == second:
                return None
            return first
        return nullif
    if name == "least":
        def least(row: tuple) -> Any:
            values = [arg(row) for arg in args]
            if any(value is None for value in values):
                return None
            return min(values)
        return least
    if name == "greatest":
        def greatest(row: tuple) -> Any:
            values = [arg(row) for arg in args]
            if any(value is None for value in values):
                return None
            return max(values)
        return greatest
    raise PlanningError(f"unknown scalar function {name!r}")


@dataclass(frozen=True, slots=True)
class FuncCall(Expr):
    """A scalar function call. LIKE is desugared to ``like(text, pat)``."""

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())

    def children(self) -> Sequence[Expr]:
        return self.args

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        return FuncCall(self.name, tuple(children))

    def bind(self, resolver: Resolver) -> Bound:
        return _scalar_function(self.name,
                                [arg.bind(resolver) for arg in self.args])

    def to_sql(self) -> str:
        body = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name}({body})"


@dataclass(frozen=True, slots=True)
class AggregateCall(Expr):
    """An aggregate function in a grouped query: ``count(distinct x)`` etc.

    Supported: count, sum, avg, min, max; ``count(*)`` is represented with
    ``argument=None``.
    """

    name: str
    argument: Expr | None
    distinct: bool = False

    def __post_init__(self) -> None:
        name = self.name.lower()
        if name not in ("count", "sum", "avg", "min", "max"):
            raise PlanningError(f"unknown aggregate function {self.name!r}")
        object.__setattr__(self, "name", name)

    def children(self) -> Sequence[Expr]:
        return () if self.argument is None else (self.argument,)

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        argument = children[0] if children else None
        return AggregateCall(self.name, argument, self.distinct)

    def bind(self, resolver: Resolver) -> Bound:
        raise PlanningError(
            f"aggregate {self.name}() must be evaluated by an Aggregate plan "
            "node, not as a scalar expression")

    def to_sql(self) -> str:
        body = "*" if self.argument is None else self.argument.to_sql()
        if self.distinct:
            body = f"DISTINCT {body}"
        return f"{self.name}({body})"


#: Sentinel for UNBOUNDED PRECEDING / FOLLOWING frame bounds.
UNBOUNDED = "unbounded"
#: Sentinel for a CURRENT ROW frame bound.
CURRENT_ROW = "current_row"


@dataclass(frozen=True, slots=True)
class WindowFrame:
    """A ROWS or RANGE frame.

    ``start``/``end`` are offsets relative to the current row: negative
    for PRECEDING, positive for FOLLOWING, zero for CURRENT ROW, or the
    :data:`UNBOUNDED` sentinel. For RANGE frames the offsets are in units
    of the (single) ORDER BY expression.
    """

    mode: str  # "rows" | "range"
    start: int | float | str
    end: int | float | str

    def __post_init__(self) -> None:
        if self.mode not in ("rows", "range"):
            raise PlanningError(f"invalid frame mode {self.mode!r}")

    def _bound_sql(self, bound: int | float | str, *, is_start: bool) -> str:
        if bound == UNBOUNDED:
            return "UNBOUNDED PRECEDING" if is_start else "UNBOUNDED FOLLOWING"
        if bound == CURRENT_ROW or bound == 0:
            return "CURRENT ROW"
        if bound < 0:
            return f"{-bound} PRECEDING"
        return f"{bound} FOLLOWING"

    def to_sql(self) -> str:
        start = self._bound_sql(self.start, is_start=True)
        end = self._bound_sql(self.end, is_start=False)
        return f"{self.mode.upper()} BETWEEN {start} AND {end}"


@dataclass(frozen=True, slots=True)
class SortSpec:
    """One ORDER BY item: an expression plus direction."""

    expr: Expr
    ascending: bool = True

    def to_sql(self) -> str:
        direction = "ASC" if self.ascending else "DESC"
        return f"{self.expr.to_sql()} {direction}"


@dataclass(frozen=True, slots=True)
class WindowFunction(Expr):
    """``func(arg) OVER (PARTITION BY ... ORDER BY ... frame)``.

    This is the SQL/OLAP construct at the heart of the paper: cleansing
    rules compile into scalar aggregates over windows within EPC
    sequences. Like :class:`AggregateCall`, it is evaluated by a Window
    plan node, never bound directly.

    Supported functions: min, max, sum, count, avg, row_number, lag, lead.
    """

    name: str
    argument: Expr | None
    partition_by: tuple[Expr, ...] = ()
    order_by: tuple[SortSpec, ...] = ()
    frame: WindowFrame | None = None
    #: Row offset for lag/lead (ignored by the aggregates).
    offset: int = 1

    def __post_init__(self) -> None:
        name = self.name.lower()
        if name not in ("min", "max", "sum", "count", "avg", "row_number",
                        "lag", "lead"):
            raise PlanningError(f"unknown window function {self.name!r}")
        object.__setattr__(self, "name", name)
        if self.offset < 0:
            raise PlanningError("lag/lead offset must be non-negative")

    def children(self) -> Sequence[Expr]:
        flat: list[Expr] = []
        if self.argument is not None:
            flat.append(self.argument)
        flat.extend(self.partition_by)
        flat.extend(spec.expr for spec in self.order_by)
        return flat

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        cursor = 0
        argument = None
        if self.argument is not None:
            argument = children[cursor]
            cursor += 1
        partition = tuple(children[cursor:cursor + len(self.partition_by)])
        cursor += len(self.partition_by)
        order = tuple(
            SortSpec(children[cursor + i], spec.ascending)
            for i, spec in enumerate(self.order_by))
        return WindowFunction(self.name, argument, partition, order,
                              self.frame, self.offset)

    def bind(self, resolver: Resolver) -> Bound:
        raise PlanningError(
            f"window function {self.name}() OVER (...) must be evaluated by "
            "a Window plan node, not as a scalar expression")

    def to_sql(self) -> str:
        body = "*" if self.argument is None else self.argument.to_sql()
        if self.name == "row_number":
            body = ""
        elif self.name in ("lag", "lead") and self.offset != 1:
            body = f"{body}, {self.offset}"
        clauses = []
        if self.partition_by:
            keys = ", ".join(expr.to_sql() for expr in self.partition_by)
            clauses.append(f"PARTITION BY {keys}")
        if self.order_by:
            keys = ", ".join(spec.to_sql() for spec in self.order_by)
            clauses.append(f"ORDER BY {keys}")
        if self.frame is not None:
            clauses.append(self.frame.to_sql())
        return f"{self.name}({body}) OVER ({' '.join(clauses)})"


def column(name: str, qualifier: str | None = None) -> ColumnRef:
    """Shorthand constructor for :class:`ColumnRef`."""
    return ColumnRef(name, qualifier)


def lit(value: Any) -> Literal:
    """Shorthand constructor for :class:`Literal`."""
    return Literal(value)


def and_all(conjuncts: Sequence[Expr]) -> Expr | None:
    """AND together a sequence of expressions (None for an empty list)."""
    result: Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("and", result, conjunct)
    return result


def or_all(disjuncts: Sequence[Expr]) -> Expr | None:
    """OR together a sequence of expressions (None for an empty list)."""
    result: Expr | None = None
    for disjunct in disjuncts:
        result = disjunct if result is None else BinaryOp("or", result, disjunct)
    return result
