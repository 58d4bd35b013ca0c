"""Scalar expression AST and batch evaluator for minidb.

Expressions are immutable dataclass trees. They support:

* three-valued evaluation over a whole :class:`RowBatch`, via
  :meth:`Expr.bind_batch`, which compiles the tree into one kernel per
  node over column positions (resolved once, evaluated per batch) — the
  engine's only expression evaluator;
* structural equality and hashing (used by the rewrite engine to compare
  and deduplicate conjuncts);
* traversal (:meth:`Expr.walk`), substitution (:meth:`Expr.substitute`)
  and column-reference collection (:meth:`Expr.referenced_columns`);
* rendering back to SQL text (:meth:`Expr.to_sql`).

The kernels are checked against an interpreter that shares none of
their code: ``repro.fuzz.reference`` evaluates the same node classes
one row at a time from SQL's definitions.

Aggregate calls (:class:`AggregateCall`) and window functions
(:class:`WindowFunction`) are represented as expression nodes so they can
appear anywhere in a select list, but they cannot be bound directly: the
plan builder extracts them and replaces them with plain column
references onto computed columns.
"""

from __future__ import annotations

import functools
import operator as _operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import PlanningError, TypeMismatchError
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
#: NULL-propagating arithmetic kernels; "/" goes through `_divide` for
#: its division-by-zero and integer-division semantics.
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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
        """Compile this expression into a whole-batch kernel.

        Returns a callable mapping a :class:`RowBatch` to a list of one
        value per row (NULL is ``None``; predicates yield ``True``,
        ``False`` or ``None``). The list may be one of the batch's own
        columns, so callers must not mutate it. A kernel never mutates
        its batch, and a row's value never depends on the other rows of
        its batch.
        """
        raise NotImplementedError(type(self).__name__)

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
        found: set[ColumnRef] = set()
        pending: list[Expr] = [self]
        while pending:
            node = pending.pop()
            if isinstance(node, ColumnRef):
                found.add(node)
            else:
                pending.extend(node.children())
        return found

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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
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


def _divide(left: Any, right: Any) -> Any:
    """``left / right`` for non-NULL operands: an exact quotient of two
    integers stays an integer, anything else is a float."""
    if right == 0:
        raise TypeMismatchError("division by zero")
    if isinstance(left, int) and isinstance(right, int) \
            and left % right == 0:
        return left // right
    return left / right


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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
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
            return lambda batch: [None if a is None or b is None
                                  else _divide(a, b)
                                  for a, b in zip(left(batch), right(batch))]
        fn = _COMPARE_FN[op] if op in _COMPARISON_OPS else _ARITH_FN[op]
        # Hoist literal operands out of the comprehension: column-vs-
        # constant is by far the most common shape in rewrite output
        # (``rtime <= t``, ``reader = 'rdr-3'``). A NULL literal takes
        # the general path, so the other operand is still evaluated
        # (and still raises where it would).
        if isinstance(self.right, Literal) and self.right.value is not None:
            constant = self.right.value
            return lambda batch: [None if v is None else fn(v, constant)
                                  for v in left(batch)]
        if isinstance(self.left, Literal) and self.left.value is not None:
            constant = self.left.value
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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
        """Selection-vector kernel.

        Each WHEN condition sees only the rows no earlier arm took, and
        each THEN / ELSE only the rows that select it, so an arm that
        would raise on a row it never receives (``CASE WHEN b = 0 THEN 0
        ELSE a / b END``) stays silent.
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
    """``operand [NOT] IN (v1, v2, ...)``.

    The items are usually literals (one set probe per row); any other
    item is evaluated per row like the operand.
    """

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, *self.items)

    def _rebuild(self, children: tuple[Expr, ...]) -> Expr:
        return InList(children[0], tuple(children[1:]), self.negated)

    def bind_batch(self, resolver: Resolver) -> BatchBound:
        operand = self.operand.bind_batch(resolver)
        hit, miss = not self.negated, self.negated
        if not all(isinstance(item, Literal) for item in self.items):
            items = [item.bind_batch(resolver) for item in self.items]

            def evaluate_items(batch: RowBatch) -> list:
                rows = zip(*[item(batch) for item in items])
                return [None if v is None
                        else hit if any(c == v for c in candidates)
                        else None if None in candidates
                        else miss
                        for v, candidates in zip(operand(batch), rows)]

            return evaluate_items
        values = [item.value for item in self.items]
        has_null_item = any(value is None for value in values)
        members = {value for value in values if value is not None}

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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
        raise PlanningError(
            "IN (SELECT ...) must be planned as a semi-join; it cannot be "
            "evaluated as a scalar expression")

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        subquery_sql = getattr(self.subquery, "to_sql", lambda: "<subquery>")()
        return f"({self.operand.to_sql()} {keyword} ({subquery_sql}))"


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    """A LIKE *pattern* (``%`` any run, ``_`` any one character) as a
    regex, to be matched against the whole text."""
    parts = [".*" if char == "%" else "." if char == "_" else re.escape(char)
             for char in pattern]
    return re.compile("".join(parts), re.DOTALL)


def _like(text: str, pattern: str) -> bool:
    return _like_regex(pattern).fullmatch(text) is not None


def _null_propagating(fn: Callable[..., Any]) -> Callable:
    """A kernel builder applying *fn* to each row's arguments, or NULL
    when any of them is NULL."""
    def build(args: list[BatchBound]) -> BatchBound:
        if len(args) == 1:
            (arg,) = args
            return lambda batch: [None if v is None else fn(v)
                                  for v in arg(batch)]

        def evaluate(batch: RowBatch) -> list:
            return [None if None in values else fn(*values)
                    for values in zip(*[arg(batch) for arg in args])]

        return evaluate

    return build


def _coalesce(args: list[BatchBound]) -> BatchBound:
    """The first non-NULL argument. Each argument sees only the rows
    every earlier one left NULL, so ``coalesce(a, 1 / 0)`` raises only
    where ``a`` is NULL."""
    first, rest = args[0], args[1:]

    def evaluate(batch: RowBatch) -> list:
        out = first(batch)
        pending = [i for i, value in enumerate(out) if value is None]
        if not pending or not rest:
            return out
        out = list(out)  # the first argument may be a batch's own column
        for arg in rest:
            values = arg(batch.take(pending))
            for target, value in zip(pending, values):
                out[target] = value
            pending = [target for target, value in zip(pending, values)
                       if value is None]
            if not pending:
                break
        return out

    return evaluate


def _nullif(args: list[BatchBound]) -> BatchBound:
    first, second = args
    return lambda batch: [None if a is not None and a == b else a
                          for a, b in zip(first(batch), second(batch))]


def _substring(text: str, start: int, count: int | None = None) -> str:
    """SUBSTR: up to *count* characters (the rest of *text* without a
    count, none for a negative one) from the 1-based *start*; a *start*
    below 1 counts from 1."""
    begin = max(start - 1, 0)
    if count is None:
        return text[begin:]
    return text[begin:begin + max(count, 0)]


#: Scalar-function kernel builders, by name: each maps the argument
#: kernels to the call's kernel.
_FUNCTIONS: dict[str, Callable[[list[BatchBound]], BatchBound]] = {
    "coalesce": _coalesce,
    "abs": _null_propagating(abs),
    "length": _null_propagating(len),
    "lower": _null_propagating(str.lower),
    "upper": _null_propagating(str.upper),
    "substr": _null_propagating(_substring),
    "like": _null_propagating(_like),
    "nullif": _nullif,
    "least": _null_propagating(lambda *values: min(values)),
    "greatest": _null_propagating(lambda *values: max(values)),
}

#: Accepted argument counts: (fewest, most; None for no limit).
_ARITY = {
    "coalesce": (1, None),
    "abs": (1, 1),
    "length": (1, 1),
    "lower": (1, 1),
    "upper": (1, 1),
    "substr": (2, 3),
    "like": (2, 2),
    "nullif": (2, 2),
    "least": (1, None),
    "greatest": (1, None),
}


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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
        if self.name not in _FUNCTIONS:
            raise PlanningError(f"unknown scalar function {self.name!r}")
        fewest, most = _ARITY[self.name]
        if len(self.args) < fewest or most is not None \
                and len(self.args) > most:
            raise PlanningError(
                f"wrong number of arguments to {self.name}(): "
                f"{len(self.args)}")
        return _FUNCTIONS[self.name](
            [arg.bind_batch(resolver) for arg in self.args])

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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
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

    def bind_batch(self, resolver: Resolver) -> BatchBound:
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
