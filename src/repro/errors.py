"""Exception hierarchy shared by all repro subsystems.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class. Subsystems raise the most specific
subclass that applies; error messages always name the offending object
(table, column, rule, token) to make failures diagnosable without a
debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MiniDbError(ReproError):
    """Base class for errors raised by the minidb engine."""


class CatalogError(MiniDbError):
    """A table, column, or index was missing or already defined."""


class SchemaError(MiniDbError):
    """A schema definition or row value violated the declared schema."""


class TypeMismatchError(MiniDbError):
    """An expression combined values of incompatible SQL types."""


class SqlSyntaxError(MiniDbError):
    """The SQL text could not be tokenized or parsed.

    Attributes:
        line: 1-based line of the offending token, when known.
        column: 1-based column of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}, column {column})"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PlanningError(MiniDbError):
    """A semantically invalid query was handed to the planner."""


class ExecutionError(MiniDbError):
    """A runtime failure while executing a physical plan."""


class SnapshotError(MiniDbError):
    """An MVCC snapshot was used after release or outside its scope."""


class StorageError(MiniDbError):
    """The on-disk storage engine hit an invalid format or state."""


class StorageCorruptionError(StorageError):
    """A page or log record failed its checksum or structural checks."""


class RuleError(ReproError):
    """Base class for SQL-TS cleansing-rule errors."""


class RuleSyntaxError(RuleError):
    """The SQL-TS rule text could not be parsed."""


class RuleValidationError(RuleError):
    """A parsed rule violated a semantic constraint (e.g. two targets)."""


class RewriteError(ReproError):
    """The rewrite engine could not produce a correct rewritten query."""


class DataGenError(ReproError):
    """RFIDGen was configured inconsistently."""
