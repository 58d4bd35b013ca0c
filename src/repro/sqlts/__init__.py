"""Extended SQL-TS cleansing-rule language (Section 4 of the paper).

Rules are written in the paper's grammar::

    DEFINE      rule_name
    ON          table_name
    FROM        table_name
    CLUSTER BY  cluster_key
    SEQUENCE BY sequence_key
    AS          (A, B, *C)
    WHERE       condition
    ACTION      DELETE ref | KEEP ref | MODIFY ref.col = expr [, ...]

and compiled to SQL/OLAP window-function templates for efficient
single-pass evaluation inside minidb.
"""

from repro.sqlts.model import Action, ActionKind, CleansingRule, PatternRef
from repro.sqlts.parser import parse_rule
from repro.sqlts.compiler import CompiledRule, compile_rule
from repro.sqlts.registry import RuleRegistry

__all__ = [
    "Action",
    "ActionKind",
    "CleansingRule",
    "PatternRef",
    "parse_rule",
    "CompiledRule",
    "compile_rule",
    "RuleRegistry",
]
