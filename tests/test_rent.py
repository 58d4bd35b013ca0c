"""Every definition in ``src/`` pays rent: something else names it.

Three static guards over the source tree, each a pass over the files
with :mod:`ast` and one word count (well under a second together):

* a non-dunder ``def`` or ``class`` in ``src/`` must be named, as a
  word, somewhere other than its own definition in ``src/``, ``tests/``,
  ``bench/`` or ``examples/`` — or sit in :data:`ALLOWED_UNNAMED` with
  its reason;
* a module-level import of a non-``__init__`` module must be used by
  that module or listed in its ``__all__`` (the ``F401`` lint that CI
  runs, kept where no linter is installed);
* every package under ``src/repro`` (and each top-level module) has a
  row in DESIGN.md §3's ledger, which says what depends on it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "tests", "bench", "examples")

#: Name -> why it stays although no other file names it. Empty: every
#: definition is named somewhere.
ALLOWED_UNNAMED: dict[str, str] = {}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _source_modules() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def _word_counts() -> Counter:
    this_file = Path(__file__).resolve()
    counts: Counter = Counter()
    for directory in CORPUS_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path.resolve() != this_file:
                counts.update(_WORD.findall(path.read_text()))
    return counts


def _definitions(tree: ast.AST) -> list[str]:
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


def test_every_definition_is_named_elsewhere():
    counts = _word_counts()
    defined: Counter = Counter()
    where: dict[str, str] = {}
    for path in _source_modules():
        for name in _definitions(ast.parse(path.read_text())):
            defined[name] += 1
            where.setdefault(name, str(path.relative_to(SRC)))
    unnamed = sorted(f"{where[name]}::{name}"
                     for name, count in defined.items()
                     if counts[name] <= count
                     and name not in ALLOWED_UNNAMED)
    assert not unnamed, (
        "definitions that no other file names (delete them, or add them "
        f"to ALLOWED_UNNAMED with a reason): {unnamed}")


def test_allowlist_entries_give_reasons_and_are_still_needed():
    counts = _word_counts()
    for name, reason in ALLOWED_UNNAMED.items():
        assert reason.strip(), f"{name} needs a reason"
        assert counts[name] <= 1, f"{name} is named elsewhere now"


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0]
            for alias in node.names if alias.name != "*"]


def _module_imports(tree: ast.Module) -> list[str]:
    """Names bound by imports in the module body, including those
    under a top-level ``if`` (``TYPE_CHECKING``) or ``try``."""
    names: list[str] = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend(_bound_names(node))
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)
    return names


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names read inside string annotations such as ``"RowBatch"``."""
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (*arguments.posonlyargs, *arguments.args,
                        *arguments.kwonlyargs, arguments.vararg,
                        arguments.kwarg):
                if arg is not None and arg.annotation is not None:
                    annotations.append(arg.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(inner.id for inner in ast.walk(parsed)
                             if isinstance(inner, ast.Name))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def test_no_unused_module_imports():
    unused = []
    for path in _source_modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used |= _annotation_names(tree) | _exported(tree)
        unused.extend(f"{path.relative_to(SRC)}: {name}"
                      for name in _module_imports(tree)
                      if name not in used)
    assert not unused, f"imports the module never uses: {sorted(unused)}"


def _ledger_rows() -> set[str]:
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 3."):design.index("## 4.")]
    return set(re.findall(r"^\| `([\w/.]+)` \|", section, re.MULTILINE))


def test_every_package_has_a_ledger_row():
    packages = {str(init.parent.relative_to(SRC)) + "/"
                for init in SRC.rglob("__init__.py")
                if init.parent != SRC}
    modules = {path.name for path in SRC.glob("*.py")
               if path.name != "__init__.py"}
    missing = sorted((packages | modules) - _ledger_rows())
    assert not missing, f"DESIGN.md §3 ledger lacks rows for {missing}"
