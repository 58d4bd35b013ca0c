"""Cleansed-region cache with predicate subsumption (semantic caching).

The expanded rewrite materializes ``Φ_C(σ_ec(R))`` — the cleansed
version of exactly the region of the reads table the query (and its
rules' context needs) can touch. Analytic workloads re-issue near-
identical queries over overlapping windows, so consecutive queries very
often need a region *contained* in one already cleansed. This module
caches those regions and serves subsumed queries from them, skipping
the sort + window pass entirely.

Correctness of serving query ``Q_new`` (condition ``s_new``, expanded
condition ``ec_new``) from a cached region ``W = Φ_C(σ_ec_old(R))``
when ``ec_new ⇒ ec_old``:

* every row that can satisfy ``s_new`` after cleansing satisfies the
  stable part of ``ec_new`` before cleansing (it is a disjunct of the
  OR-part and implies the factored bounds), hence is in ``σ_ec_old(R)``;
* each such row's *context rows* satisfy some context condition
  ``cc ⊆ ec_new ⇒ ec_old``, so they are in ``σ_ec_old(R)`` too, and the
  row's window frames over ``σ_ec_old(R)`` equal its frames over ``R``
  (frame membership depends only on cluster/sequence values, and a
  subset input can only lose frame rows — none of which are lost here);
  its cleansed values in ``W`` therefore equal those in ``Φ_C(R)``;
* the full original condition ``s`` is re-applied over the cached
  (already cleansed) rows, so the extra rows ``W`` holds beyond
  ``Q_new``'s region are filtered out.

The subsumption test ``ec_new ⇒ ec_old`` works conjunct-by-conjunct
with three weapons: structural equality, numeric bound entailment
through the difference-constraint closure of
:class:`~repro.rewrite.transitivity.DifferenceClosure`, and disjunction
handling (a goal OR needs one entailed disjunct; a fact OR is
case-split, every branch must entail the goal).

Entries are keyed on the rule set (the registry's
:attr:`~repro.sqlts.registry.RuleRegistry.version`, which moves on every
rule or view change, so a rule redefined under its old name never
reaches the old rule's region) and the source table (object identity +
the row count it had when the region was cleansed). A
catalog table only grows, so the rows appended since are
``rows[source_rows:]``, and a stale entry is **patched**: the dirty
cluster-key values (those appearing in appended rows) are re-cleansed
through the caller-supplied ``patcher`` and spliced over the stale
sequences, which is sound because Φ_C windows never cross cluster-key
partitions — untouched sequences cleanse to exactly their cached rows.

A region is derived state, so it is private: a
:class:`~repro.minidb.table.PrivateTable` that is never in the catalog,
so it is never logged, checkpointed, pinned by a snapshot or visible to
SQL.
Its statistics are the one thing it shares with the database — the
planner costs a scan of it through ``database.stats``, which is keyed by
name (see :func:`~repro.minidb.table.private_table`). Regions live
under a byte budget with LRU eviction.
"""

from __future__ import annotations

import bisect
import itertools
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.linear import LinearForm, normalize_comparison
from repro.minidb.engine import Database
from repro.minidb.expressions import BinaryOp, Expr, Literal
from repro.minidb.plan.builder import split_conjuncts
from repro.minidb.schema import Column, TableSchema
from repro.minidb.table import PrivateTable, Table, private_table
from repro.minidb.types import sort_key
from repro.rewrite.transitivity import DifferenceClosure, ZERO_VAR

__all__ = ["CacheOptions", "CleansingRegionCache", "RegionEntry",
           "conjunction_implies"]

#: A patcher re-cleanses the given dirty cluster-key values under the
#: entry's own ec and returns the resulting rows (region column order).
Patcher = Callable[["RegionEntry", Sequence[object]], list[tuple]]

#: Global sequence for region names; engines sharing one database must
#: never collide in its statistics repository.
_SEQUENCE = itertools.count(1)

#: Recursion cap for OR-fact case splits (ec conjunctions are tiny; the
#: cap only guards against pathological hand-built predicates).
_MAX_SPLIT_DEPTH = 4


# ---------------------------------------------------------------------------
# Predicate subsumption
# ---------------------------------------------------------------------------


def _is_or(expr: Expr) -> bool:
    return isinstance(expr, BinaryOp) and expr.op == "or"


def _disjuncts(expr: Expr) -> list[Expr]:
    if _is_or(expr):
        return _disjuncts(expr.left) + _disjuncts(expr.right)
    return [expr]


def _edge_entails(closed, form: LinearForm, goal_strict: bool) -> bool:
    """Does the closed constraint graph entail ``form <= 0`` (``< 0``
    when *goal_strict*)? Mirrors ``DifferenceClosure._ingest_inequality``:
    only <=2 unit-coefficient variables map onto a graph edge."""
    refs = list(form.coeffs.items())
    if not refs:
        constant = form.constant
        return constant < 0 or (constant == 0 and not goal_strict)
    if len(refs) == 1:
        ref, coeff = refs[0]
        if coeff == 1:
            edge = (ref, ZERO_VAR)
        elif coeff == -1:
            edge = (ZERO_VAR, ref)
        else:
            return False
    elif len(refs) == 2:
        (ref_a, coeff_a), (ref_b, coeff_b) = refs
        if coeff_a == 1 and coeff_b == -1:
            edge = (ref_a, ref_b)
        elif coeff_a == -1 and coeff_b == 1:
            edge = (ref_b, ref_a)
        else:
            return False
    else:
        return False
    derived = closed.get(edge)
    if derived is None:
        return False
    limit = -form.constant
    if derived.value < limit:
        return True
    return derived.value == limit and (derived.strict or not goal_strict)


def _closure_entails(atoms: Sequence[Expr], goal: Expr) -> bool:
    """Numeric entailment of one comparison atom from plain fact atoms."""
    normalized = normalize_comparison(goal)
    if normalized is None:
        return False
    form, op = normalized
    closure = DifferenceClosure()
    usable = False
    for atom in atoms:
        usable = closure.add_atom(atom) or usable
    if not usable:
        return False
    closed = closure.close()
    if op == "=":
        return (_edge_entails(closed, form, False)
                and _edge_entails(closed, form.negate(), False))
    if op == "!=":
        return False
    if op in (">", ">="):
        form = form.negate()
        op = "<" if op == ">" else "<="
    return _edge_entails(closed, form, op == "<")


def _implies(facts: list[Expr], goal: Expr, depth: int) -> bool:
    if isinstance(goal, Literal) and goal.value is True:
        return True
    if any(goal == fact for fact in facts):
        return True
    plain = [fact for fact in facts if not _is_or(fact)]
    if _is_or(goal):
        for disjunct in _disjuncts(goal):
            if all(_implies(facts, conjunct, depth)
                   for conjunct in split_conjuncts(disjunct)):
                return True
    elif _closure_entails(plain, goal):
        return True
    if depth >= _MAX_SPLIT_DEPTH:
        return False
    ors = [fact for fact in facts if _is_or(fact)]
    for index, fact in enumerate(ors):
        rest = plain + ors[:index] + ors[index + 1:]
        if all(_implies(rest + split_conjuncts(disjunct), goal, depth + 1)
               for disjunct in _disjuncts(fact)):
            return True
    return False


def conjunction_implies(facts: Sequence[Expr],
                        goals: Sequence[Expr]) -> bool:
    """Does ``AND(facts)`` logically imply ``AND(goals)``?

    Sound but incomplete: True only when every goal conjunct is provably
    entailed (structurally, through the difference closure, or by OR
    case analysis); a False answer merely declines the cache hit.
    """
    fact_list = [atom for fact in facts for atom in split_conjuncts(fact)]
    return all(_implies(fact_list, atom, 0)
               for goal in goals for atom in split_conjuncts(goal))


# ---------------------------------------------------------------------------
# The region cache
# ---------------------------------------------------------------------------


@dataclass
class CacheOptions:
    """Knobs for the cleansed-region cache.

    The cache is opt-in: pass an instance to
    :class:`~repro.rewrite.engine.DeferredCleansingEngine` to enable it.
    The default-off posture keeps plan-shape tests and the paper's
    experiment harness byte-identical to the uncached engine.
    """

    #: Byte budget across all materialized regions (LRU-evicted beyond).
    max_bytes: int = 64 << 20
    #: Hard cap on the number of cached regions.
    max_entries: int = 16
    #: Patch-vs-invalidate threshold: an append dirtying more than this
    #: fraction of the region's sequences falls back to full
    #: invalidation (re-cleansing most of the region would cost about
    #: as much as a rebuild).
    max_patch_fraction: float = 0.5


@dataclass
class RegionEntry:
    """One materialized cleansed region."""

    #: The reads table the region was cleansed from.
    source_table: Table
    #: The rule set the region was cleansed under: the engine passes its
    #: registry's ``version``; the cache only compares keys for equality.
    rule_key: object
    #: Top-level conjuncts of the ec the region was materialized under.
    ec_conjuncts: list[Expr]
    #: Private (never cataloged, storage-less) table of the cleansed rows.
    table: PrivateTable
    #: Estimated in-memory footprint of the rows.
    nbytes: int
    #: CLUSTER BY column of the rules (patch granularity); None disables
    #: patching for this entry.
    cluster_key: str | None = None
    #: ``len(source_table.rows)`` when the region was cleansed or last
    #: patched: the cursor past which the source's rows are new.
    #: Staleness is decided on it alone, so schema-only changes such as
    #: CREATE INDEX never invalidate a cleansed region — cleansing
    #: depends on row data, not on access paths.
    source_rows: int = 0
    #: The run index: cluster-key value -> ``(start, end)`` slice of the
    #: region's rows holding that sequence, in row (= key sort) order.
    #: None when the region cannot be patched (no usable cluster key or
    #: rows not laid out as sorted contiguous runs).
    runs: dict[object, tuple[int, int]] | None = None


def _bound_column(conjuncts: Sequence[Expr]) -> str | None:
    """The first column carrying a unit-coefficient range bound in
    *conjuncts* — the natural index key for the materialized region,
    since subsumed probes filter on a tighter range of that column."""
    for conjunct in conjuncts:
        normalized = normalize_comparison(conjunct)
        if normalized is None:
            continue
        form, op = normalized
        if op not in ("<", "<=", ">", ">="):
            continue
        ref = form.single_reference() or form.negate().single_reference()
        if ref is not None:
            return ref.name
    return None


def _sorted_runs(rows: list[tuple], position: int) -> dict | None:
    """Key -> ``(start, end)`` slice of each run of equal keys at
    *position*, in row order; None unless the rows are sorted by that
    key (rules without window columns emit unsorted regions, which
    cannot be spliced)."""
    runs: dict = {}
    previous = None
    start = 0
    for end in range(1, len(rows) + 1):
        if end < len(rows) and rows[end][position] == rows[start][position]:
            continue
        key = rows[start][position]
        ordered = sort_key(key)
        if key in runs or previous is not None and ordered < previous:
            return None
        runs[key] = (start, end)
        previous = ordered
        start = end
    return runs


def _splice(rows: list[tuple], runs: dict, dirty_keys: list,
            fresh_rows: list[tuple], position: int) \
        -> tuple[list[tuple], dict]:
    """*rows* with each dirty key's run replaced by its run in
    *fresh_rows*, and the run index of the result.

    *dirty_keys* are in sort order and *fresh_rows* are sorted runs of
    dirty keys. A dirty key without a run in *rows* is inserted where
    it sorts; one without fresh rows leaves the region. Untouched runs
    keep their rows and shift by the rows gained or lost before them.
    """
    fresh = _sorted_runs(fresh_rows, position)
    pieces: list[list[tuple]] = []
    new_runs: dict = {}
    untouched = iter(runs.items())
    pending = next(untouched, None)
    cursor = shift = 0
    for key in dirty_keys:
        if key in runs:
            start, end = runs[key]
        else:
            start = end = bisect.bisect_left(
                rows, sort_key(key), lo=cursor,
                key=lambda row: sort_key(row[position]))
        while pending is not None and pending[1][0] < start:
            other, (low, high) = pending
            new_runs[other] = (low + shift, high + shift)
            pending = next(untouched, None)
        if start != end:  # *pending* is this key's own stale run
            pending = next(untouched, None)
        pieces.append(rows[cursor:start])
        if key in fresh:
            low, high = fresh[key]
            pieces.append(fresh_rows[low:high])
            new_runs[key] = (start + shift, start + shift + high - low)
            shift += high - low
        shift -= end - start
        cursor = end
    pieces.append(rows[cursor:])
    while pending is not None:
        other, (low, high) = pending
        new_runs[other] = (low + shift, high + shift)
        pending = next(untouched, None)
    return list(itertools.chain.from_iterable(pieces)), new_runs


def _estimate_bytes(rows: list[tuple]) -> int:
    """Sampled ``sys.getsizeof`` estimate of a row list's footprint."""
    if not rows:
        return 256
    step = max(1, len(rows) // 100)
    sample = rows[::step][:100]
    per_row = sum(
        sys.getsizeof(row) + sum(sys.getsizeof(value) for value in row)
        for row in sample) / len(sample)
    return int(per_row * len(rows)) + 256


class CleansingRegionCache:
    """LRU cache of materialized ``Φ_C(σ_ec(R))`` regions.

    ``lookup`` first drops stale entries it cannot patch (source table
    replaced in the catalog, or no run index), then — among entries for
    the same table and rule list — returns the smallest region whose ec
    is implied by the probe's ec, patching it first if rows arrived.
    ``store`` materializes rows into a fresh private table, analyzed
    into ``database.stats``, and evicts least-recently-used regions
    beyond the byte/entry budget.
    """

    def __init__(self, database: Database,
                 options: CacheOptions | None = None) -> None:
        self.database = database
        self.options = options or CacheOptions()
        self._entries: OrderedDict[str, RegionEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        #: Incremental-maintenance counters: entries patched in place
        #: and cluster-key sequences re-cleansed by those patches.
        self.patches = 0
        self.sequences_recleaned = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def _is_orphaned(self, entry: RegionEntry) -> bool:
        """Source table dropped or replaced in the catalog."""
        catalog = self.database.catalog
        name = entry.source_table.name
        return name not in catalog \
            or catalog.table(name) is not entry.source_table

    def _is_stale(self, entry: RegionEntry) -> bool:
        # Only the row count matters. A schema-only change (CREATE
        # INDEX) cannot alter what Φ_C(σ_ec(R)) evaluates to, so the
        # region stays servable.
        if len(entry.source_table.rows) != entry.source_rows:
            return True
        return self._is_orphaned(entry)

    def _drop(self, name: str, *, evicted: bool) -> None:
        del self._entries[name]
        self.database.stats.invalidate(name)
        if evicted:
            self.evictions += 1
        else:
            self.invalidations += 1

    def _prune_stale(self) -> None:
        for name in list(self._entries):
            entry = self._entries[name]
            if not self._is_stale(entry):
                continue
            if not self._is_orphaned(entry) and entry.runs is not None \
                    and len(entry.source_table.rows) > entry.source_rows:
                continue
            self._drop(name, evicted=False)

    # ------------------------------------------------------------------
    # Patch-vs-invalidate
    # ------------------------------------------------------------------

    def _dirty_keys(self, entry: RegionEntry) -> tuple[int, list] | None:
        """``(row count, dirty keys in sort order)`` when *entry* can be
        patched back to freshness, else None (invalidate).

        Patchable means: the region has a run index, no appended row
        has a NULL cluster key (an IN list can never re-select a NULL
        sequence), and the dirty keys are at most
        ``max_patch_fraction`` of the region's sequences after the
        append. Reads only the appended rows.
        """
        runs = entry.runs
        if runs is None:
            return None
        table = entry.source_table
        end = len(table.rows)
        key_position = table.schema.position_of(entry.cluster_key)
        dirty = {row[key_position]
                 for row in table.rows[entry.source_rows:end]}
        if None in dirty:
            return None
        total = len(runs) + sum(1 for key in dirty if key not in runs)
        if total and len(dirty) / total > self.options.max_patch_fraction:
            return None
        return end, sorted(dirty, key=sort_key)

    def _patch(self, entry: RegionEntry, patcher: Patcher) -> bool:
        """Re-cleanse *entry*'s dirty sequences and splice them in.

        Soundness: rules are per-sequence (windows partition by the
        cluster key), so for every non-dirty key the cached run equals
        its full-recompute run, and the patcher's output — the expanded
        subplan restricted to the dirty keys, under the entry's own ec —
        equals the full recompute's runs for the dirty keys. The region
        is sorted contiguous runs in key order, so replacing each dirty
        run by its fresh rows (an empty run when the rules now delete
        the whole sequence) and inserting a new key's rows at its sorted
        place reproduces the full recompute byte for byte.

        Cost: the appended rows, the patcher's read of the dirty
        sequences, one list splice and a walk of the run index.
        """
        plan = self._dirty_keys(entry)
        if plan is None:
            return False
        end, dirty_keys = plan
        if dirty_keys:
            region = entry.table
            position = region.schema.position_of(entry.cluster_key)
            fresh_rows = patcher(entry, dirty_keys)
            fresh_rows.sort(key=lambda row: sort_key(row[position]))
            rows, runs = _splice(region.rows, entry.runs, dirty_keys,
                                 fresh_rows, position)
            region.replace_rows(rows)
            entry.runs = runs
            self.database.stats.rebase(region)
            entry.nbytes = _estimate_bytes(rows)
            self.sequences_recleaned += len(dirty_keys)
        entry.source_rows = end
        self.patches += 1
        return True

    # ------------------------------------------------------------------

    def lookup(self, table: Table, rule_key: object,
               ec_conjuncts: Sequence[Expr], *,
               patcher: Patcher) -> RegionEntry | None:
        """The smallest region subsuming *ec_conjuncts*, or None.

        Fresh subsuming entries win outright. Stale ones are considered
        next (smallest first): the first that *patcher* brings back to
        freshness is served; ones that decline are invalidated.
        """
        self._prune_stale()
        fresh: tuple[str, RegionEntry] | None = None
        stale: list[tuple[str, RegionEntry]] = []
        for name, entry in self._entries.items():
            if entry.source_table is not table \
                    or entry.rule_key != rule_key:
                continue
            if not conjunction_implies(ec_conjuncts, entry.ec_conjuncts):
                continue
            if self._is_stale(entry):
                stale.append((name, entry))
            elif fresh is None or entry.nbytes < fresh[1].nbytes:
                fresh = (name, entry)
        if fresh is not None:
            self._entries.move_to_end(fresh[0])
            self.hits += 1
            return fresh[1]
        for name, entry in sorted(stale, key=lambda pair: pair[1].nbytes):
            if self._patch(entry, patcher):
                self._entries.move_to_end(name)
                self.hits += 1
                return entry
            self._drop(name, evicted=False)
        self.misses += 1
        return None

    def store(self, table: Table, rule_key: object,
              ec_conjuncts: Sequence[Expr],
              rows: list[tuple], *,
              cluster_key: str | None = None) -> RegionEntry | None:
        """Materialize *rows* as a cached region; None if over budget."""
        nbytes = _estimate_bytes(rows)
        if nbytes > self.options.max_bytes:
            return None
        schema = TableSchema(Column(column.name, column.sql_type)
                             for column in table.schema)
        cached = private_table(f"region {next(_SEQUENCE)}", schema)
        name = cached.name
        cached.bulk_load(rows)
        bound = _bound_column(ec_conjuncts)
        if bound is not None and bound in schema.names:
            cached.create_index(bound)
        self.database.stats.analyze(cached)
        runs = None
        if cluster_key is not None and cluster_key in schema.names:
            runs = _sorted_runs(cached.rows,
                                schema.position_of(cluster_key))
        entry = RegionEntry(
            source_table=table, rule_key=rule_key,
            ec_conjuncts=list(ec_conjuncts),
            table=cached, nbytes=nbytes,
            cluster_key=cluster_key, source_rows=len(table.rows),
            runs=runs)
        self._entries[name] = entry
        self.stores += 1
        while len(self._entries) > self.options.max_entries \
                or self.total_bytes() > self.options.max_bytes:
            oldest = next(iter(self._entries))
            if self._entries[oldest] is entry:
                break
            self._drop(oldest, evicted=True)
        return entry

    def clear(self) -> None:
        for name in list(self._entries):
            self._drop(name, evicted=False)
