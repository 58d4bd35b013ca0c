"""Crash fault injection for the storage engine.

The crash-recovery test rig works by *killing writes at named fault
points*: setting ``REPRO_STORAGE_CRASH=<point>`` (or ``<point>:<n>`` to
crash on the n-th hit) makes the storage layer raise
:class:`InjectedCrash` the moment execution reaches that point. The
exception derives from ``BaseException`` so no ``except Exception``
handler on the way out can accidentally "survive" the power cut; tests
catch it explicitly, abandon the database object without closing it, and
reopen the files to exercise recovery.

Fault-point catalog (see DESIGN.md §11 for the protocol each interrupts):

====================================  ==================================
``wal-record-torn``                   half of a WAL op record is written,
                                      then the crash fires (torn record;
                                      the CRC must reject the tail)
``wal-before-commit``                 op records are durable but the
                                      commit record was never written
``wal-after-commit``                  the commit record is fsync'd but
                                      no page was touched yet — recovery
                                      must redo the batch
``page-torn``                         half of a data page is written,
                                      then the crash fires (torn page;
                                      only COW pages are ever at risk)
``page-flush``                        immediately after one full page
                                      write (pages beyond it unwritten)
``checkpoint-before-manifest``        dirty pages flushed, but the old
                                      manifest is still current
``checkpoint-after-manifest``         the new manifest is committed but
                                      the WAL was not truncated —
                                      replay must be idempotent
``wal-group-pending``                 group commit: the COMMIT record is
                                      written but its fsync is deferred
                                      to a later coalesced sync
``wal-group-sync``                    group commit: immediately after a
                                      coalesced fsync covering one or
                                      more pending commits
``compaction-move``                   checkpoint compaction: relocated
                                      page copies are flushed, but the
                                      manifest still references the old
                                      page ids (originals untouched)
====================================  ==================================

The hit counters live in module state so a single test can arm a point
and step through successive hits deterministically; :func:`reset` clears
them (the recovery-test fixture calls it around every case).
"""

from __future__ import annotations

import os

__all__ = ["CRASH_ENV", "InjectedCrash", "crash_point", "reset",
           "torn_point"]

#: Environment variable naming the armed fault point.
CRASH_ENV = "REPRO_STORAGE_CRASH"

#: Every point name the storage layer declares, for validation in tests.
ALL_POINTS = (
    "wal-record-torn",
    "wal-before-commit",
    "wal-after-commit",
    "page-torn",
    "page-flush",
    "checkpoint-before-manifest",
    "checkpoint-after-manifest",
    "wal-group-pending",
    "wal-group-sync",
    "compaction-move",
)


class InjectedCrash(BaseException):
    """The simulated power cut.

    A ``BaseException`` on purpose: generic ``except Exception`` cleanup
    along the unwind path must not swallow it, exactly as a real crash
    would not run that cleanup.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at storage fault point {point!r}")
        self.point = point


_hits: dict[str, int] = {}


def reset() -> None:
    """Clear hit counters (call between independent crash scenarios)."""
    _hits.clear()


def _armed(name: str) -> bool:
    spec = os.environ.get(CRASH_ENV, "")
    if not spec:
        return False
    point, _, nth = spec.partition(":")
    if point != name:
        return False
    target = int(nth) if nth else 1
    _hits[name] = _hits.get(name, 0) + 1
    return _hits[name] == target


def crash_point(name: str) -> None:
    """Raise :class:`InjectedCrash` when fault point *name* is armed."""
    if _armed(name):
        raise InjectedCrash(name)


def torn_point(name: str) -> bool:
    """Whether a *torn-write* fault point is armed right now.

    Unlike :func:`crash_point` this does not raise: the caller must
    perform the partial write itself and then raise
    :class:`InjectedCrash` — the pattern for ``wal-record-torn`` and
    ``page-torn``, where the interesting state is the half-written
    bytes, not the missing write.
    """
    return _armed(name)
