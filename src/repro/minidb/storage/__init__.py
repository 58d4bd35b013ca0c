"""Durable storage for minidb (``storage=disk``).

A disk table keeps its rows in a plain list, like a memory table; this
package makes them durable: ``serde`` (typed-value codec), ``wal``
(logical redo log), ``segment`` (immutable column segments, the
checkpointed image), ``legacy`` (read-only decoder of the older page
format), ``backend`` (:class:`DiskStorage`: manifest, checkpoints,
image rewrites, recovery) and ``faults`` (crash injection). Import
``DiskStorage`` from :mod:`repro.minidb.storage.backend`: it builds
``Table`` objects, so only opening a disk database imports it.
"""

from repro.minidb.storage.faults import CRASH_ENV, InjectedCrash

__all__ = ["CRASH_ENV", "InjectedCrash"]
