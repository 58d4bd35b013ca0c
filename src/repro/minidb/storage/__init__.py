"""Page-based persistent storage for minidb (``storage=disk``).

Layout of the package (bottom-up):

* :mod:`~repro.minidb.storage.serde` — tagged typed-value / row codec
* :mod:`~repro.minidb.storage.page` — slotted-page format with CRC
* :mod:`~repro.minidb.storage.pager` — buffer pool (LRU, pin counts)
* :mod:`~repro.minidb.storage.wal` — logical redo log with commit frames
* :mod:`~repro.minidb.storage.heap` — a table's rows as a page chain
* :mod:`~repro.minidb.storage.backend` — :class:`DiskStorage`: manifest,
  checkpointing, crash recovery
* :mod:`~repro.minidb.storage.faults` — crash fault injection

``DiskStorage`` is intentionally *not* re-exported here: ``table.py``
imports the heap submodule, so pulling ``backend`` (which imports
``table``) into the package root would create an import cycle. Import it
from :mod:`repro.minidb.storage.backend` directly.
"""

from repro.minidb.storage.faults import CRASH_ENV, InjectedCrash
from repro.minidb.storage.page import DEFAULT_PAGE_SIZE, configured_page_size
from repro.minidb.storage.pager import (
    DEFAULT_BUFFER_PAGES,
    configured_buffer_pages,
)

__all__ = [
    "CRASH_ENV",
    "DEFAULT_BUFFER_PAGES",
    "DEFAULT_PAGE_SIZE",
    "InjectedCrash",
    "configured_buffer_pages",
    "configured_page_size",
]
