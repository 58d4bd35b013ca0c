"""Stub for the frozen ``bench/``: sequential scans prune no pages."""

from __future__ import annotations

__all__ = ["pruning_enabled"]


# 0 stub: only bench/ reads it; the [benchmark] PR deletes it
def pruning_enabled() -> bool:
    return False
