"""Stub kept for the frozen benchmark, which imports ``cache_stats``.

``bench/statements.py`` is this module's only reader; the follow-up
``[benchmark]`` PR that drops the ``codegen`` and ``workers2`` waterfall
legs deletes it. Query compilation itself is gone (recoverable from
commit 6299a0b).
"""

__all__ = ["cache_stats"]


def cache_stats() -> tuple[int, int, float]:
    """``(hits, misses, compile milliseconds)``: nothing ever compiles."""
    return (0, 0, 0.0)
