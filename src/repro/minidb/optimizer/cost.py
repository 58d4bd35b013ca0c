"""The cost model.

Costs are abstract work units proportional to the row volume each
operator touches; constants reflect relative per-row expense in the
pure-Python executor (function-call dominated, so CPU constants matter
more than I/O as they would on disk). The absolute scale is irrelevant —
costs exist to *rank* plans and rewrites.
"""

from __future__ import annotations

import math

__all__ = ["CostModel"]


class CostModel:
    """Per-operator cost formulas; all take and return floats."""

    SCAN_ROW = 1.0
    INDEX_PROBE = 12.0       # descend cost per range scan
    INDEX_ROW = 1.1          # fetch per qualifying row
    FILTER_ROW = 0.3
    PROJECT_ROW = 0.3
    SORT_ROW_FACTOR = 0.6    # multiplied by log2(n)
    HASH_BUILD_ROW = 1.6
    HASH_PROBE_ROW = 1.1
    NESTED_LOOP_PAIR = 0.4
    WINDOW_ROW_PER_FN = 1.4
    AGGREGATE_ROW = 1.3
    DISTINCT_ROW = 0.9
    SEMI_BUILD_ROW = 1.0
    SEMI_PROBE_ROW = 0.8

    def seq_scan(self, table_rows: float) -> float:
        return self.SCAN_ROW * table_rows

    def index_scan(self, matching_rows: float) -> float:
        return self.INDEX_PROBE + self.INDEX_ROW * matching_rows

    def filter(self, input_rows: float, conjunct_count: int = 1) -> float:
        return self.FILTER_ROW * max(conjunct_count, 1) * input_rows

    def project(self, input_rows: float, item_count: int) -> float:
        return self.PROJECT_ROW * max(item_count, 1) * input_rows

    def sort(self, input_rows: float) -> float:
        if input_rows <= 1:
            return 0.0
        return self.SORT_ROW_FACTOR * input_rows * math.log2(input_rows)

    def hash_join(self, build_rows: float, probe_rows: float,
                  output_rows: float) -> float:
        return (self.HASH_BUILD_ROW * build_rows
                + self.HASH_PROBE_ROW * probe_rows
                + 0.2 * output_rows)

    def nested_loop_join(self, outer_rows: float, inner_rows: float) -> float:
        return self.NESTED_LOOP_PAIR * outer_rows * max(inner_rows, 1.0)

    def window(self, input_rows: float, function_count: int,
               needs_sort: bool) -> float:
        compute = self.WINDOW_ROW_PER_FN * max(function_count, 1) * input_rows
        return compute + (self.sort(input_rows) if needs_sort else 0.0)

    def aggregate(self, input_rows: float, aggregate_count: int) -> float:
        return self.AGGREGATE_ROW * max(aggregate_count, 1) * input_rows

    def distinct(self, input_rows: float) -> float:
        return self.DISTINCT_ROW * input_rows

    def semi_join(self, build_rows: float, probe_rows: float) -> float:
        return (self.SEMI_BUILD_ROW * build_rows
                + self.SEMI_PROBE_ROW * probe_rows)
