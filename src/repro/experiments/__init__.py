"""Experiment harness reproducing every table and figure of §6.

Each module regenerates one paper artifact and prints the same
rows/series the paper reports:

==========  ==========================================================
table1      expanded conditions per rule for q1 and q2 (Table 1)
fig7        q1/q2 elapsed time vs rtime selectivity (Figure 7 a, d)
plans       EXPLAIN plans for q1, q1_e, q2, q2_e, q2_j (Figure 7 b-g)
fig8        q2' with an EPC-uncorrelated predicate (Figure 8)
fig9        elapsed time vs #rules and vs anomaly %% (Figure 9 a-d)
eager       eager materialization vs deferred rewrite (§6.1 remark)
summary     PASS/FAIL scorecard asserting the shapes above
==========  ==========================================================

Run ``python -m repro.experiments <name>``. Speed against a commit is
the job of ``python -m bench`` (``bench/README.md``), not of this
package.
"""

from repro.experiments.common import (
    ExperimentSettings,
    QueryTimings,
    run_variants,
    workbench_for,
)

__all__ = ["ExperimentSettings", "QueryTimings", "run_variants",
           "workbench_for"]
