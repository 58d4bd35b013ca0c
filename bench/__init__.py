"""The repo's measurement spine: five named workloads timed from outside.

Entry points, all run from the repository root::

    python -m bench run        # every workload, end-to-end metrics
    python -m bench run --trace    # plus per-layer attribution
    python -m bench compare A.json B.json
    python -m bench selftest

Nothing here is imported by ``src/``; the harness calls the public
functions of each layer and owns every span it records. See README.md
in this directory for the workloads, metrics and pinned sizes.
"""

import os
import sys

#: The checkout root: BENCHMARK.json, ``src/`` and this package sit here.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Results, traces and the disk workload's database directory: all the
#: benchmark writes, inside the checkout and ignored by git.
OUT_DIR = os.path.join(ROOT, "bench", "out")

# The system under test is not installed; ``python -m bench`` must work
# from a bare checkout without PYTHONPATH.
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


#: Inherited ``REPRO_*`` variables that reach the workload processes:
#: the execution-layer knobs the waterfall itself varies, so a whole
#: run can be repeated under one of them. Everything else is stripped,
#: and what passes is recorded in the result's ``host`` block.
ALLOWED_KNOBS = ("REPRO_BATCH_SIZE", "REPRO_ENCODE", "REPRO_CODEGEN",
                 "REPRO_WORKERS")


def clean_environment() -> dict[str, str]:
    """The environment every workload process starts from."""
    environment = {name: value for name, value in os.environ.items()
                   if not name.startswith("REPRO_")
                   or name in ALLOWED_KNOBS}
    environment["PYTHONHASHSEED"] = "0"
    return environment
