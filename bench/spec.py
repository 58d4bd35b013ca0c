"""What BENCHMARK.json declares, in the shape the harness needs."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from bench import ROOT

#: VLDB'06 opened on 12 September 2006 (also ``GeneratorConfig``'s own).
DEFAULT_SEED = 20060912

#: End-to-end metrics that exist on some workloads only, with the share
#: by which each may worsen. BENCHMARK.json cannot list them as
#: end-to-end (every workload must emit each of those, never 0), so
#: they travel as per-layer metrics and ``compare`` gates them here.
SPECIFIC = {
    # Checkpoint, GC and patch stalls a median hides. Demoted from the
    # driver's gate: on this host its spread between identical runs
    # (15 %) is too near any bound the driver allows (see README.md).
    "round_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "append_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "disk_bytes_per_row": {"unit": "B", "better": "lower", "bound": 0.01},
    # Any failure at all is a regression: must be 0.
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


@dataclass
class Benchmark:
    run_seconds: int
    workloads: list[str]
    #: name -> unit
    end_to_end: dict[str, str]
    per_layer: dict[str, str]
    #: End-to-end name -> {"better", "bound"}, SPECIFIC included.
    gates: dict[str, dict]


def load() -> Benchmark:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        document = json.load(handle)
    gates = {metric["name"]: metric for metric in document["end_to_end"]}
    gates.update(SPECIFIC)
    return Benchmark(
        run_seconds=document["run_seconds"],
        workloads=[workload["name"] for workload in document["workloads"]],
        end_to_end={metric["name"]: metric["unit"]
                    for metric in document["end_to_end"]},
        per_layer={metric["name"]: metric["unit"]
                   for metric in document["per_layer"]},
        gates=gates)
