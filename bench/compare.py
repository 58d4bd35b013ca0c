"""``python -m bench compare A.json B.json``: B against A, row by row.

One row per (workload, end-to-end metric) with both values, the ratio
B/A, the bound the benchmark fixes for that metric, and a verdict:

``ok``          B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  the spread of either side's own samples (``run
                --repeat``) is wider than the bound, so the two cannot
                be told apart and "unchanged" may not be claimed.
"""

from __future__ import annotations

import json
import statistics

from bench import spec


def spread(samples: list[float]) -> float:
    """Width of *samples* as a share of their median: the quartile
    distance from four samples up, the range below that, 0 for one."""
    middle = statistics.median(samples)
    if len(samples) < 2 or not middle:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / abs(middle)
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / abs(middle)


def worsening(a: float, b: float, better: str) -> float:
    """The share of *a* by which *b* is worse (negative: better)."""
    delta = b - a if better == "lower" else a - b
    if a:
        return delta / abs(a)
    return 0.0 if not delta else float("inf") if delta > 0 else -1.0


def compare(a: dict, b: dict, gates: dict[str, dict]) -> list[dict]:
    rows = []
    for workload, left in a["results"].items():
        right = b["results"].get(workload)
        if right is None:
            continue
        for name, gate in gates.items():
            if name not in left["metrics"] or name not in right["metrics"]:
                continue
            before, after = left["metrics"][name], right["metrics"][name]
            noise = max(spread(before.get("samples", [before["value"]])),
                        spread(after.get("samples", [after["value"]])))
            worse = worsening(before["value"], after["value"],
                              gate["better"])
            if noise > gate["bound"]:
                verdict = "unresolved"
            elif worse > gate["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": gate["unit"],
                "a": before["value"], "b": after["value"],
                "ratio": (after["value"] / before["value"]
                          if before["value"] else float("nan")),
                "bound": gate["bound"], "spread": noise,
                "verdict": verdict})
    return rows


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows = compare(a, b, spec.load().gates)
    print(f"A = {path_a} (commit {a['host']['commit']})")
    print(f"B = {path_b} (commit {b['host']['commit']})")
    print(f"{'workload':<18} {'metric':<19} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<19} "
              f"{row['a']:>12.4f} {row['b']:>12.4f} {row['ratio']:>7.3f} "
              f"{row['bound']:>6.2f} {row['spread']:>7.3f}  "
              f"{row['verdict']} [{row['unit']}]")
    counts = {verdict: sum(row["verdict"] == verdict for row in rows)
              for verdict in ("ok", "regressed", "unresolved")}
    print(", ".join(f"{count} {verdict}"
                    for verdict, count in counts.items()))
    return 1 if counts["regressed"] else 0
