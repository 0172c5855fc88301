#!/usr/bin/env python3
"""Compare parent and change runs of the Sprayer suite, per workload.

    python3 bench/suite/compare.py parent.txt change.txt

Each file holds the standard output of untraced runs (run.py or
sprayer_suite); only the suite's result records are read, the JSON lines
carrying "bench": "sprayer_suite". Run the two commits as interleaved
pairs (README.md): the i-th parent run of a workload is paired with the
i-th change run of that workload.

For every end-to-end metric in BENCHMARK.json, each workload gets a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own interquartile spread exceeds the bound, and
              not every change run beats every parent run;
  same        none of the above: no worse than the bound allows.

Exits 1 if any verdict is "worse" or any run failed its output checks.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path):
    """workload -> list of (correct, metrics) in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if rec.get("bench") != "sprayer_suite" or rec.get("traced"):
            continue
        metrics = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault(rec["workload"], []).append((rec["correct"], metrics))
    return runs


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
    iqr = q[2] - q[0]
    gain = sign * (c_med - p_med)  # > 0: the change is better
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if gain > iqr and wins >= 0.9 * len(parent):
        return "improved"
    if p_med != 0 and iqr / abs(p_med) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "same"
        return "unresolved"
    if p_med != 0 and -gain / abs(p_med) > bound:
        return "worse"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(SPEC.read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for w in (x["name"] for x in spec["workloads"]):
        pairs = min(len(parent.get(w, [])), len(change.get(w, [])))
        if pairs == 0:
            print(f"{w}: no paired runs")
            continue
        p_runs, c_runs = parent[w][:pairs], change[w][:pairs]
        failed = sum(not ok for ok, _ in p_runs + c_runs)
        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name] for _, r in p_runs]
            c = [r[name] for _, r in c_runs]
            v = verdict(p, c, m["better"], m["bound"])
            bad |= v == "worse"
            p_med, c_med = statistics.median(p), statistics.median(c)
            delta = (c_med - p_med) / p_med * 100 if p_med else 0.0
            cells.append(f"{name} {v} ({p_med:.4g} -> {c_med:.4g}, "
                         f"{delta:+.1f}%)")
        note = f", {failed} run(s) failed checks" if failed else ""
        bad |= failed > 0
        print(f"{w} [{pairs} pairs{note}]: " + "; ".join(cells))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
