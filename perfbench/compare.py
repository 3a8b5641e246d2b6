#!/usr/bin/env python3
"""Summarise or compare perfbench result files.

    python3 perfbench/compare.py NEW.jsonl             # medians and spreads
    python3 perfbench/compare.py OLD.jsonl NEW.jsonl   # verdicts

A result file holds one record per run, as run.py --out appends them.  For
each workload and metric the tool prints the median, the quartiles
(statistics.quantiles, n=4) and the spread, the distance between the
quartiles as a share of the median.  Given two files it adds the change of
the median and a verdict against the metric's bound in BENCHMARK.json:

  improved    the new side wins at least 9 in 10 of all (old, new) run
              pairs and the medians differ by more than the old quartile
              distance;
  worse       the new median is worse by more than the bound, and either
              the new side loses at least 9 in 10 pairs or both spreads are
              within the bound;
  unresolved  otherwise, when either side's spread exceeds the bound;
  unchanged   otherwise.

Per-layer metrics have no bound; they get a verdict only when one side wins
9 in 10 pairs (improved / worse by direction), else "-".  Exit code 1 when
any end-to-end metric is worse.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def load(path):
    """{workload: {metric: [values]}} over every record in the file."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            runs[rec["workload"]][name].append(float(m["value"]))
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def metric_specs():
    specs = {m["name"]: dict(m) for m in SPEC["per_layer"]}
    specs.update({m["name"]: dict(m) for m in SPEC["end_to_end"]})
    return specs


def pair_share(old, new, higher_better):
    """Share of (old, new) pairs in which new is strictly better."""
    wins = sum((b > a) if higher_better else (b < a) for a in old for b in new)
    return wins / (len(old) * len(new))


def verdict(spec, old, new):
    higher = spec["better"] == "higher"
    med_a, q1_a, q3_a, spread_a = summary(old)
    med_b, _, _, spread_b = summary(new)
    wins = pair_share(old, new, higher)
    losses = pair_share(new, old, higher)
    diff = med_b - med_a
    worse_by = (-diff if higher else diff) / abs(med_a) if med_a else 0.0
    better = worse_by < 0
    if better and wins >= 0.9 and abs(diff) > (q3_a - q1_a):
        return "improved"
    bound = spec.get("bound")
    if bound is None:
        return "worse" if losses >= 0.9 else "-"
    if worse_by > bound and (losses >= 0.9 or max(spread_a, spread_b) <= bound):
        return "worse"
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs()
    sides = [load(p) for p in argv[1:]]
    worse = False
    for workload in [w["name"] for w in SPEC["workloads"]]:
        if not all(workload in s for s in sides):
            continue
        print(f"== {workload}")
        names = [n for n in specs if all(n in s[workload] for s in sides)]
        for name in names:
            spec = specs[name]
            cols = []
            for s in sides:
                med, q1, q3, spread = summary(s[workload][name])
                cols.append(f"{med:12.6g} [{q1:.6g}, {q3:.6g}] "
                            f"spread {spread:.3f} n={len(s[workload][name])}")
            line = f"{name:34s} {spec['unit']:8s} " + "  |  ".join(cols)
            if len(sides) == 2:
                old, new = sides[0][workload][name], sides[1][workload][name]
                med_a = statistics.median(old)
                change = (statistics.median(new) - med_a) / abs(med_a) if med_a else 0.0
                v = verdict(spec, old, new)
                worse |= v == "worse" and "bound" in spec
                line += f"  change {change:+.3f}  {v}"
            elif "bound" in spec:
                line += f"  bound {spec['bound']}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
