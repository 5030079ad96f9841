#!/usr/bin/env python3
"""Compare two sets of benchmark results (benchmark/README.md).

    compare.py SET_A [SET_B]

A set is a directory of result files, one run each, named
WORKLOAD__TAG.json and holding the result object run.sh prints as its
last line.  Runs of the two sets are paired by TAG (e.g. the seed and
the pair number of an alternating A/B loop).

With one set, prints each end-to-end metric's median, quartiles and
spread (interquartile range over the median) per workload, against
the metric's bound from BENCHMARK.json.

With two sets, prints per (metric, workload) both medians and
quartiles, the change of B against A, the share of pairs B won (ties
count for neither), and a verdict:

  within-bound  B's median is no worse than A's by more than the bound
  regressed     B's median is worse than A's by more than the bound
  unresolved    a side's spread exceeds the bound, and not every run
                of B reads better than every run of A
  improved      also within bound, and B won at least 9/10 of the
                pairs by more than A's own spread (a gain claim)

Exits 1 if any pair regressed, else 0.
"""

import json
import os
import statistics
import sys


def load_set(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json") or "__" not in name:
            continue
        workload, tag = name[: -len(".json")].split("__", 1)
        with open(os.path.join(path, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            # A run that printed no result failed outright.
            print(f"{path}/{name}: no result, skipped", file=sys.stderr)
            continue
        runs.setdefault(workload, {})[tag] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_values(runs, metric):
    return {tag: r["metrics"][metric]["value"]
            for tag, r in runs.items() if metric in r["metrics"]}


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    set_a = load_set(argv[1])
    set_b = load_set(argv[2]) if len(argv) == 3 else None

    failures = 0
    for wl in spec["workloads"]:
        w = wl["name"]
        if w not in set_a:
            continue
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = metric_values(set_a[w], name)
            if not a:
                continue
            qa = quartiles(list(a.values()))
            sa = spread(list(a.values()))
            head = (f"{w:17} {name:15} A {qa[1]:<12.6g} "
                    f"[{qa[0]:.6g}, {qa[2]:.6g}] spread {sa:6.2%}")
            if set_b is None:
                flag = "ok" if sa <= bound / 3 else (
                    "WIDE" if sa > bound else "over bound/3")
                print(f"{head}  bound {bound:.0%}  {flag} (n={len(a)})")
                continue
            b = metric_values(set_b.get(w, {}), name)
            if not b:
                print(f"{head}  B missing")
                failures += 1
                continue
            qb = quartiles(list(b.values()))
            sb = spread(list(b.values()))
            # Positive change = B worse than A.
            change = (qb[1] - qa[1]) / abs(qa[1]) * (1 if lower else -1)
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            tags = sorted(set(a) & set(b))
            wins = sum(better(b[t], a[t]) for t in tags)
            losses = sum(better(a[t], b[t]) for t in tags)
            all_better = all(better(x, y) for x in b.values()
                             for y in a.values())
            if max(sa, sb) > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "regressed"
                failures += 1
            elif (tags and wins >= 0.9 * len(tags)
                  and -change * abs(qa[1]) > qa[2] - qa[0]):
                verdict = "improved"
            else:
                verdict = "within-bound"
            print(f"{head} | B {qb[1]:<12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                  f"spread {sb:6.2%} | change {change:+7.2%} (bound "
                  f"{bound:.0%}) wins {wins}/{len(tags)} losses {losses} "
                  f"| {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
