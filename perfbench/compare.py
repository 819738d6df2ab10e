#!/usr/bin/env python3
"""Compares two result sets of the benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

A result set is the .bench_results/results.jsonl that perfbench/run.py
appends to (one JSON line per run). Prints one row per workload x
end-to-end metric with each side's run count, median and quartiles, the
change of the medians, and a verdict: 'regressed' or 'improved' when the
medians differ by more than the metric's bound, 'unchanged' when they do
not, and 'unresolved' when either side's spread (inter-quartile distance
over median) exceeds the bound, since the noise then hides the change.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_results(path):
    """{(workload, metric): [values]} over the untraced runs of a set."""
    values = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            if run.get("trace", 0):
                continue
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return values


def summarize(values):
    q1, q2, q3 = stats.quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}


def compare(base, new, bench):
    rows = []
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    for workload in workloads:
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            a, b = base[key], new[key]
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": summarize(a),
                "b": summarize(b),
                "change": stats.worsening(stats.median(a), stats.median(b),
                                          metric["better"]),
                "bound": metric["bound"],
                "verdict": stats.verdict(a, b, metric["better"],
                                         metric["bound"]),
            })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    rows = compare(load_results(args.base), load_results(args.new), bench)
    print(f"{'workload':24s} {'metric':12s} {'base median [q1, q3] (n)':>34s} "
          f"{'new median [q1, q3] (n)':>34s} {'worse by':>9s} {'bound':>6s}  "
          "verdict")
    for r in rows:
        side = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                f"({s['n']})" for s in (r["a"], r["b"])]
        print(f"{r['workload']:24s} {r['metric']:12s} {side[0]:>34s} "
              f"{side[1]:>34s} {100 * r['change']:8.2f}% "
              f"{100 * r['bound']:5.1f}%  {r['verdict']}")


if __name__ == "__main__":
    main()
