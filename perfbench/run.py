#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench/ (the library plus the
rp_perfbench program), runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke        # every workload, one op, all checks

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1. The
lines before it are a human-readable report. Every run appends its result
to .bench_results/results.jsonl (see perfbench/compare.py) and checks its
deterministic values against .bench_ledger/ (see perfbench/NOTES.md).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ["cut-asg-m3", "cut-ag", "serve-mixed", "refresh-publish-serve"]
RUN_TIMEOUT_S = 170
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
LEDGER_DIR = os.path.join(ROOT, ".bench_ledger")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the rp_perfbench path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "rp_perfbench")


def source_fingerprint():
    """Hash of the sources the outputs depend on: the ledger's scope."""
    paths = [os.path.join(HERE, "CMakeLists.txt")]
    for top in ("src", "perfbench/src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def check_ledger(workload, seed, det, mode):
    """Every deterministic value must match what earlier runs of this seed
    on these sources recorded. Returns the mismatches; records new keys."""
    os.makedirs(LEDGER_DIR, exist_ok=True)
    path = os.path.join(
        LEDGER_DIR, f"{source_fingerprint()}-{workload}-{seed}-{mode}.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    mismatches = [f"ledger: {key} was {ledger[key]}, now {value}"
                  for key, value in det.items()
                  if key in ledger and ledger[key] != value]
    if not mismatches:
        ledger.update(det)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return mismatches


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(record):
    """Untraced metrics, plus the report-only ones (None when the workload
    does not support them)."""
    ops = record["op_ms"]
    values = {
        "setup_s": stats.median(record["setup_s"]),
        "op_p50_ms": stats.median(ops),
        "peak_rss_mb": record["peak_rss_mb"],
        "ans": float(record["det"].get("ans", 0.0)),
    }
    extra = {
        "op_p90_ms": stats.supported_percentile(ops, 90),
        "queries_per_s": (record["queries"] / record["query_seconds"]
                          if record["query_seconds"] > 0 else None),
        "fail_ratio": stats.fail_ratio(record["failed"], record["attempted"]),
    }
    return values, extra


def per_layer(record, names):
    values = {name: 0.0 for name in names}
    values.update(record["layers"])
    traced = stats.median(record["traced_op_ms"])
    values["trace.op_p50_ms"] = traced
    values["trace.overhead_ms"] = traced - stats.median(record["op_ms"])
    return values


def self_time_table(record):
    units = max(record["traced_units"], 1)
    rows = sorted(record["self_ms"].items(), key=lambda kv: -kv[1])
    total = sum(ms for _, ms in rows) or 1.0
    lines = [f"self time per span ({record['attribution']} attribution, "
             f"{units:g} traced ops)",
             f"  {'span':38s} {'total ms':>12s} {'ms/op':>10s} {'share':>7s}"]
    for name, ms in rows:
        lines.append(f"  {name:38s} {ms:12.3f} {ms / units:10.3f} "
                     f"{100 * ms / total:6.1f}%")
    return "\n".join(lines)


def run_workload(binary, workload, seed, seconds, trace, max_ops=0):
    """Runs rp_perfbench; returns (record, result dict) or exits non-zero."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = os.path.join(RESULTS_DIR, f"trace-{workload}-{seed}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", os.path.join(".bench_work", workload),
           "--trace-out", trace_path]
    if max_ops:
        cmd += ["--max-ops", str(max_ops)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"rp_perfbench failed with exit code {proc.returncode}")
        sys.exit(1)
    record = json.loads(lines[-1])

    failures = list(record["failures"])
    attempted = record["attempted"] + 1  # the ledger comparison
    failed = record["failed"]
    if "ans" not in record["det"]:
        failed += 1
        failures.append("no ANS was measured")
    mismatches = check_ledger(workload, seed, record["det"],
                              "smoke" if max_ops else "full")
    if mismatches:
        failed += 1
        failures += mismatches

    bench = load_benchmark()
    if trace:
        metrics = per_layer(record, [m["name"] for m in bench["per_layer"]])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        extra = {}
    else:
        metrics, extra = end_to_end(record)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"ops {len(record['op_ms'])}  set-ups {len(record['setup_s'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    if trace:  # layers of workloads outside BENCHMARK.json
        for name, value in sorted(record["layers"].items()):
            if name not in units:
                print(f"  {name:34s} {value:16.6f}")
    for name, value in extra.items():
        if value is None:
            print(f"  {name:34s} {'(unsupported)':>16s}")
        else:
            print(f"  {name:34s} {value:16.6f}")
    if trace:
        table = self_time_table(record)
        print(table)
        with open(os.path.join(RESULTS_DIR,
                               f"selftime-{workload}-{seed}.txt"), "w") as f:
            f.write(table + "\n")
        print(f"  chrome trace: {os.path.relpath(trace_path, ROOT)}")
    for failure in failures:
        print(f"  FAILED: {failure}")

    saved = dict(result, workload=workload, seed=seed, trace=int(trace),
                 extra=extra, time=time.time())
    with open(os.path.join(RESULTS_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(saved) + "\n")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for one op, traced and "
                             "untraced, with all checks on")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        sys.exit(1)

    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_workload(binary, workload, args.seed, 1, trace,
                                      max_ops=1)
                ok = ok and result["correct"]
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        sys.exit(0 if ok else 1)

    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
