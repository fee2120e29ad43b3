#!/usr/bin/env python3
"""Compares two checkouts on the benchmark under the rules in README.md.

  python3 benchmark/compare.py PARENT CHANGE [--pairs 10] [--first-seed 1000]
                               [--summary FILE]

PARENT and CHANGE are checkout roots that each hold benchmark/run.py. Pair i
runs both on every workload in BENCHMARK.json, for its run_seconds, on seed
first_seed + i, alternating which side runs first. Every run is appended to
build_bench/compare/<time>.jsonl beside this script. One row per workload x
end-to-end metric:

  gain        the change wins >= 9/10 of all pairs (ties count for neither),
              with at least 10 pairs, and the medians differ by more than the
              parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every run of the change reads better than every parent run
  same        none of the above

--summary writes each side's medians and quartiles and every row's verdict
as JSON (benchmark/baseline.json is such a file, from one commit run as
both sides). The exit code is 1 when any row is a regression or any run
fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def host():
    """The machine the runs were measured on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "logical_cpus": os.cpu_count(),
            "system": platform.system()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def verdict(parent, change, better, bound):
    """Classifies one workload x metric; `better` is 'lower' or 'higher'."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_q3, p_spread = spread(parent)
    _, _, c_spread = spread(change)
    worse_by = sign * (pm - cm) / pm
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and sign * (cm - pm) > p_q3 - p_q1):
        return "gain", wins
    if max(p_spread, c_spread) > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "regression", wins
    return "same", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--summary", default="")
    args = parser.parse_args()
    if args.pairs < 4:
        parser.error("quartiles need at least 4 pairs")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    log_dir = os.path.join(os.path.dirname(HERE), "build_bench", "compare")
    os.makedirs(log_dir, exist_ok=True)
    log_path = os.path.join(log_dir, "%d.jsonl" % time.time())

    runs = {w: {"parent": [], "change": []} for w in workloads}
    failed = False
    with open(log_path, "a") as log:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for workload in workloads:
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    root = args.parent if side == "parent" else args.change
                    result = run(root, workload, seed, seconds)
                    log.write(json.dumps({"side": side, "workload": workload,
                                          "seed": seed, "result": result}) + "\n")
                    log.flush()
                    if result is None or not result["correct"]:
                        print("run failed: %s %s seed %d" % (side, workload, seed),
                              file=sys.stderr)
                        failed = True
                    runs[workload][side].append(result)
            print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    print("%-22s %-17s %12s %25s %12s %25s %8s %5s  %s" % (
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]",
        "change%", "wins", "verdict"))
    regression = False
    summary = {"host": host(), "run_seconds": seconds, "pairs": args.pairs,
               "first_seed": args.first_seed, "workloads": {}}
    for workload in workloads:
        pairs = [(p, c) for p, c in zip(runs[workload]["parent"],
                                        runs[workload]["change"])
                 if p is not None and c is not None]
        if len(pairs) < 4:
            print("%-22s too few successful pairs" % workload)
            failed = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            label, wins = verdict(parent, change, metric["better"], metric["bound"])
            regression = regression or label == "regression"
            p_q1, p_q3, _ = spread(parent)
            c_q1, c_q3, _ = spread(change)
            pm, cm = statistics.median(parent), statistics.median(change)
            print("%-22s %-17s %12.5g %25s %12.5g %25s %+7.2f%% %2d/%-2d  %s" % (
                workload, name, pm, "[%.5g, %.5g]" % (p_q1, p_q3), cm,
                "[%.5g, %.5g]" % (c_q1, c_q3), 100.0 * (cm - pm) / pm, wins,
                len(pairs), label))
            summary["workloads"].setdefault(workload, {})[name] = {
                "unit": metric["unit"],
                "parent": {"median": pm, "q1": p_q1, "q3": p_q3},
                "change": {"median": cm, "q1": c_q1, "q3": c_q3},
                "wins": wins, "verdict": label}
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    print("runs logged to %s" % log_path, file=sys.stderr)
    return 1 if regression or failed else 0


if __name__ == "__main__":
    sys.exit(main())
