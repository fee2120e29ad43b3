#!/usr/bin/env python3
"""Builds and runs the pieck benchmark (see benchmark/README.md).

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
      one run; the last stdout line is one JSON object with the keys
      correct, attempted, failed and metrics (end-to-end metrics when
      --trace 0, per-layer metrics when --trace 1)
  python3 benchmark/run.py --seed N [--seconds S]
      every workload end to end, one result line each, then a summary line
  python3 benchmark/run.py --smoke
      every workload at ~1/50 size, untraced and traced (a CI-sized check)

The benchmark program (benchmark/pieck_benchmark.cc) is built from source into
build_bench/ at the checkout root on first use. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build_bench")
OUT = os.path.join(BUILD, "run")
EXE = os.path.join(BUILD, "cmake", "pieck_benchmark")

# Workload names and metric names/units come from the benchmark's
# definition at the checkout root.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Stages of a federated round, in call order, as (span name, metric name).
ROUND_STAGES = [
    ("workload.select", "workload.select_pct"),
    ("storage.prefetch", "storage.prefetch_pct"),
    ("fed.prepare_round", "fed.prepare_round_pct"),
    ("fed.train", "fed.train_pct"),
    ("fed.apply_updates", "fed.apply_updates_pct"),
    ("storage.flush", "storage.flush_pct"),
]

# A span covering a batch of kernel calls records the batch size.
TENSOR_PROBES = {
    "tensor.dot": "tensor.dot_ns",
    "tensor.axpy": "tensor.axpy_ns",
    "tensor.bce_step": "tensor.bce_step_ns",
    "tensor.gemv_512": "tensor.gemv_512_ns",
}
CALL_PROBES = {
    "serving.fused_recommend": "serving.fused_recommend_us",
    "serving.quant_recommend": "serving.quant_recommend_us",
    "attack.miner_observe": "attack.miner_observe_us",
    "defense.observe_round": "defense.observe_round_us",
    "defense.apply_regularizers": "defense.apply_regularizers_us",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_process(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout the whole group is
    killed and reaped. Returns the CompletedProcess, or None on timeout."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
        return subprocess.CompletedProcess(cmd, proc.returncode, stdout)


def build():
    """Configures (once) and builds the program; False on any failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: the library sources are missing from %s" % ROOT)
        return False
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "pieck_benchmark",
                  "-j", "4"])
    for cmd in steps:
        try:
            proc = run_process(cmd, 850, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("run.py: %s failed: %s" % (cmd[0], e))
            return False
        if proc is None or proc.returncode != 0:
            log("run.py: build step failed: %s" % " ".join(cmd))
            return False
    return os.path.isfile(EXE)


def clean_out():
    """Removes stores a killed run may have left behind."""
    os.makedirs(OUT, exist_ok=True)
    for entry in os.listdir(OUT):
        if entry.startswith("store-"):
            shutil.rmtree(os.path.join(OUT, entry), ignore_errors=True)


def run_program(workload, seed, seconds, trace, smoke):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(int(trace)), "--smoke",
           str(int(smoke)), "--out", OUT]
    proc = run_process(cmd, 170, stdout=subprocess.PIPE, stderr=sys.stderr,
                       env=dict(os.environ, TMPDIR=OUT), text=True)
    if proc is None:
        log("run.py: %s timed out" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: %s exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def union_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def quantile(values, q):
    """Nearest-rank quantile (as in pieck_benchmark.cc)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def reduce_trace(path):
    """Per-layer metrics, a per-span summary and the number of spans that
    do not lie inside the span that caused them."""
    with open(path) as f:
        data = json.load(f)
    other = data["otherData"]
    events = data["traceEvents"]
    children = defaultdict(list)
    by_name = defaultdict(list)
    by_id = {e["args"]["id"]: e for e in events}
    for e in events:
        by_name[e["name"]].append(e)
        if e["args"]["parent"] >= 0:
            children[e["args"]["parent"]].append(e)

    # A child span must start and end inside its parent; times are written
    # to the nanosecond, which bounds the rounding.
    stray = 0
    for e in events:
        parent = by_id.get(e["args"]["parent"])
        if e["args"]["parent"] >= 0 and (
                parent is None or e["ts"] < parent["ts"] - 1e-3
                or e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + 1e-3):
            stray += 1

    def self_us(e):
        kids = [(c["ts"], c["ts"] + c["dur"]) for c in children[e["args"]["id"]]]
        return e["dur"] - union_length(kids, e["ts"], e["ts"] + e["dur"])

    def total(name, field="dur"):
        return sum(e[field] if field == "dur" else e["args"].get(field, 0.0)
                   for e in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {metric: 0.0 for _, metric in ROUND_STAGES}
    rounds = by_name["fed.round"]
    engine_rounds = by_name["core.run_round"]
    if rounds:
        # The stages run one after another inside the round, so the
        # round's self time makes the shares add up to 100.
        wall = total("fed.round")
        for span, metric in ROUND_STAGES:
            m[metric] = 100.0 * total(span) / wall
        m["fed.round_other_pct"] = 100.0 * sum(self_us(r) for r in rounds) / wall
    elif engine_rounds:
        # Simulation rounds carry the program's own stage timers (ms).
        wall = total("core.run_round")
        select = 1e3 * total("core.run_round", "select_ms")
        train = 1e3 * total("core.run_round", "train_ms")
        apply = 1e3 * total("core.run_round", "apply_ms")
        m["workload.select_pct"] = 100.0 * select / wall
        m["fed.train_pct"] = 100.0 * train / wall
        m["fed.apply_updates_pct"] = 100.0 * apply / wall
        m["fed.round_other_pct"] = 100.0 * (wall - select - train - apply) / wall
    else:
        m["fed.round_other_pct"] = 0.0
    m["fed.train.parallel_eff"] = ratio(
        total("fed.participate"), total("fed.train") * other["pool_threads"])
    hits = total("fed.round", "cache_hits")
    writebacks = total("storage.flush", "writebacks")
    m["storage.cache_hit_rate"] = ratio(hits, hits + total("fed.round", "cache_misses"))
    m["storage.writebacks_per_round"] = ratio(writebacks, len(rounds))
    m["storage.rows_per_write_run"] = ratio(writebacks, total("storage.flush", "write_runs"))
    m["storage.staged_useful_frac"] = ratio(total("fed.round", "staged_hits"),
                                            total("fed.round", "staged_rows"))
    for span, metric in TENSOR_PROBES.items():
        m[metric] = statistics.median(
            1e3 * e["dur"] / e["args"]["calls"] for e in by_name[span])
    for span, metric in CALL_PROBES.items():
        m[metric] = statistics.median(e["dur"] for e in by_name[span])
    scored = total("serving.fused_recommend", "tiles_scored")
    pruned = total("serving.fused_recommend", "tiles_pruned")
    m["serving.tiles_pruned_frac"] = ratio(pruned, scored + pruned)
    m["serving.tiles_scored_per_user"] = ratio(scored, len(by_name["serving.fused_recommend"]))
    m["data.build_s"] = total("data.build") / 1e6
    for key, metric in [("store_footprint_mb", "fed.store.footprint_mb"),
                        ("materialized_rngs", "fed.store.materialized_rngs"),
                        ("stall_pct", "fed.stall_pct"),
                        ("mean_staleness", "fed.mean_staleness"),
                        ("mined_overlap", "attack.mined_overlap"),
                        ("er_at_10", "metrics.er_at_10"),
                        ("hr_at_10", "metrics.hr_at_10")]:
        m[metric] = float(other.get(key, 0.0))
    m["trace.overhead_pct"] = 100.0 * (other["traced_s"] / other["untraced_s"] - 1.0)

    summary = {}
    for name, spans in sorted(by_name.items()):
        durations = [e["dur"] for e in spans]
        summary[name] = {
            "count": len(spans),
            "p50_us": quantile(durations, 0.50),
            "p99_us": quantile(durations, 0.99),
            "total_ms": sum(durations) / 1e3,
            "self_ms": sum(self_us(e) for e in spans) / 1e3,
        }
    return m, summary, stray


def run_one(workload, seed, seconds, trace, smoke):
    """One program run reduced to the benchmark's result object."""
    result = run_program(workload, seed, seconds, trace, smoke)
    if result is None:
        return None
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and all(c["ok"] for c in result["checks"])
    if trace:
        metrics, summary, stray = reduce_trace(result["trace_file"])
        # One more check: every span nests inside its parent.
        attempted += 1
        if stray:
            log("CHECK FAILED: %d spans do not nest inside their parent" % stray)
            failed += 1
            correct = False
        summary_path = result["trace_file"][:-len(".json")] + ".summary.json"
        with open(summary_path, "w") as f:
            json.dump({"per_layer": metrics, "spans": summary}, f, indent=1)
        for name, s in summary.items():
            log("  %-28s %7d spans  p50 %10.2f us  p99 %10.2f us  self %9.1f ms"
                % (name, s["count"], s["p50_us"], s["p99_us"], s["self_ms"]))
        units = PER_LAYER
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        units = END_TO_END
        for key, value in sorted(result["detail"].items()):
            log("  %-28s %.6g" % (key, value))
    missing = sorted(set(units) - set(metrics))
    if missing:
        log("run.py: %s did not report %s" % (workload, ", ".join(missing)))
        return None
    for name in units:
        log("%s: %s = %.6g %s" % (workload, name, metrics[name], units[name]))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 2
    clean_out()
    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds, args.trace,
                         args.smoke)
        if result is None:
            return 2
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    modes = (0, 1) if args.smoke else (args.trace,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in modes:
            result = run_one(workload, args.seed, args.seconds, trace, args.smoke)
            if result is None:
                return 2
            print(json.dumps(dict(result, workload=workload, trace=trace)),
                  flush=True)
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
