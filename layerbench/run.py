#!/usr/bin/env python3
"""The repository benchmark: builds bench_layers and runs its workloads.

    python3 layerbench/run.py                        # every workload, seed 42
    python3 layerbench/run.py --workload scan_cold --seed 1042
    python3 layerbench/run.py --trace 1              # per-layer metrics
    python3 layerbench/run.py --seeds 1,2,3,4,5 --results DIR

The binary is configured and built (RelWithDebInfo) into build-bench/ at
the checkout root. Each run prints its metrics with their units and writes
its full result, host block included, to <results>/<workload>/; a traced
run also leaves trace_<workload>.json and layers_<workload>.json there.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The exit code is
non-zero when a build or run fails or an answer disagrees with the oracle.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
WORKLOADS = ["point_small", "scan_cold", "mutate_mix"]
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(os.cpu_count() or 1, 4)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds bench_layers; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit(
            "run.py: the HOPI sources are missing (expected src/ next to "
            + os.path.basename(HERE) + "/)")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", str(BUILD_JOBS), "--target",
         "bench_layers"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("run.py: build step failed: " + " ".join(step))
    return os.path.join(BUILD, "bench_layers")


def selected_metrics(benchmark, trace):
    return benchmark["per_layer" if trace else "end_to_end"]


def run_one(binary, benchmark, args, workload, seed):
    out_dir = os.path.join(args.results, workload)
    tmp_dir = os.path.join(BUILD, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--tmp_dir=" + tmp_dir, "--out_dir=" + out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("run.py: %s printed no result (exit %d)"
                         % (workload, proc.returncode))
    result = json.loads(lines[-1])

    # Keep exactly the metrics BENCHMARK.json names, checked for unit and
    # value: a metric that is missing, renamed or not finite fails the run.
    metrics = {}
    for spec in selected_metrics(benchmark, args.trace):
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise SystemExit("run.py: %s did not emit %s" % (workload, spec["name"]))
        if got["unit"] != spec["unit"]:
            raise SystemExit("run.py: %s reports %s in %s, BENCHMARK.json says %s"
                             % (workload, spec["name"], got["unit"], spec["unit"]))
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            raise SystemExit("run.py: %s: %s is not a finite number"
                             % (workload, spec["name"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}

    path = os.path.join(out_dir, "seed%d_trace%d.json" % (seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")

    print("%s (seed %d, %s, %s): correct=%s attempted=%d failed=%d"
          % (workload, seed, "traced" if args.trace else "end to end",
             result["host"]["git_sha"][:12], result["correct"],
             result["attempted"], result["failed"]))
    for name, m in metrics.items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    if proc.returncode != 0 or not result["correct"]:
        log("run.py: %s failed (exit %d, correct=%s)"
            % (workload, proc.returncode, result["correct"]))
    return {"correct": bool(result["correct"]) and proc.returncode == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seeds", default="",
                        help="comma-separated seeds, run one after another")
    # Runs are comparable only at one length, so the length is
    # BENCHMARK.json's run_seconds; --seconds may only repeat it.
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--results", default=os.path.join(BUILD, "results"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    if args.seconds not in (None, benchmark["run_seconds"]):
        parser.error("--seconds %d differs from BENCHMARK.json's run_seconds %d"
                     % (args.seconds, benchmark["run_seconds"]))
    args.seconds = benchmark["run_seconds"]
    args.results = os.path.abspath(args.results)
    binary = build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    runs = [(w, s, run_one(binary, benchmark, args, w, s))
            for s in seeds for w in workloads]
    if len(runs) == 1:
        summary = runs[0][2]
    else:
        summary = {
            "correct": all(r["correct"] for _, _, r in runs),
            "attempted": sum(r["attempted"] for _, _, r in runs),
            "failed": sum(r["failed"] for _, _, r in runs),
            "metrics": {"%s/%d/%s" % (w, s, name): m
                        for w, s, r in runs for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
