#!/usr/bin/env python3
"""Compares two sets of benchmark results, or summarizes one.

    python3 layerbench/compare.py BASE_DIR NEW_DIR
    python3 layerbench/compare.py --summary DIR > baseline.json

A result directory is what run.py --results writes: one JSON file per
run, in any layout. Every run must have the same length (the "seconds"
of its result). For every workload and end-to-end metric the comparison
prints each side's median and quartiles and a verdict, using the
metric's bound from BENCHMARK.json:

  regression  NEW's median is worse than BASE's by more than the bound
  gain        NEW is better in at least 9 of 10 seed-matched pairs, the
              medians differ by more than BASE's quartile distance, a
              noisy metric (see unresolved) is better in every run, and
              the workload's failure share (failed / attempted) did not
              rise
  unresolved  a side's spread (quartile distance over median) exceeds
              the bound, and the median did not regress
  unchanged   none of the above

Per-layer metrics and the result files' other numbers are listed with
their medians but get no verdict. The exit code is 1 when any metric
regressed, 2 when the runs cannot be compared. Standard library only; no
network.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """Every run result under `directory` (files run.py writes)."""
    runs = []
    for dirpath, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(dirpath, name)) as f:
                try:
                    data = json.load(f)
                except json.JSONDecodeError:
                    continue
            if isinstance(data, dict) and {"workload", "seed", "metrics",
                                           "correct"} <= data.keys():
                runs.append(data)
    return runs


def failure_share(runs):
    """{workload: failed / attempted} over the untraced runs."""
    totals = {}
    for run in runs:
        if run.get("smoke") or run["trace"]:
            continue
        t = totals.setdefault(run["workload"], [0, 0])
        t[0] += run["failed"]
        t[1] += run["attempted"]
    return {w: f / a if a else 0.0 for w, (f, a) in totals.items()}


def series(runs):
    """{(workload, metric): {seed: value}} plus units, over all runs."""
    values, units = {}, {}
    for run in runs:
        if run.get("smoke"):
            continue
        for name, m in run["metrics"].items():
            if m["value"] is None:
                continue
            values.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
            units[name] = m["unit"]
        for name, v in run.get("details", {}).items():
            if v is None or run["trace"]:
                continue
            values.setdefault((run["workload"], "details." + name), {})[run["seed"]] = v
    return values, units


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, better, failures_rose):
    """Verdict for one metric; base/new map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    n_med = statistics.median(new.values())
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return "regression"
    noisy = max(spread(list(base.values())), spread(list(new.values()))) > bound
    all_better = all(sign * (n - b) < 0 for n in new.values() for b in base.values())
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) < 0
            and abs(n_med - b_med) > b_q3 - b_q1 and (not noisy or all_better)
            and not failures_rose):
        return "gain"
    return "unresolved" if noisy else "unchanged"


def fmt(x):
    return "%.5g" % x


def compare(base_dir, new_dir, benchmark):
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    lengths = {run["seconds"] for run in base_runs + new_runs if not run.get("smoke")}
    if len(lengths) > 1:
        print("compare.py: runs of different lengths (%s seconds) are not "
              "comparable" % ", ".join(map(str, sorted(lengths))), file=sys.stderr)
        return None
    base, units = series(base_runs)
    new, new_units = series(new_runs)
    units.update(new_units)
    base_failed, new_failed = failure_share(base_runs), failure_share(new_runs)
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    regressions = 0
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    print("%-14s %-36s %-30s %-30s %8s  %s" % (
        "workload", "metric", "base q1/median/q3", "new q1/median/q3",
        "change", "verdict"))
    for w in workloads:
        names = sorted({m for ww, m in base if ww == w} & {m for ww, m in new if ww == w},
                       key=lambda m: (m not in bounds, m.startswith("details."), m))
        for name in names:
            b, n = base[(w, name)], new[(w, name)]
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            if name in bounds:
                spec = bounds[name]
                v = verdict(b, n, spec["bound"], spec["better"],
                            new_failed.get(w, 0.0) > base_failed.get(w, 0.0))
                regressions += v == "regression"
                label = "%s (bound %g, %d/%d runs)" % (v, spec["bound"], len(b), len(n))
            else:
                label = "-"
            print("%-14s %-36s %-30s %-30s %+7.1f%%  %s" % (
                w, name + (" [%s]" % units[name] if name in units else ""),
                "/".join(fmt(x) for x in bq), "/".join(fmt(x) for x in nq),
                100 * change, label))
    return regressions


def summarize(directory):
    runs = load_runs(directory)
    values, units = series(runs)
    # The label cache is sized per workload; the rest of the host block is
    # the same for every run of one build on one host.
    host = dict(runs[0]["host"]) if runs else {}
    host.pop("label_cache_bytes", None)
    out = {"host": host, "workloads": {},
           "label_cache_bytes": {r["workload"]: r["host"]["label_cache_bytes"]
                                 for r in runs},
           "seeds": {"trace%d" % t: sorted({r["seed"] for r in runs if r["trace"] == t})
                     for t in (0, 1)}}
    for (w, name), by_seed in sorted(values.items()):
        q1, med, q3 = quartiles(list(by_seed.values()))
        entry = {"median": med, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / abs(med) if med else 0.0,
                 "runs": len(by_seed)}
        if name in units:
            entry["unit"] = units[name]
        out["workloads"].setdefault(w, {})[name] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="*", help="BASE_DIR NEW_DIR")
    parser.add_argument("--summary", metavar="DIR", help="summarize one directory")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    if args.summary:
        json.dump(summarize(args.summary), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    if len(args.dirs) != 2:
        parser.error("give BASE_DIR and NEW_DIR, or --summary DIR")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    regressions = compare(args.dirs[0], args.dirs[1], benchmark)
    if regressions is None:
        return 2
    print("%d regression(s)" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
