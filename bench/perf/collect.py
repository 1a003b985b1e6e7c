#!/usr/bin/env python3
"""Runs perf_suite over many seeds and summarizes the results.

Run a set (each workload, untraced and traced, once per seed):

    python3 bench/perf/collect.py run --out set1.jsonl --seeds 1-10

A/B two commits with alternating pairs: give one checkout per commit,
in directories with distinct names (the summary is keyed by them). For
every seed both run back to back, and the side that runs first
alternates from seed to seed:

    python3 bench/perf/collect.py run --out ab.jsonl --seeds 1-10 \\
        --checkout ../parent --checkout .

Summarize: per checkout, workload and metric, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median, checked
against the bounds in BENCHMARK.json. With two files (two sets of the
same code) it also prints how far each median moved between them. With
two checkouts in one file it prints, per metric, in how many seeds the
second checkout did better than the first.

    python3 bench/perf/collect.py summarize set1.jsonl set2.jsonl \\
        --json bench/perf/results/summary.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def run(args):
    checkouts = [os.path.abspath(c) for c in args.checkout] or [ROOT]
    workloads = args.workloads.split(",")
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    with open(args.out, "a") as out:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = checkouts if index % 2 == 0 else checkouts[::-1]
            for workload in workloads:
                for trace in traces:
                    for checkout in order:
                        command = [sys.executable, "bench/perf/run.py",
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(trace)]
                        started = time.monotonic()
                        done = subprocess.run(command, cwd=checkout,
                                              stdout=subprocess.PIPE, text=True)
                        wall_s = time.monotonic() - started
                        lines = done.stdout.strip().splitlines()
                        if done.returncode != 0 or not lines:
                            print("FAILED: %s in %s" % (" ".join(command),
                                                        checkout))
                            continue
                        record = {"checkout": checkout, "workload": workload,
                                  "seed": seed, "trace": trace,
                                  "wall_s": wall_s,
                                  "result": json.loads(lines[-1])}
                        out.write(json.dumps(record) + "\n")
                        out.flush()
                        print("seed %d %s trace %d %s: correct=%s" % (
                            seed, workload, trace, checkout,
                            record["result"]["correct"]))


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def stats_of(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread, "min": min(values), "max": max(values)}


def summarize_file(records, metrics):
    """{checkout: {workload: {metric: stats}}}, plus correctness totals."""
    grouped = {}
    totals = {"runs": 0, "incorrect": 0, "attempted": 0, "failed": 0}
    for r in records:
        result = r["result"]
        totals["runs"] += 1
        totals["incorrect"] += 0 if result["correct"] else 1
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        per_metric = grouped.setdefault(
            os.path.basename(r["checkout"]), {}).setdefault(r["workload"], {})
        for name, value in result["metrics"].items():
            per_metric.setdefault(name, []).append(value["value"])
        if "wall_s" in r:
            per_metric.setdefault("run_wall_s.trace%d" % r["trace"],
                                  []).append(r["wall_s"])
    summary = {}
    for checkout, workloads in grouped.items():
        for workload, values in workloads.items():
            for name, series in values.items():
                entry = stats_of(series) if len(series) >= 2 else {
                    "n": len(series), "median": series[0]}
                entry["unit"] = metrics.get(name, {}).get("unit", "")
                bound = metrics.get(name, {}).get("bound")
                if bound is not None and "spread" in entry:
                    entry["bound"] = bound
                    entry["spread_within_third_of_bound"] = (
                        entry["spread"] < bound / 3)
                summary.setdefault(checkout, {}).setdefault(
                    workload, {})[name] = entry
    return summary, totals


def worse_by(metric, first, second):
    """Relative change from `first` to `second`, positive when worse."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if metric.get("better") == "lower" else -change


def summarize(args):
    metrics = load_benchmark(args.benchmark)
    doc = {"benchmark": os.path.relpath(args.benchmark, ROOT), "sets": []}
    for path in args.files:
        summary, totals = summarize_file(read_records(path), metrics)
        doc["sets"].append({"file": os.path.basename(path), "totals": totals,
                            "summary": summary})
        print("== %s: %d runs, %d incorrect, %d of %d operations failed" % (
            path, totals["runs"], totals["incorrect"], totals["failed"],
            totals["attempted"]))
        for checkout, workloads in summary.items():
            for workload, values in sorted(workloads.items()):
                print("-- %s  (%s)" % (workload, checkout))
                for name, e in values.items():
                    if "spread" not in e:
                        continue
                    flag = ""
                    if "bound" in e:
                        flag = "ok" if e["spread_within_third_of_bound"] else (
                            "SPREAD > bound/3")
                    print("  %-26s median %-14.6g q1 %-14.6g q3 %-14.6g "
                          "spread %6.2f%% %s" % (name, e["median"], e["q1"],
                                                 e["q3"], 100 * e["spread"],
                                                 flag))
        records = read_records(path)
        checkouts = list(summary)
        if len(checkouts) == 2:
            print("-- pairs: seeds where %s did better than %s" % (
                checkouts[1], checkouts[0]))
            by_key = {}
            for r in records:
                for name, value in r["result"]["metrics"].items():
                    by_key.setdefault((r["workload"], r["seed"], name), {})[
                        os.path.basename(r["checkout"])] = value["value"]
            wins = {}
            for (workload, _, name), sides in by_key.items():
                if len(sides) != 2 or name not in metrics:
                    continue
                delta = worse_by(metrics[name], sides[checkouts[0]],
                                 sides[checkouts[1]])
                tally = wins.setdefault((workload, name), [0, 0])
                tally[0] += delta < 0
                tally[1] += 1
            for (workload, name), (won, pairs) in sorted(wins.items()):
                print("  %-18s %-26s %d of %d" % (workload, name, won, pairs))
    if len(doc["sets"]) == 2:
        first, second = (s["summary"] for s in doc["sets"])
        drift = {}
        print("== median drift, set 1 -> set 2 (positive = worse)")
        for checkout, workloads in first.items():
            for workload, values in sorted(workloads.items()):
                for name, e in values.items():
                    other = second.get(checkout, {}).get(workload, {}).get(name)
                    if other is None or name not in metrics:
                        continue
                    change = worse_by(metrics[name], e["median"],
                                      other["median"])
                    bound = metrics[name].get("bound")
                    drift.setdefault(workload, {})[name] = change
                    if bound is not None:
                        print("  %-18s %-26s %+7.2f%% %s" % (
                            workload, name, 100 * change,
                            "ok" if change <= bound else "WORSE THAN BOUND"))
        doc["median_drift"] = drift
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True, help="JSON-lines file to append to")
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    r.add_argument("--workloads", default="probe_1m_t1,spill_1m_t4,"
                   "sortmerge_1m_t4,sweep_100k_t4")
    r.add_argument("--trace", choices=("0", "1", "both"), default="both")
    r.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    r.add_argument("--checkout", action="append", default=[],
                   help="checkout to run in (repeat for A/B); default: this one")
    s = sub.add_parser("summarize")
    s.add_argument("files", nargs="+")
    s.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    s.add_argument("--json", help="write the summary here")
    args = parser.parse_args()
    if args.command == "run":
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        run(args)
    else:
        summarize(args)


if __name__ == "__main__":
    main()
