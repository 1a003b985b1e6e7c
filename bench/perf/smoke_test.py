#!/usr/bin/env python3
"""perf_suite_smoke: runs every workload at 10k x 1k, untraced and traced.

Asserts that every metric BENCHMARK.json names is printed with its unit
(in the JSON result and in the text lines before it), that no check
failed, and that the traced run's spans nest and have non-negative self
time. Exits non-zero on the first violation.

    python3 smoke_test.py --binary <perf_suite> --benchmark <BENCHMARK.json> \\
        --scratch <dir for span files>
"""

import argparse
import json
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Spans close in stack order, so a child's self time may differ from the
# arithmetic on its printed times by rounding only.
EPSILON_S = 1e-9


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def check_result(label, stdout, expected):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % label)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (label, result["correct"],
                                           result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%s" % (label, result["attempted"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("%s: metrics %s, expected %s" % (
            label, sorted(metrics), sorted(expected)))
    text = {}  # name -> (value, unit), from the "name value unit" lines
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3:
            text[fields[0]] = (fields[1], fields[2])
    for name, unit in expected.items():
        entry = metrics[name]
        if entry.get("unit") != unit or not isinstance(entry.get("value"),
                                                       (int, float)):
            fail("%s: %s is %s, expected unit %s" % (label, name, entry, unit))
        if text.get(name, (None, None))[1] != unit:
            fail("%s: no text line for %s in %s" % (label, name, unit))
    if "failed_frac" not in text or float(text["failed_frac"][0]) != 0:
        fail("%s: failed_frac missing or non-zero" % label)


def check_spans(label, path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    if not spans:
        fail("%s: no spans" % label)
    child_seconds = [0.0] * len(spans)
    for index, span in enumerate(spans):
        parent = span["parent"]
        if parent == -1:
            continue
        if not 0 <= parent < index:
            fail("%s: span %d has parent %d" % (label, index, parent))
        outer = spans[parent]
        if not (outer["start_s"] <= span["start_s"] <= span["end_s"]
                <= outer["end_s"]):
            fail("%s: span %d (%s) is not inside its parent %d (%s)" % (
                label, index, span["name"], parent, outer["name"]))
        if span["join_id"] != outer["join_id"]:
            fail("%s: span %d changes join id under its parent" % (
                label, index))
        child_seconds[parent] += span["end_s"] - span["start_s"]
    for index, span in enumerate(spans):
        self_s = span["end_s"] - span["start_s"] - child_seconds[index]
        if self_s < -EPSILON_S:
            fail("%s: span %d (%s) has self time %g" % (
                label, index, span["name"], self_s))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            command = [args.binary, "--workload", workload, "--smoke",
                       "--seconds", "0"]
            spans = os.path.join(args.scratch, "smoke_spans_%s.json" % workload)
            if trace:
                command += ["--trace-layers", "--spans", spans]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=300)
            if done.returncode != 0:
                fail("%s exited with %d" % (label, done.returncode))
            check_result(label, done.stdout, per_layer if trace else end_to_end)
            if trace:
                check_spans(label, spans)
            print("ok: " + label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
