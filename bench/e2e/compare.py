#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark.

A result set is a runs.jsonl file (or a directory holding one) that
bench/e2e/run.sh or e2e_bench appended one untraced or traced run per
line to. For every workload and end-to-end metric the script prints each
set's median and quartiles and a verdict against the metric's bound in
BENCHMARK.json:

  within bound  B's median is no worse than A's by more than the bound
  regressed     B's median is worse than A's by more than the bound
  unresolved    a set's run-to-run spread (quartile distance over the
                median) exceeds the bound, and not every run of B reads
                better than every run of A

Deterministic counts (records, decided records, nodes, iterations,
conflicts, ...) must be identical between runs of the same workload,
suite, size and seed in both sets, and every run must be correct.

Usage:
  compare.py A B [--benchmark BENCHMARK.json]
  compare.py --self-test

Exits 1 on a regression, a count mismatch or an incorrect run.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile


def load_runs(path):
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """Verdict of set b against set a for one metric."""
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "within bound"


def compare(runs_a, runs_b, bench, out=sys.stdout):
    """Prints the comparison; returns the number of blocking problems."""
    problems = 0
    for label, runs in (("A", runs_a), ("B", runs_b)):
        for r in runs:
            if not r["correct"] or r["failed"]:
                print(f"set {label}: incorrect run of {r['workload']} "
                      f"(seed {r['seed']}, {r['failed']} failed)", file=out)
                problems += 1

    def key(r):
        return (r["workload"], r["suite_seed"], r["seconds"], r["seed"])

    counts_a = {}
    for r in runs_a:
        if not r["trace"]:
            counts_a.setdefault(key(r), r["counts"])
    for r in runs_b:
        if r["trace"] or key(r) not in counts_a:
            continue
        if r["counts"] != counts_a[key(r)]:
            print(f"count mismatch on {r['workload']} seed {r['seed']}: "
                  f"{counts_a[key(r)]} vs {r['counts']}", file=out)
            problems += 1

    workloads = sorted({r["workload"] for r in runs_a + runs_b if not r["trace"]})
    header = (f"{'workload':<15} {'metric':<21} {'A median [q1, q3]':<34} "
              f"{'B median [q1, q3]':<34} {'change':>8}  verdict")
    print(header, file=out)
    for w in workloads:
        a_runs = [r for r in runs_a if r["workload"] == w and not r["trace"]]
        b_runs = [r for r in runs_b if r["workload"] == w and not r["trace"]]
        if not a_runs or not b_runs:
            print(f"{w:<15} (missing from one set)", file=out)
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            if any(name not in r["metrics"] for r in a_runs + b_runs):
                print(f"{w:<15} {name:<21} (not in every run of both sets)",
                      file=out)
                continue
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            v = verdict(a, b, m["better"], m["bound"])
            if v == "regressed":
                problems += 1
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            fa = f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
            fb = f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
            print(f"{w:<15} {name:<21} {fa:<34} {fb:<34} {change:+8.2%}  "
                  f"{v} (n={len(a)}/{len(b)}, bound {m['bound']:g})",
                  file=out)
    return problems


def self_test():
    bench = {"end_to_end": [
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "verdicts_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}

    def run(workload, seed, lat, qps, counts=None, correct=True):
        return {"workload": workload, "seed": seed, "suite_seed": 1,
                "seconds": 20, "trace": False, "correct": correct,
                "attempted": 10, "failed": 0 if correct else 1,
                "metrics": {"latency_ms_p50": {"value": lat, "unit": "ms"},
                            "verdicts_per_s": {"value": qps, "unit": "1/s"}},
                "counts": counts or {"nodes": 7}}

    steady = [100, 101, 99, 100.5, 99.5]
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.1) == \
        "within bound"
    assert verdict(steady, [x * 1.2 for x in steady], "lower", 0.1) == \
        "regressed"
    assert verdict(steady, [x * 0.8 for x in steady], "higher", 0.1) == \
        "regressed"
    noisy = [60, 100, 140, 80, 120]
    assert verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [x / 3 for x in noisy], "lower", 0.1) == \
        "within bound"  # Noisy, but every B run beats every A run.

    a = [run("w", s, 100 + s, 50) for s in range(5)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "runs.jsonl")
        with open(path, "w") as f:
            for r in a:
                f.write(json.dumps(r) + "\n")
        assert load_runs(tmp) == a
    sink = open(os.devnull, "w")
    assert compare(a, [run("w", s, 101 + s, 50) for s in range(5)],
                   bench, sink) == 0
    assert compare(a, [run("w", s, 101 + s, 50, {"nodes": 8})
                       for s in range(5)], bench, sink) == 5
    assert compare(a, [run("w", s, 130 + s, 50) for s in range(5)],
                   bench, sink) == 1
    assert compare(a, [run("w", s, 100 + s, 50, correct=s != 2)
                       for s in range(5)], bench, sink) == 1
    print("compare.py self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="*", metavar="SET")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if len(args.sets) != 2:
        parser.error("give two result sets, or --self-test")
    with open(args.benchmark) as f:
        bench = json.load(f)
    problems = compare(load_runs(args.sets[0]), load_runs(args.sets[1]), bench)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
