#!/usr/bin/env python3
"""Validate bench_results/BENCH_*.json artifacts (schema_version 15).

bench/Harness.cpp's BenchJson writes one schema, documented in
docs/OBSERVABILITY.md, and this checker accepts exactly that version.
Besides key presence and types it enforces:

* record and attempt statuses, witnesses, proofs, winners and backends
  come from closed sets;
* a record's status agrees with its solved / timed_out /
  node_limit_hit flags.

Stdlib-only. Usage:

    python3 scripts/check_bench_json.py bench_results/*.json
    python3 scripts/check_bench_json.py --self-test

Exits 0 iff every file conforms, printing one line per file.
--self-test checks a valid in-memory artifact and doctored copies of it,
each of which must be rejected.
"""

import copy
import json
import numbers
import sys

SCHEMA_VERSION = 15

TOP_KEYS = {
    "schema_version": numbers.Integral,
    "experiment": str,
    "generated_unix": numbers.Integral,
    "config": dict,
    "metrics": dict,
    "record_sets": list,
}

CONFIG_KEYS = {
    "synthetic_loops": numbers.Integral,
    "seed": numbers.Integral,
    "time_limit_seconds": numbers.Real,
    "node_limit": numbers.Integral,
    "large_cap": numbers.Integral,
    "warm_start": bool,
    "backend": str,
    "explain": bool,
}

RECORD_KEYS = {
    "name": str,
    "n": numbers.Integral,
    "solved": bool,
    "timed_out": bool,
    "node_limit_hit": bool,
    "status": str,
    "ii": numbers.Integral,
    "mii": numbers.Integral,
    "nodes": numbers.Integral,
    "iterations": numbers.Integral,
    "pb_conflicts": numbers.Integral,
    "pb_propagations": numbers.Integral,
    "warm_solves": numbers.Integral,
    "cold_solves": numbers.Integral,
    "warm_iterations": numbers.Integral,
    "refactorizations": numbers.Integral,
    "eta_nnz": numbers.Integral,
    "variables": numbers.Integral,
    "constraints": numbers.Integral,
    "seconds": numbers.Real,
    "secondary": numbers.Real,
    "max_live": numbers.Integral,
    "total_lifetime": numbers.Integral,
    "buffers": numbers.Integral,
    "explained_attempts": numbers.Integral,
    "unexplained_attempts": numbers.Integral,
    "attempts": list,
}

ATTEMPT_KEYS = {
    "ii": numbers.Integral,
    "status": str,
    "window_infeasible": bool,
    "scheduled": bool,
    "cancelled": bool,
    "nodes": numbers.Integral,
    "iterations": numbers.Integral,
    "pb_conflicts": numbers.Integral,
    "variables": numbers.Integral,
    "constraints": numbers.Integral,
    "seconds": numbers.Real,
    "winner": str,
    "witness": str,
    "witness_verified": bool,
    "witness_detail": str,
    "proof": str,
    "gap": numbers.Real,
    "root_bound": numbers.Real,
    "trajectory": list,
}

TRAJECTORY_KEYS = {
    "seconds": numbers.Real,
    "nodes": numbers.Integral,
    "incumbent": numbers.Real,
    "has_incumbent": bool,
    "bound": numbers.Real,
}

STATUSES = {"solved", "timeout", "node_limit", "unsolved"}
# Per-attempt solver verdicts (ilp::toString(MipStatus)).
ATTEMPT_STATUSES = {"optimal", "infeasible", "limit", "cancelled"}
BACKENDS = {"ilp", "pb", "portfolio"}
# Per-attempt engine the portfolio backend picked; empty means "no
# conclusive verdict" or a single-engine backend.
WINNERS = {"", "ilp", "pb"}
WITNESSES = {"cycle", "resource", "none"}
PROOFS = {"", "optimal", "first_solution", "censored"}


class SchemaError(Exception):
    pass


def check_keys(obj, spec, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected object, got {type(obj).__name__}")
    missing = set(spec) - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    for key, expected in spec.items():
        value = obj[key]
        # bool is a subclass of int in Python; reject it where we expect
        # genuine numbers so "solved": 1 and "n": true both fail.
        if expected is not bool and isinstance(value, bool):
            raise SchemaError(f"{where}.{key}: expected {expected.__name__}, "
                              f"got bool")
        if not isinstance(value, expected):
            raise SchemaError(f"{where}.{key}: expected {expected.__name__}, "
                              f"got {type(value).__name__}")


def check_member(obj, key, allowed, where):
    if obj[key] not in allowed:
        raise SchemaError(f"{where}.{key}: {obj[key]!r} not in "
                          f"{sorted(allowed)}")


def check_record(record, where):
    check_keys(record, RECORD_KEYS, where)
    check_member(record, "status", STATUSES, where)
    if record["solved"] and record["status"] != "solved":
        raise SchemaError(f"{where}: solved=true but status="
                          f"{record['status']!r}")
    if record["status"] == "node_limit" and not record["node_limit_hit"]:
        raise SchemaError(f"{where}: status='node_limit' but "
                          f"node_limit_hit=false")
    if record["timed_out"] and record["status"] not in {"timeout", "solved"}:
        raise SchemaError(f"{where}: timed_out=true but status="
                          f"{record['status']!r} (timeout wins over "
                          f"node_limit)")
    for i, attempt in enumerate(record["attempts"]):
        check_attempt(attempt, f"{where}.attempts[{i}]")


def check_attempt(attempt, where):
    check_keys(attempt, ATTEMPT_KEYS, where)
    check_member(attempt, "status", ATTEMPT_STATUSES, where)
    check_member(attempt, "winner", WINNERS, where)
    check_member(attempt, "witness", WITNESSES, where)
    check_member(attempt, "proof", PROOFS, where)
    if attempt["winner"] and attempt["cancelled"]:
        raise SchemaError(f"{where}: cancelled attempt claims "
                          f"winner={attempt['winner']!r}")
    for t, sample in enumerate(attempt["trajectory"]):
        check_keys(sample, TRAJECTORY_KEYS, f"{where}.trajectory[{t}]")


def check_doc(doc):
    """Validates one parsed artifact; returns (record sets, records)."""
    check_keys(doc, TOP_KEYS, "$")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"$.schema_version: expected {SCHEMA_VERSION}, "
                          f"got {doc['schema_version']}")
    if not doc["experiment"]:
        raise SchemaError("$.experiment: empty string")
    check_keys(doc["config"], CONFIG_KEYS, "$.config")
    check_member(doc["config"], "backend", BACKENDS, "$.config")
    for key, value in doc["metrics"].items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise SchemaError(f"$.metrics[{key!r}]: expected number, got "
                              f"{type(value).__name__}")
    n_records = 0
    for s, record_set in enumerate(doc["record_sets"]):
        where = f"$.record_sets[{s}]"
        check_keys(record_set, {"label": str, "records": list}, where)
        for r, record in enumerate(record_set["records"]):
            check_record(record, f"{where}.records[{r}]")
            n_records += 1
    return len(doc["record_sets"]), n_records


def check_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return check_doc(json.load(handle))


def _defaults(spec):
    zero = {bool: False, numbers.Integral: 0, numbers.Real: 0.0, str: "",
            list: [], dict: {}}
    return {key: copy.copy(zero[kind]) for key, kind in spec.items()}


def _valid_artifact():
    """A minimal artifact built from the key tables above, so it tracks
    them: one solved record with an optimal attempt and one record
    censored by its node budget."""
    attempt = _defaults(ATTEMPT_KEYS)
    attempt.update(status="optimal", scheduled=True, witness="none",
                   proof="optimal")
    attempt["trajectory"] = [_defaults(TRAJECTORY_KEYS)]
    solved = _defaults(RECORD_KEYS)
    solved.update(name="loop0", n=4, solved=True, status="solved", ii=2,
                  mii=2, nodes=3, attempts=[attempt])
    censored = _defaults(RECORD_KEYS)
    censored.update(name="loop1", n=6, node_limit_hit=True,
                    status="node_limit", mii=3, nodes=200)
    doc = _defaults(TOP_KEYS)
    doc.update(schema_version=SCHEMA_VERSION, experiment="self_test")
    doc["config"] = _defaults(CONFIG_KEYS)
    doc["config"].update(backend="ilp")
    doc["record_sets"] = [{"label": "first", "records": [solved]},
                          {"label": "second", "records": [censored]}]
    return doc


def self_test():
    """Returns 0 iff the valid artifact passes and every doctored copy
    is rejected."""
    def doctor(edit):
        doc = _valid_artifact()
        edit(doc)
        return doc

    def record(doc, s):
        return doc["record_sets"][s]["records"][0]

    cases = [
        ("schema 14 (bound_exchanges)",
         lambda d: (d.update(schema_version=14),
                    record(d, 0)["attempts"][0].update(
                        winner="pb", bound_exchanges=3))),
        ("node_limit status without node_limit_hit",
         lambda d: record(d, 1).update(node_limit_hit=False)),
        ("unknown attempt status",
         lambda d: record(d, 0)["attempts"][0].update(status="feasible")),
        ("unknown witness",
         lambda d: record(d, 0)["attempts"][0].update(witness="window")),
    ]
    failures = 0
    try:
        check_doc(_valid_artifact())
        print(f"ok   valid v{SCHEMA_VERSION} artifact accepted")
    except SchemaError as err:
        print(f"FAIL valid v{SCHEMA_VERSION} artifact rejected: {err}")
        failures += 1
    for name, edit in cases:
        try:
            check_doc(doctor(edit))
        except SchemaError as err:
            print(f"ok   {name} rejected: {err}")
        else:
            print(f"FAIL {name} accepted")
            failures += 1
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) < 2:
        print(f"usage: {argv[0]} BENCH_*.json... | --self-test",
              file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            n_sets, n_records = check_file(path)
        except (OSError, json.JSONDecodeError, SchemaError) as err:
            print(f"FAIL {path}: {err}")
            failures += 1
        else:
            print(f"ok   {path}: {n_sets} record set(s), "
                  f"{n_records} record(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
