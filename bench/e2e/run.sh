#!/usr/bin/env bash
# End-to-end benchmark of the modulo scheduler (see bench/e2e/README.md).
# Builds bench/e2e into build-e2e/ from the sources in the checkout, then:
#
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                    [--suite-seed N]
#       One run of workload W. Prints one "METRIC <workload> <name>
#       <value> <unit>" line per metric and ends stdout with one JSON
#       line {"correct", "attempted", "failed", "metrics"}.
#
#   bench/e2e/run.sh [--workloads w1,w2] [--seed N] [--runs K] [--trace]
#                    [--seconds S] [--suite-seed N]
#       K runs of each listed workload (default: all three, 1 run), with
#       seeds N, N+1, ...; results accumulate in bench_results/e2e/.
#
#   bench/e2e/run.sh --self-test
#       All three workloads at tiny sizes, traced and untraced; checks
#       that the printed metric names and units match BENCHMARK.json,
#       runs compare.py --self-test and re-proves a few expected entries.
#
#   bench/e2e/run.sh --write-expected | --check-expected
#                    [--workloads ...] [--suite-seed N]
#       Regenerate or re-prove bench/e2e/expected/<workload>-<suite>.tsv.
#
# Every mode exits nonzero on a wrong verdict or a failed build.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$ROOT"
BUILD=build-e2e
BIN=$BUILD/e2e_bench
ALL_WORKLOADS=sweep-ilp,sweep-pb,service-replay

build() {
  if [[ ! -f $BUILD/CMakeCache.txt ]]; then
    cmake -S bench/e2e -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  fi
  cmake --build "$BUILD" -j 4 --target e2e_bench >&2
}

# Driver form: a single --workload run, arguments passed through.
if [[ " $* " == *" --workload "* ]]; then
  build
  exec "$BIN" "$@"
fi

WORKLOADS=$ALL_WORKLOADS
SEED=20260705
SUITE_SEED=20260705
RUNS=1
TRACE=0
SECONDS_ARG=$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
MODE=run
while [[ $# -gt 0 ]]; do
  case $1 in
    --workloads) WORKLOADS=$2; shift 2 ;;
    --seed) SEED=$2; shift 2 ;;
    --suite-seed) SUITE_SEED=$2; shift 2 ;;
    --runs) RUNS=$2; shift 2 ;;
    --seconds) SECONDS_ARG=$2; shift 2 ;;
    --trace) TRACE=1; shift ;;
    --self-test) MODE=self-test; shift ;;
    --write-expected) MODE=write-expected; shift ;;
    --check-expected) MODE=check-expected; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build
IFS=, read -r -a LIST <<< "$WORKLOADS"

case $MODE in
  write-expected|check-expected)
    for W in "${LIST[@]}"; do
      "$BIN" --workload "$W" --suite-seed "$SUITE_SEED" "--$MODE"
    done
    ;;
  run)
    STATUS=0
    for W in "${LIST[@]}"; do
      for ((I = 0; I < RUNS; ++I)); do
        "$BIN" --workload "$W" --seed $((SEED + I)) --suite-seed "$SUITE_SEED" \
          --seconds "$SECONDS_ARG" --trace "$TRACE" | grep '^METRIC' || STATUS=1
      done
    done
    exit $STATUS
    ;;
  self-test)
    OUT=bench_results/e2e/self-test
    rm -rf "$OUT"
    mkdir -p "$OUT"
    for W in "${LIST[@]}"; do
      for T in 0 1; do
        "$BIN" --workload "$W" --seed 1 --seconds 0.5 --trace "$T" \
          --results-dir "$OUT" > "$OUT/$W-$T.out"
      done
    done
    python3 - "$OUT" "${LIST[@]}" <<'EOF'
import json, sys
out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
for w in workloads:
    for trace, table in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
        lines = open(f"{out}/{w}-{trace}.out").read().splitlines()
        want = [(m["name"], m["unit"]) for m in table]
        got = [(f[2], f[4]) for f in (l.split() for l in lines[:-1])
               if f[0] == "METRIC" and f[1] == w]
        assert got == want, f"{w} trace={trace}: METRIC lines {got} != {want}"
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert [(k, v["unit"]) for k, v in last["metrics"].items()] == want
        assert all(isinstance(v["value"], (int, float))
                   for v in last["metrics"].values())
print(f"self-test: metric names and units match BENCHMARK.json "
      f"for {len(workloads)} workloads")
EOF
    python3 bench/e2e/compare.py --self-test
    "$BIN" --workload sweep-ilp --check-expected --check-limit 8
    ;;
esac
