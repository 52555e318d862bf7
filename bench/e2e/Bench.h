//===- bench/e2e/Bench.h - End-to-end benchmark common types ----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the workloads of the end-to-end benchmark: run
/// options, the metric tables (which must match BENCHMARK.json at the
/// repository root; `run.sh --self-test` checks that), the verdict tally
/// that feeds `failed`, and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_E2E_BENCH_H
#define MODSCHED_BENCH_E2E_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// The loop suite every workload draws from by default: the committed
/// expected files cover it and the held-out suite 20261016, which is
/// for re-checking a claimed gain on loops that were not looked at
/// while the change was written.
inline constexpr uint64_t DefaultSuiteSeed = 20260705;

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  /// Draws the service scripts: zipf ranks and relabelings. The sweeps
  /// run their records in an order fixed by the suite.
  uint64_t Seed = DefaultSuiteSeed;
  /// Draws the loops themselves (see DefaultSuiteSeed).
  uint64_t SuiteSeed = DefaultSuiteSeed;
  /// Sizes the run: the time-bounded replay measures this long, the
  /// fixed-work workloads scale their record counts by it. The default
  /// is BENCHMARK.json's run_seconds.
  double Seconds = 30.0;
  bool Trace = false;
  std::string ExpectedDir = "bench/e2e/expected";
  std::string ResultsDir = "bench_results/e2e";
};

/// Name and unit of a metric in a table.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics, printed by every untraced run of every workload.
const std::vector<MetricSpec> &endToEndMetrics();

/// Per-layer metrics, printed by every traced run of every workload.
const std::vector<MetricSpec> &perLayerMetrics();

/// Verdict bookkeeping: every checked verdict counts as attempted, and
/// every wrong verdict, verifier rejection, wall-clock timeout, error,
/// shed or cancelled reply as failed (with its reason kept for stderr).
struct Tally {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Reasons;

  void pass() { ++Attempted; }
  void fail(const std::string &Why) {
    ++Attempted;
    ++Failed;
    if (Reasons.size() < 50)
      Reasons.push_back(Why);
  }
  void merge(const Tally &Other) {
    Attempted += Other.Attempted;
    Failed += Other.Failed;
    for (const std::string &Why : Other.Reasons)
      if (Reasons.size() < 50)
        Reasons.push_back(Why);
  }
};

/// Everything a workload hands back to main().
struct RunResult {
  std::map<std::string, double> Metrics; ///< Keyed by table name.
  Tally Verdicts;
  /// Deterministic counts (nodes, iterations, conflicts, decided
  /// records): two runs of the same code on the same suite must agree
  /// exactly. compare.py checks them.
  std::map<std::string, int64_t> Counts;
  /// Extra numbers for the result file (sample counts, absolute layer
  /// times); not part of the metric tables.
  std::map<std::string, double> Diagnostics;
};

/// Fixed-memory latency histogram for service-replay, whose sample count
/// grows with throughput (so that peak_rss_mb does not): logarithmic
/// buckets 1% wide, percentiles interpolated linearly by rank inside a
/// bucket.
class LatencyHistogram {
public:
  LatencyHistogram();
  void add(double Ms);
  int64_t count() const { return Count; }
  /// Percentile \p P in [0, 100]; 0 when empty.
  double percentile(double P) const;

private:
  double bucketLow(size_t Bucket) const;

  std::vector<int64_t> Buckets;
  int64_t Count = 0;
};

/// Sets latency_ms_p50 and _p90 from per-verdict latencies and records
/// the sample count.
void addLatencyMetrics(std::vector<double> Ms, RunResult &Out);

/// Per-objective tallies behind the objective.<name>.* metrics.
struct ObjectiveTally {
  struct Row {
    int64_t Count = 0;
    int64_t Decided = 0;
    double Ms = 0.0;
  };
  /// Keyed by "noobj" / "minreg" / "minbuff" / "minlife".
  std::map<std::string, Row> Rows;

  void add(const char *Objective, bool Decided, double Ms);
};

/// Sets objective.<name>.decided_frac and .wall_share for the four
/// objectives (0 for an objective with no verdicts).
void addObjectiveMetrics(const ObjectiveTally &Tally,
                         std::map<std::string, double> &Metrics);

/// Linear-interpolated percentile \p P in [0, 100] of \p Values (which
/// it sorts in place). 0 for an empty sample.
double percentile(std::vector<double> &Values, double P);

/// percentile() of the sample in which each (value, count) pair of
/// \p Values stands for count copies of value.
double weightedPercentile(std::vector<std::pair<double, int64_t>> Values,
                          double P);

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests while this one wanted
/// to run (steal). Both 0 where /proc/stat is unreadable.
struct CpuTicks {
  uint64_t Total = 0;
  uint64_t Steal = 0;
};
CpuTicks readCpuTicks();

/// 64-bit mix of two values (seeding per-client generators).
uint64_t mixSeed(uint64_t A, uint64_t B);

} // namespace e2e

#endif // MODSCHED_BENCH_E2E_BENCH_H
