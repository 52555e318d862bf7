//===- bench/e2e/Bench.cpp - End-to-end benchmark common types ------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include <sys/resource.h>

namespace e2e {

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> Table = {
      {"setup_s", "s"},
      {"verdicts_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
      {"decided_frac", "fraction"},
      {"peak_rss_mb", "MB"},
  };
  return Table;
}

const std::vector<MetricSpec> &perLayerMetrics() {
  // Busy time is reported as each layer's share of the traced wall time
  // (self time, children excluded), so that a layer a workload leaves
  // idle reads 0 as a share rather than as a constant time.
  static const std::vector<MetricSpec> Table = {
      {"protocol.read_frame_share", "fraction"},
      {"textio.parse_share", "fraction"},
      {"server.overhead_share", "fraction"},
      {"problem.canon_share", "fraction"},
      {"problem.hash_exact_frac", "fraction"},
      {"cache.lookup_share", "fraction"},
      {"cache.hit_frac", "fraction"},
      {"mii.us_mean", "us"},
      {"search.attempts_per_record", "count"},
      {"search.useful_attempt_frac", "fraction"},
      {"search.window_infeasible_frac", "fraction"},
      {"search.ii_minus_mii_mean", "cycles"},
      {"formulation.build_share", "fraction"},
      {"formulation.rows_mean", "count"},
      {"formulation.nnz_mean", "count"},
      {"pbformulation.build_share", "fraction"},
      {"pbformulation.vars_mean", "count"},
      {"pbformulation.constraints_mean", "count"},
      {"ilp.solve_share", "fraction"},
      {"ilp.nodes_total", "count"},
      {"lp.iterations_total", "count"},
      {"lp.warm_solve_frac", "fraction"},
      {"lp.refactorizations_total", "count"},
      {"lp.eta_nnz_total", "count"},
      {"pb.solve_share", "fraction"},
      {"pb.conflicts_total", "count"},
      {"pb.propagations_per_conflict", "count"},
      {"pb.learned_total", "count"},
      {"pb.restarts_total", "count"},
      {"decode.share", "fraction"},
      {"verifier.us_mean", "us"},
      {"objective.noobj.decided_frac", "fraction"},
      {"objective.minreg.decided_frac", "fraction"},
      {"objective.minbuff.decided_frac", "fraction"},
      {"objective.minlife.decided_frac", "fraction"},
      {"objective.noobj.wall_share", "fraction"},
      {"objective.minreg.wall_share", "fraction"},
      {"objective.minbuff.wall_share", "fraction"},
      {"objective.minlife.wall_share", "fraction"},
      {"trace.overhead_frac", "fraction"},
      {"trace.unattributed_frac", "fraction"},
      {"trace.unfaithful_records", "count"},
  };
  return Table;
}

double percentile(std::vector<double> &Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Rank = P / 100.0 * double(Values.size() - 1);
  const size_t Lo = size_t(std::floor(Rank));
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Rank - double(Lo));
}

double weightedPercentile(std::vector<std::pair<double, int64_t>> Values,
                          double P) {
  int64_t Count = 0;
  for (const auto &[V, N] : Values)
    Count += N;
  if (Count == 0)
    return 0.0;
  std::sort(Values.begin(), Values.end());
  // The values at 0-based positions Lo and Lo + 1 of the expanded sample.
  const double Rank = P / 100.0 * double(Count - 1);
  const int64_t Lo = int64_t(std::floor(Rank));
  auto At = [&Values](int64_t Pos) {
    for (const auto &[V, N] : Values) {
      if (Pos < N)
        return V;
      Pos -= N;
    }
    return Values.back().first;
  };
  const double Low = At(Lo), High = At(std::min(Lo + 1, Count - 1));
  return Low + (High - Low) * (Rank - double(Lo));
}

double peakRssMb() {
  // VmHWM is this program image's peak. getrusage's ru_maxrss also
  // keeps the peak of the image that exec'd it (run.sh's shell).
  std::ifstream Status("/proc/self/status");
  std::string Key;
  double Kib = 0.0;
  while (Status >> Key)
    if (Key == "VmHWM:" && Status >> Kib)
      return Kib / 1024.0;
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // Linux reports KiB.
}

CpuTicks readCpuTicks() {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream Stat("/proc/stat");
  std::string Label;
  CpuTicks Out;
  if (!(Stat >> Label) || Label != "cpu")
    return Out;
  uint64_t Field = 0;
  for (int I = 0; I < 8 && Stat >> Field; ++I) {
    Out.Total += Field;
    if (I == 7)
      Out.Steal = Field;
  }
  return Out;
}

uint64_t mixSeed(uint64_t A, uint64_t B) {
  uint64_t X = A ^ (B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2));
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

namespace {

constexpr double HistMinMs = 1e-3;
constexpr double HistGrowth = 1.01;
constexpr size_t HistBuckets = 2090; // Up to ~1e6 ms.

} // namespace

LatencyHistogram::LatencyHistogram() : Buckets(HistBuckets, 0) {}

double LatencyHistogram::bucketLow(size_t Bucket) const {
  return HistMinMs * std::pow(HistGrowth, double(Bucket));
}

void LatencyHistogram::add(double Ms) {
  double Index = Ms > HistMinMs ? std::log(Ms / HistMinMs) / std::log(HistGrowth)
                                : 0.0;
  ++Buckets[std::min(size_t(Index), HistBuckets - 1)];
  ++Count;
}

double LatencyHistogram::percentile(double P) const {
  if (Count == 0)
    return 0.0;
  // Same rank convention as the vector percentile above.
  const double Rank = P / 100.0 * double(Count - 1);
  int64_t Before = 0;
  for (size_t I = 0; I < HistBuckets; ++I) {
    if (Buckets[I] == 0)
      continue;
    if (double(Before + Buckets[I]) > Rank) {
      const double Within = (Rank - double(Before) + 0.5) / double(Buckets[I]);
      return bucketLow(I) + (bucketLow(I + 1) - bucketLow(I)) * Within;
    }
    Before += Buckets[I];
  }
  return bucketLow(HistBuckets);
}

void addLatencyMetrics(std::vector<double> Ms, RunResult &Out) {
  Out.Metrics["latency_ms_p50"] = percentile(Ms, 50);
  Out.Metrics["latency_ms_p90"] = percentile(Ms, 90);
  Out.Diagnostics["latency_samples"] = double(Ms.size());
}

void ObjectiveTally::add(const char *Objective, bool Decided, double Ms) {
  Row &R = Rows[Objective];
  ++R.Count;
  R.Decided += Decided;
  R.Ms += Ms;
}

void addObjectiveMetrics(const ObjectiveTally &Tally,
                         std::map<std::string, double> &Metrics) {
  double TotalMs = 0.0;
  for (const auto &[Name, R] : Tally.Rows)
    TotalMs += R.Ms;
  for (const char *Name : {"noobj", "minreg", "minbuff", "minlife"}) {
    auto It = Tally.Rows.find(Name);
    const ObjectiveTally::Row R =
        It == Tally.Rows.end() ? ObjectiveTally::Row() : It->second;
    const std::string Prefix = std::string("objective.") + Name;
    Metrics[Prefix + ".decided_frac"] =
        R.Count ? double(R.Decided) / double(R.Count) : 0.0;
    Metrics[Prefix + ".wall_share"] = TotalMs > 0 ? R.Ms / TotalMs : 0.0;
  }
}

} // namespace e2e
