//===- bench/Harness.cpp - Shared experiment harness ----------------------===//

#include "Harness.h"

#include "ilp/BranchAndBound.h"
#include "sched/RegisterPressure.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "workloads/SyntheticGenerator.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>

using namespace modsched;
using namespace modsched::bench;

namespace {

/// Strict env-integer parsing: the whole string must be a base-10
/// integer within [Min, Max]. Anything else ("ten", "3x", empty,
/// overflow, out of range) warns on stderr and reports failure so the
/// caller keeps its compiled-in default — the atoi-style silent
/// garbage-to-0 mapping is exactly what this replaces.
bool parseEnvInt(const char *Name, const char *Text, long long Min,
                 long long Max, long long &Out) {
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V < Min || V > Max) {
    std::fprintf(stderr,
                 "warning: ignoring %s='%s' (expected an integer in "
                 "[%lld, %lld]); keeping the default\n",
                 Name, Text, Min, Max);
    return false;
  }
  Out = V;
  return true;
}

/// Strict env-double parsing: the whole string must be a finite number
/// strictly greater than \p Min. Warns and reports failure otherwise.
bool parseEnvSeconds(const char *Name, const char *Text, double Min,
                     double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE ||
      !(V > Min) || !(V < 1e30)) {
    std::fprintf(stderr,
                 "warning: ignoring %s='%s' (expected seconds > %g); "
                 "keeping the default\n",
                 Name, Text, Min);
    return false;
  }
  Out = V;
  return true;
}

} // namespace

BenchConfig BenchConfig::fromEnv() {
  BenchConfig Config;
  long long V = 0;
  if (const char *E = std::getenv("MODSCHED_BENCH_LOOPS"))
    if (parseEnvInt("MODSCHED_BENCH_LOOPS", E, 0, 1000000, V))
      Config.SyntheticLoops = static_cast<int>(V);
  if (const char *E = std::getenv("MODSCHED_BENCH_TIMELIMIT"))
    parseEnvSeconds("MODSCHED_BENCH_TIMELIMIT", E, 0.0,
                    Config.TimeLimitSeconds);
  if (const char *E = std::getenv("MODSCHED_BENCH_SEED")) {
    // Seeds use the full uint64 range; parse via the widest unsigned
    // type with the same strictness.
    errno = 0;
    char *End = nullptr;
    unsigned long long S = std::strtoull(E, &End, 10);
    if (End == E || *End != '\0' || errno == ERANGE)
      std::fprintf(stderr,
                   "warning: ignoring MODSCHED_BENCH_SEED='%s' (expected "
                   "an unsigned integer); keeping the default\n",
                   E);
    else
      Config.Seed = S;
  }
  if (const char *E = std::getenv("MODSCHED_BENCH_WARMSTART"))
    if (parseEnvInt("MODSCHED_BENCH_WARMSTART", E, 0, 1, V))
      Config.WarmStart = V != 0;
  if (const char *E = std::getenv("MODSCHED_BENCH_EXPLAIN"))
    if (parseEnvInt("MODSCHED_BENCH_EXPLAIN", E, 0, 1, V))
      Config.Explain = V != 0;
  if (const char *E = std::getenv("MODSCHED_BENCH_BACKEND")) {
    if (std::optional<SchedulerBackend> B = parseSchedulerBackend(E))
      Config.Backend = *B;
    else
      std::fprintf(stderr,
                   "warning: ignoring MODSCHED_BENCH_BACKEND='%s' "
                   "(expected ilp|pb|portfolio); keeping %s\n",
                   E, toString(Config.Backend));
  }
  return Config;
}

std::vector<DependenceGraph> bench::benchSuite(const MachineModel &M,
                                               const BenchConfig &Config) {
  return generateSuite(M, Config.SyntheticLoops, Config.Seed,
                       /*IncludeKernels=*/true, Config.LargeCap);
}

LoopRecord LoopRecord::fromResult(const DependenceGraph &G,
                                  const ScheduleResult &R,
                                  const MachineModel *M) {
  LoopRecord Rec;
  Rec.Name = G.name();
  Rec.NumOps = G.numOperations();
  Rec.Solved = R.Found;
  Rec.TimedOut = R.TimedOut;
  Rec.NodeLimitHit = R.NodeLimitHit;
  Rec.II = R.II;
  Rec.Mii = R.Mii;
  Rec.Nodes = R.Nodes;
  Rec.SimplexIterations = R.SimplexIterations;
  Rec.PbConflicts = R.PbConflicts;
  Rec.PbPropagations = R.PbPropagations;
  Rec.WarmLpSolves = R.WarmLpSolves;
  Rec.ColdLpSolves = R.ColdLpSolves;
  Rec.WarmLpIterations = R.WarmLpIterations;
  Rec.LpRefactorizations = R.LpRefactorizations;
  Rec.LpEtaNonzeros = R.LpEtaNonzeros;
  Rec.Variables = R.Variables;
  Rec.Constraints = R.Constraints;
  Rec.Seconds = R.Seconds;
  Rec.Secondary = R.SecondaryObjective;
  Rec.Attempts = R.Attempts;
  Rec.AttemptDetails.resize(Rec.Attempts.size());
  for (size_t I = 0; I < Rec.Attempts.size(); ++I) {
    const IiAttempt &A = Rec.Attempts[I];
    // An infeasible verdict is any non-cancelled attempt that neither
    // scheduled nor censored — exactly the attempts the scheduler looks
    // for a witness for.
    const bool Infeasible = !A.Scheduled && !A.Cancelled &&
                            A.Status == ilp::MipStatus::Infeasible;
    if (Infeasible) {
      if (A.Explain)
        ++Rec.ExplainedAttempts;
      else
        ++Rec.UnexplainedAttempts;
    }
    if (A.Explain && M)
      Rec.AttemptDetails[I] = describeExplanation(G, *M, A.II, *A.Explain);
  }
  if (R.Found) {
    RegisterPressure P = computeRegisterPressure(G, R.Schedule);
    Rec.MaxLive = P.MaxLive;
    Rec.TotalLifetime = P.TotalLifetime;
    Rec.Buffers = P.Buffers;
  }
  return Rec;
}

std::vector<LoopRecord>
bench::runOptimal(const MachineModel &M,
                  const std::vector<DependenceGraph> &Suite, Objective Obj,
                  DependenceStyle Dep, const BenchConfig &Config) {
  SchedulerOptions Opts;
  Opts.Formulation.Obj = Obj;
  Opts.Formulation.DepStyle = Dep;
  Opts.TimeLimitSeconds = Config.TimeLimitSeconds;
  Opts.NodeLimit = Config.NodeLimit;
  Opts.WarmStart = Config.WarmStart;
  Opts.Backend = Config.Backend;
  Opts.Explain = Config.Explain;
  OptimalModuloScheduler Scheduler(M, Opts);

  std::vector<LoopRecord> Records;
  Records.reserve(Suite.size());
  for (const DependenceGraph &G : Suite)
    Records.push_back(LoopRecord::fromResult(G, Scheduler.schedule(G), &M));

  // One-line forensics summary after the sweep: how the infeasible II
  // attempts were explained (the acceptance metric is <5% unexplained).
  if (Config.Explain) {
    int64_t Cycle = 0, Resource = 0, Unexplained = 0;
    for (const LoopRecord &R : Records) {
      Unexplained += R.UnexplainedAttempts;
      for (const IiAttempt &A : R.Attempts) {
        if (!A.Explain)
          continue;
        switch (A.Explain->Kind) {
        case WitnessKind::RecurrenceCycle:
          ++Cycle;
          break;
        case WitnessKind::ResourceSaturation:
          ++Resource;
          break;
        case WitnessKind::None:
          break;
        }
      }
    }
    std::printf("explanations [%s/%s]: %lld cycle, %lld resource, "
                "%lld unexplained\n",
                toString(Obj), toString(Dep),
                static_cast<long long>(Cycle),
                static_cast<long long>(Resource),
                static_cast<long long>(Unexplained));
  }
  return Records;
}

int bench::countSolved(const std::vector<LoopRecord> &Records) {
  int Count = 0;
  for (const LoopRecord &R : Records)
    Count += R.Solved;
  return Count;
}

void bench::printPortfolioSummary(const std::string &Label,
                                  const std::vector<LoopRecord> &Records) {
  int64_t IlpWins = 0, PbWins = 0, Undecided = 0;
  for (const LoopRecord &R : Records)
    for (const IiAttempt &A : R.Attempts) {
      if (A.Winner == "ilp")
        ++IlpWins;
      else if (A.Winner == "pb")
        ++PbWins;
      else if (A.Winner.empty())
        ++Undecided;
    }
  if (IlpWins + PbWins == 0)
    return; // Single-engine backend (or nothing conclusive): stay quiet.
  std::printf("portfolio winners [%s]: %lld ilp, %lld pb "
              "(%lld undecided attempts)\n\n",
              Label.c_str(), static_cast<long long>(IlpWins),
              static_cast<long long>(PbWins),
              static_cast<long long>(Undecided));
}

std::vector<int> bench::commonlySolved(
    const std::vector<std::vector<LoopRecord>> &RecordSets) {
  std::vector<int> Common;
  if (RecordSets.empty())
    return Common;
  size_t NumLoops = RecordSets.front().size();
  for (size_t Loop = 0; Loop < NumLoops; ++Loop) {
    bool All = true;
    for (const std::vector<LoopRecord> &Set : RecordSets)
      All = All && Set[Loop].Solved;
    if (All)
      Common.push_back(static_cast<int>(Loop));
  }
  return Common;
}

void bench::printPaperTableBlock(const std::string &SchedulerName,
                                 const std::vector<LoopRecord> &Records) {
  SummaryStats Vars, Cons, Nodes, Iters, Ii, N;
  for (const LoopRecord &R : Records) {
    if (!R.Solved)
      continue;
    Vars.add(R.Variables);
    Cons.add(R.Constraints);
    Nodes.add(static_cast<double>(R.Nodes));
    Iters.add(static_cast<double>(R.SimplexIterations));
    Ii.add(R.II);
    N.add(R.NumOps);
  }
  std::printf("%s: (%zu loops)\n", SchedulerName.c_str(),
              static_cast<size_t>(Vars.count()));
  if (Vars.empty()) {
    std::printf("  (no loops solved)\n");
    return;
  }
  TablePrinter T;
  T.setHeader({"Measurements:", "min", "freq", "median", "average", "max"});
  auto Row = [&T](const char *Label, const SummaryStats &S) {
    T.addRow({Label, formatDouble(S.min()), formatPercent(S.freqOfMin()),
              formatDouble(S.median()), formatDouble(S.average()),
              formatDouble(S.max())});
  };
  Row("Variables", Vars);
  Row("Constraints", Cons);
  Row("Branch-and-bound nodes", Nodes);
  Row("Simplex iterations", Iters);
  Row("II", Ii);
  Row("N", N);
  std::printf("%s\n", T.render().c_str());
}

//===----------------------------------------------------------------------===//
// BenchJson
//===----------------------------------------------------------------------===//

BenchJson::BenchJson(std::string Experiment)
    : Experiment(std::move(Experiment)) {}

void BenchJson::addMetric(std::string Key, double Value) {
  Metrics.emplace_back(std::move(Key), Value);
}

void BenchJson::addRecordSet(std::string Label,
                             std::vector<LoopRecord> Records) {
  Sets.push_back({std::move(Label), std::move(Records)});
}

namespace {

void emitRecord(json::JsonWriter &W, const LoopRecord &R) {
  W.beginObject();
  W.key("name").value(R.Name);
  W.key("n").value(R.NumOps);
  W.key("solved").value(R.Solved);
  W.key("timed_out").value(R.TimedOut);
  W.key("node_limit_hit").value(R.NodeLimitHit);
  W.key("status").value(R.status());
  W.key("ii").value(R.II);
  W.key("mii").value(R.Mii);
  W.key("nodes").value(R.Nodes);
  W.key("iterations").value(R.SimplexIterations);
  W.key("pb_conflicts").value(R.PbConflicts);
  W.key("pb_propagations").value(R.PbPropagations);
  W.key("warm_solves").value(R.WarmLpSolves);
  W.key("cold_solves").value(R.ColdLpSolves);
  W.key("warm_iterations").value(R.WarmLpIterations);
  W.key("refactorizations").value(R.LpRefactorizations);
  W.key("eta_nnz").value(R.LpEtaNonzeros);
  W.key("variables").value(R.Variables);
  W.key("constraints").value(R.Constraints);
  W.key("seconds").value(R.Seconds);
  W.key("secondary").value(R.Secondary);
  W.key("max_live").value(R.MaxLive);
  W.key("total_lifetime").value(static_cast<int64_t>(R.TotalLifetime));
  W.key("buffers").value(static_cast<int64_t>(R.Buffers));
  W.key("explained_attempts").value(R.ExplainedAttempts);
  W.key("unexplained_attempts").value(R.UnexplainedAttempts);
  W.key("attempts").beginArray();
  for (size_t I = 0; I < R.Attempts.size(); ++I) {
    const IiAttempt &A = R.Attempts[I];
    W.beginObject();
    W.key("ii").value(A.II);
    W.key("status").value(ilp::toString(A.Status));
    W.key("window_infeasible").value(A.WindowInfeasible);
    W.key("scheduled").value(A.Scheduled);
    W.key("cancelled").value(A.Cancelled);
    W.key("nodes").value(A.Nodes);
    W.key("iterations").value(A.SimplexIterations);
    W.key("pb_conflicts").value(A.PbConflicts);
    W.key("variables").value(A.Variables);
    W.key("constraints").value(A.Constraints);
    W.key("seconds").value(A.Seconds);
    // Portfolio backend: the engine the objective picked ("ilp" /
    // "pb"; empty on non-conclusive attempts and under single-engine
    // backends).
    W.key("winner").value(A.Winner);
    // Forensics. Always emitted so consumers need no key-existence
    // branching; defaults mean "no evidence".
    W.key("witness").value(A.Explain ? witnessName(A.Explain->Kind)
                                     : witnessName(WitnessKind::None));
    W.key("witness_verified")
        .value(A.Explain ? A.Explain->Verified : false);
    W.key("witness_detail")
        .value(I < R.AttemptDetails.size() ? R.AttemptDetails[I]
                                           : std::string());
    W.key("proof").value(A.Audit ? A.Audit->Proof : std::string());
    W.key("gap").value(A.Audit ? A.Audit->Gap : 0.0);
    W.key("root_bound")
        .value(A.Audit && A.Audit->HasRootBound ? A.Audit->RootBound : 0.0);
    W.key("trajectory").beginArray();
    if (A.Audit)
      for (const ilp::BoundSample &B : A.Audit->Trajectory) {
        W.beginObject();
        W.key("seconds").value(B.Seconds);
        W.key("nodes").value(B.Nodes);
        W.key("incumbent").value(B.Incumbent >= 1e300 ? 0.0 : B.Incumbent);
        W.key("has_incumbent").value(B.Incumbent < 1e300);
        W.key("bound").value(B.Bound <= -1e300 ? 0.0 : B.Bound);
        W.endObject();
      }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

} // namespace

std::string BenchJson::write() const {
  namespace fs = std::filesystem;
  const char *DirEnv = std::getenv("MODSCHED_BENCH_RESULTS_DIR");
  fs::path Dir = DirEnv && *DirEnv ? fs::path(DirEnv)
                                   : fs::path("bench_results");
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec) {
    std::fprintf(stderr, "warning: cannot create %s: %s\n",
                 Dir.string().c_str(), Ec.message().c_str());
    return std::string();
  }
  fs::path Path = Dir / ("BENCH_" + Experiment + ".json");

  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("schema_version").value(15);
  W.key("experiment").value(Experiment);
  W.key("generated_unix")
      .value(static_cast<int64_t>(std::time(nullptr)));
  W.key("config").beginObject();
  W.key("synthetic_loops").value(Cfg.SyntheticLoops);
  W.key("seed").value(static_cast<uint64_t>(Cfg.Seed));
  W.key("time_limit_seconds").value(Cfg.TimeLimitSeconds);
  W.key("node_limit").value(Cfg.NodeLimit);
  W.key("large_cap").value(Cfg.LargeCap);
  W.key("warm_start").value(Cfg.WarmStart);
  W.key("backend").value(toString(Cfg.Backend));
  W.key("explain").value(Cfg.Explain);
  W.endObject();
  W.key("metrics").beginObject();
  for (const auto &[Key, Value] : Metrics)
    W.key(Key).value(Value);
  W.endObject();
  W.key("record_sets").beginArray();
  for (const RecordSet &Set : Sets) {
    W.beginObject();
    W.key("label").value(Set.Label);
    W.key("records").beginArray();
    for (const LoopRecord &R : Set.Records)
      emitRecord(W, R);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  assert(W.done() && "unbalanced JSON emission");
  Out.push_back('\n');

  std::FILE *F = std::fopen(Path.string().c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write %s\n",
                 Path.string().c_str());
    return std::string();
  }
  std::fwrite(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  std::fprintf(stderr, "bench results: %s\n", Path.string().c_str());
  return Path.string();
}
