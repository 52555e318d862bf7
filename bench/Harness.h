//===- bench/Harness.h - Shared experiment harness --------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common infrastructure for the experiment binaries: the benchmark suite
/// (hand kernels + calibrated synthetic loops standing in for the paper's
/// 1327 Fortran loops), per-loop result records, and printers for the
/// paper's table layout (min / freq-of-min / median / average / max).
///
/// Budgets are configurable through the environment so the default run
/// finishes in minutes while a patient user can approach the paper's
/// 15-minute-per-loop setting:
///   MODSCHED_BENCH_LOOPS      number of synthetic loops (default 110)
///   MODSCHED_BENCH_TIMELIMIT  per-loop seconds (default 2.0)
///   MODSCHED_BENCH_SEED       suite seed (default 20260705)
///   MODSCHED_BENCH_WARMSTART  0 disables warm-started node LPs (default 1;
///                             the knob behind warm-vs-cold A/B runs)
///   MODSCHED_BENCH_BACKEND    exact engine behind every attempt: "ilp"
///                             (LP-based branch-and-bound), "pb" (CDCL
///                             pseudo-Boolean), or "portfolio" (the
///                             engine the objective picks, per II) —
///                             the knob behind backend A/B runs
///                             (default ilp)
///   MODSCHED_BENCH_EXPLAIN    0 disables solve forensics (default 1:
///                             every infeasible II attempt carries a
///                             re-verified witness and every solved one
///                             an optimality audit; see
///                             docs/OBSERVABILITY.md)
///
/// Malformed or out-of-range values are rejected with a warning on
/// stderr and the compiled-in default is kept — "MODSCHED_BENCH_LOOPS=
/// ten" or a negative time limit never silently becomes 0.
///
/// Every experiment binary also writes its per-loop records and resolved
/// configuration to bench_results/BENCH_<experiment>.json (see BenchJson
/// below); the directory is overridden with
///   MODSCHED_BENCH_RESULTS_DIR  output directory (default bench_results)
/// and the solver-level observability switches (docs/OBSERVABILITY.md)
/// compose freely with any bench run:
///   MODSCHED_TRACE=<file>     Chrome trace_event (.json) / JSONL trace
///   MODSCHED_STATS=1          counter/timer report on stderr at exit
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_HARNESS_H
#define MODSCHED_BENCH_HARNESS_H

#include "graph/DependenceGraph.h"
#include "ilpsched/OptimalScheduler.h"
#include "machine/MachineModel.h"

#include <string>
#include <vector>

namespace modsched {
namespace bench {

/// Budgets and suite shape for one experiment run.
struct BenchConfig {
  int SyntheticLoops = 110;
  uint64_t Seed = 20260705;
  double TimeLimitSeconds = 2.0;
  int64_t NodeLimit = 200000;
  /// Largest synthetic loop body.
  int LargeCap = 32;
  /// Warm-start node LPs from the parent basis (SchedulerOptions::
  /// WarmStart); MODSCHED_BENCH_WARMSTART=0 turns it off for A/B runs.
  bool WarmStart = true;
  /// Exact engine behind every attempt (SchedulerOptions::Backend):
  /// ILP branch-and-bound, the CDCL pseudo-Boolean solver, or the
  /// portfolio, which picks one of the two from the objective.
  /// MODSCHED_BENCH_BACKEND=ilp|pb|portfolio overrides for A/B runs.
  /// Formulations the PB backend cannot encode fall back to ILP per
  /// attempt with a one-time warning.
  SchedulerBackend Backend = SchedulerBackend::Ilp;
  /// Solve forensics (SchedulerOptions::Explain): infeasibility
  /// witnesses and optimality audits on every attempt record.
  /// MODSCHED_BENCH_EXPLAIN=0 turns it off for overhead A/B runs.
  bool Explain = true;

  /// Reads the MODSCHED_BENCH_* environment overrides. Invalid values
  /// warn on stderr and keep the defaults above.
  static BenchConfig fromEnv();
};

/// Per-loop outcome of one scheduler configuration.
struct LoopRecord {
  std::string Name;
  int NumOps = 0;
  bool Solved = false;
  bool TimedOut = false;
  /// Node budget exhausted (deterministic censoring, distinct from the
  /// machine-dependent wall-clock timeout; both can be set).
  bool NodeLimitHit = false;
  int II = 0;
  int Mii = 0;
  int64_t Nodes = 0;
  int64_t SimplexIterations = 0;
  /// CDCL conflicts / unit propagations summed over all PB solves (see
  /// ScheduleResult; zeros for ILP-backend records).
  int64_t PbConflicts = 0;
  int64_t PbPropagations = 0;
  /// Warm-started / cold node LP solves and the iterations spent inside
  /// warm solves (see MipResult).
  int64_t WarmLpSolves = 0;
  int64_t ColdLpSolves = 0;
  int64_t WarmLpIterations = 0;
  /// Basis refactorizations / eta nonzeros summed over all node LPs
  /// (see MipResult).
  int64_t LpRefactorizations = 0;
  int64_t LpEtaNonzeros = 0;
  int Variables = 0;
  int Constraints = 0;
  double Seconds = 0.0;
  double Secondary = 0.0;
  int MaxLive = 0;
  long TotalLifetime = 0;
  long Buffers = 0;
  /// Per-tentative-II telemetry copied from ScheduleResult.
  std::vector<IiAttempt> Attempts;
  /// Human-readable witness per attempt (parallel to Attempts; empty
  /// when the attempt carries no witness or fromResult had no machine
  /// model to render against).
  std::vector<std::string> AttemptDetails;
  /// Infeasible attempts that carry / lack a graph-level witness (the
  /// <5%-unexplained acceptance metric; both 0 when forensics are off).
  int ExplainedAttempts = 0;
  int UnexplainedAttempts = 0;

  /// Builds the record from one scheduling run — the single place where
  /// ScheduleResult fields are copied into the bench layer, so adding a
  /// field cannot silently drift between experiment binaries. Computes
  /// the concrete register pressure when a schedule was found. \p M,
  /// when non-null, lets witnesses be rendered into AttemptDetails.
  static LoopRecord fromResult(const DependenceGraph &G,
                               const ScheduleResult &R,
                               const MachineModel *M = nullptr);

  /// "solved", "timeout", "node_limit", or "unsolved" (proved
  /// infeasible / gave up). A run censored by both budgets reports
  /// "timeout" (the wall clock is what the paper's tables censor on);
  /// the node_limit_hit field still records the node budget.
  const char *status() const {
    if (Solved)
      return "solved";
    if (TimedOut)
      return "timeout";
    if (NodeLimitHit)
      return "node_limit";
    return "unsolved";
  }
};

/// The benchmark suite: hand kernels followed by synthetic loops.
std::vector<DependenceGraph> benchSuite(const MachineModel &M,
                                        const BenchConfig &Config);

/// Runs one optimal-scheduler configuration over the whole suite, one
/// loop after another.
std::vector<LoopRecord> runOptimal(const MachineModel &M,
                                   const std::vector<DependenceGraph> &Suite,
                                   Objective Obj, DependenceStyle Dep,
                                   const BenchConfig &Config);

/// Prints one scheduler's statistics block in the layout of the paper's
/// Tables 1/2 (variables, constraints, nodes, iterations, II, N), over
/// the solved loops in \p Records.
void printPaperTableBlock(const std::string &SchedulerName,
                          const std::vector<LoopRecord> &Records);

/// Number of solved records.
int countSolved(const std::vector<LoopRecord> &Records);

/// Engine tally of one record set under the portfolio backend: counts
/// the conclusive attempts each engine decided and prints one summary
/// line. Silent when no attempt carries a winner (single-engine
/// backends), so the experiment binaries call it unconditionally.
void printPortfolioSummary(const std::string &Label,
                           const std::vector<LoopRecord> &Records);

/// Indices of loops solved in every record set.
std::vector<int>
commonlySolved(const std::vector<std::vector<LoopRecord>> &RecordSets);

/// Machine-readable result artifact for one experiment binary.
///
/// Usage: construct with the experiment name, register the resolved
/// BenchConfig, add headline metrics and every record set as they are
/// produced, and call write() before exiting. The artifact is
///   <dir>/BENCH_<experiment>.json
/// with <dir> = $MODSCHED_BENCH_RESULTS_DIR or "bench_results" (created
/// if missing). The artifact carries schema_version 14, the only
/// version scripts/check_bench_json.py accepts; docs/OBSERVABILITY.md
/// documents its fields.
class BenchJson {
public:
  explicit BenchJson(std::string Experiment);

  /// Records the resolved configuration (after env overrides).
  void setConfig(const BenchConfig &Config) { Cfg = Config; }

  /// Adds one experiment-specific headline number (coverage, ratios,
  /// ...). Keys should be snake_case.
  void addMetric(std::string Key, double Value);

  /// Adds one labelled set of per-loop records (one per scheduler
  /// configuration, typically).
  void addRecordSet(std::string Label, std::vector<LoopRecord> Records);

  /// Serializes and writes the artifact. Returns the path written, or
  /// an empty string on I/O failure (a warning is printed to stderr;
  /// experiments report their tables regardless).
  std::string write() const;

private:
  std::string Experiment;
  BenchConfig Cfg;
  std::vector<std::pair<std::string, double>> Metrics;
  struct RecordSet {
    std::string Label;
    std::vector<LoopRecord> Records;
  };
  std::vector<RecordSet> Sets;
};

} // namespace bench
} // namespace modsched

#endif // MODSCHED_BENCH_HARNESS_H
