//===- bench/e2e/Ladder.h - Traced II ladder --------------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's stand-in for OptimalModuloScheduler::schedule: the
/// sequential min-II search driven through public calls only, mirroring
/// SequentialIiSearch and IlpEngine / PbEngine::solveAttempt with the
/// cache and explanations off:
///
///   mii() -> per rung: Formulation or PbFormulation construction ->
///   ilp::MipSolver::solve, or the PB objective descent over
///   pb::Solver::solve -> decode -> verifySchedule
///
/// with a span around every call. The fidelity gate compares its II,
/// objective, nodes, iterations and conflicts with the untraced
/// scheduler's on the same input; any divergence marks the per-layer
/// numbers unfaithful.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_BENCH_E2E_LADDER_H
#define MODSCHED_BENCH_E2E_LADDER_H

#include "Suite.h"
#include "Trace.h"

#include "ilpsched/OptimalScheduler.h"

#include <cstdint>
#include <map>
#include <string>

namespace e2e {

/// Outcome and effort of one traced ladder.
struct LadderResult {
  Status St = Status::Unsolved;
  int Mii = 0;
  int II = 0;
  double Objective = 0.0;
  modsched::ModuloSchedule Schedule;

  int64_t Nodes = 0;
  int64_t Iterations = 0;
  int64_t WarmLpSolves = 0;
  int64_t ColdLpSolves = 0;
  int64_t Refactorizations = 0;
  int64_t EtaNonzeros = 0;
  int64_t Conflicts = 0;
  int64_t Propagations = 0;
  int64_t Restarts = 0;
  int64_t Learned = 0;
  /// Effort charged against the node budget, as
  /// ScheduleResult::budgetNodes counts it.
  int64_t budgetNodes() const { return Nodes + Conflicts; }

  int Attempts = 0;
  int WindowInfeasible = 0;
  int ScheduledAttempts = 0;

  /// Model shapes summed over the builds of each formulation.
  int64_t IlpBuilds = 0;
  int64_t IlpRows = 0;
  int64_t IlpNonzeros = 0;
  int64_t PbBuilds = 0;
  int64_t PbVariables = 0;
  int64_t PbConstraints = 0;
};

/// Ladder effort summed over the traced records of a run.
struct LadderTotals {
  int64_t Records = 0;
  int64_t Found = 0;
  int64_t IiAboveMii = 0; ///< Sum of II - MII over found records.
  LadderResult Sum;

  void add(const LadderResult &L);
};

/// Fills the per-layer metrics that the trace and the ladder totals
/// determine: layer self-time shares of the traced wall time, mean MII
/// and verifier times, search, formulation and solver effort, and the
/// unattributed share. Service-only layers are left to the caller.
/// \p ExtraVerifyUs / \p ExtraVerifyCalls add verifier calls timed
/// outside any span (the re-verify a cache hit pays inside lookup).
void addLayerMetrics(const Tracer &T, const LadderTotals &Totals,
                     double ExtraVerifyUs, int64_t ExtraVerifyCalls,
                     std::map<std::string, double> &Metrics,
                     std::map<std::string, double> &Diagnostics);

/// Runs the min-II search for \p G under \p Opts (ILP or PB backend,
/// Sequential search) with spans under \p T tagged \p RequestId.
/// \p KnownMii >= 0 skips the MII computation (the service path computes
/// it before the cache lookup).
LadderResult runLadder(const modsched::DependenceGraph &G,
                       const modsched::MachineModel &M,
                       const modsched::SchedulerOptions &Opts, Tracer &T,
                       int64_t RequestId, int KnownMii = -1);

/// What the untraced path reported for the same input.
struct UntracedOutcome {
  Status St = Status::Unsolved;
  int II = 0;
  double Objective = 0.0;
  int64_t Nodes = 0;
  int64_t Iterations = -1; ///< -1 when the path does not report it.
  int64_t Conflicts = 0;
};

/// Reason the ladder disagrees with \p U, or empty when status, II,
/// objective, nodes, iterations and conflicts all match.
std::string ladderDivergence(const LadderResult &L, const UntracedOutcome &U);

} // namespace e2e

#endif // MODSCHED_BENCH_E2E_LADDER_H
