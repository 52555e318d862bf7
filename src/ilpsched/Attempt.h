//===- ilpsched/Attempt.h - One tentative-II solve attempt ------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two ways OptimalModuloScheduler::scheduleAtIi decides one
/// tentative II; a switch on SchedulerBackend picks one per attempt (the
/// portfolio backend picks from the objective). Everything an attempt
/// needs — the options, the problem, the II's windows and bounds
/// (sched/AttemptFrame.h), the deterministic budget ledger, the wall-clock
/// budget, the request's cancellation token and the telemetry record —
/// rides in one AttemptContext. Each attempt builds its engine's solve
/// state afresh, so its verdict and effort depend on the attempt alone.
///
///   solveIlpAttempt        LP-relaxation branch-and-bound (the default).
///   solvePbAttempt         conflict-driven pseudo-Boolean search.
///
/// Contract: a conclusive attempt yields the true optimum (or true
/// infeasibility) at its II — engine choice never changes a verdict,
/// only the effort spent reaching it. Every schedule an engine returns
/// has already passed sched/Verifier (engines abort on a self-check
/// failure); scheduleAtIi re-verifies once more as the uniform gate.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_ATTEMPT_H
#define MODSCHED_ILPSCHED_ATTEMPT_H

#include "ilpsched/OptimalScheduler.h"
#include "sched/AttemptFrame.h"
#include "sched/Problem.h"
#include "support/Cancellation.h"

#include <optional>

namespace modsched {

/// Everything one solve attempt carries.
struct AttemptContext {
  /// The scheduler's options (budgets, explanations).
  const SchedulerOptions &Opts;
  /// The problem (graph + machine + formulation options).
  const Problem &P;
  /// The tentative II under trial with its windows and bounds, built by
  /// OptimalModuloScheduler::attempt, which dispatches only valid frames.
  const AttemptFrame &Frame;
  /// Loop-level ledger: deterministic budget spend (budgetNodes()),
  /// work counters, and verdict flags accumulate here.
  ScheduleResult &Stats;
  /// Wall-clock seconds this attempt may spend.
  double TimeBudget;
  /// The request's cooperative cancellation token.
  const CancellationToken &Cancel;
  /// The attempt record this solve must fill truthfully on every exit
  /// path.
  IiAttempt &Attempt;
};

/// Decides one tentative II with LP-relaxation branch-and-bound over
/// ilpsched/Formulation, which encodes every option combination.
/// Returns the verified optimal schedule, or nullopt on infeasibility /
/// censoring / cancellation, with C.Attempt and C.Stats telling the
/// truthful story either way.
std::optional<ModuloSchedule> solveIlpAttempt(AttemptContext &C);

/// Decides one tentative II with conflict-driven pseudo-Boolean search
/// over ilpsched/PbFormulation. Requires
/// PbFormulation::supports(C.P.options()). Returns as solveIlpAttempt.
std::optional<ModuloSchedule> solvePbAttempt(AttemptContext &C);

} // namespace modsched

#endif // MODSCHED_ILPSCHED_ATTEMPT_H
