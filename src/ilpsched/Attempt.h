//===- ilpsched/Attempt.h - One tentative-II solve attempt ------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three ways OptimalModuloScheduler::scheduleAtIi decides one
/// tentative II, picked by a switch on SchedulerBackend. Everything an
/// attempt needs — the options, the problem, the II's windows and bounds
/// (sched/AttemptFrame.h), the deterministic budget ledger, the deadline
/// / cancellation context, the telemetry record and the portfolio wiring
/// — rides in one AttemptContext.
///
///   solveIlpAttempt        LP-relaxation branch-and-bound (the default).
///   solvePbAttempt         conflict-driven pseudo-Boolean search.
///   solvePortfolioAttempt  runs one of the two inline or races both with
///                          cross-engine incumbent exchange
///                          (ilpsched/PortfolioAttempt.h).
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

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

namespace modsched {

class ThreadPool; // support/ThreadPool.h

/// Cross-engine wiring handed to one portfolio lane (see
/// ilpsched/PortfolioAttempt.h for the race that owns it). The
/// single-engine paths pass null.
struct PortfolioEngineHooks {
  /// Shared objective-cutoff cell, polled at B&B nodes (ILP) and CDCL
  /// restart boundaries (PB). INT64_MAX = no incumbent yet; the cell
  /// only tightens.
  const std::atomic<int64_t> *ExternalBound = nullptr;
  /// Invoked with every verified incumbent (objective value, schedule)
  /// the lane finds, so the race can publish it to the other engine.
  /// Called from the lane's thread; must be thread-safe. Null = no
  /// exchange (feasibility races).
  std::function<void(int64_t, const ModuloSchedule &)> OnIncumbent;
  /// Out: the lane only refuted "objective < ExternalBound", not the
  /// model — the true verdict at this II is the shared incumbent, which
  /// the race commits as optimal.
  bool RefutedBelowExternal = false;
  /// Out: cross-engine bounds this lane actually applied (PB rows
  /// injected at restarts; 1 for an ILP solve that pruned against the
  /// cell).
  int64_t BoundExchanges = 0;
};

/// Everything one solve attempt carries.
struct AttemptContext {
  /// The scheduler's options (budgets, explanations, portfolio limits).
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
  /// Deadline / cancellation environment; null = a fresh local context.
  lp::SolveContext *Ctx = nullptr;
  /// The attempt record this solve must fill truthfully on every exit
  /// path.
  IiAttempt &Attempt;
  /// Portfolio wiring (shared-incumbent cell, incumbent publication,
  /// refutation flags); null outside a race.
  PortfolioEngineHooks *Hooks = nullptr;
  /// Holder of the loop-level pool the portfolio races on, created by
  /// the loop's first race and reused by the rest of its II ladder.
  /// Required by solvePortfolioAttempt; the engines ignore it.
  std::unique_ptr<ThreadPool> *RacePool = nullptr;
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

/// The portfolio backend's attempt: the eligibility rules pick the ILP,
/// the PB or both; a lone engine runs inline on the caller's thread and
/// two race on *C.RacePool with the ILP verdict preferred when both
/// conclude. Returns as solveIlpAttempt, with C.Attempt.Winner naming
/// the engine whose verdict was committed.
std::optional<ModuloSchedule> solvePortfolioAttempt(AttemptContext &C);

} // namespace modsched

#endif // MODSCHED_ILPSCHED_ATTEMPT_H
