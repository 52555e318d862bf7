//===- ilpsched/PortfolioAttempt.h - ILP/PB race coordination ---*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Race coordination of the portfolio backend
/// (SchedulerBackend::Portfolio; solvePortfolioAttempt in
/// ilpsched/Attempt.h): when both engines contest a tentative II, the
/// ILP and the PB attempt run on a two-worker pool, the first
/// conclusive verdict wins and cancels the other, and cross-engine
/// incumbent exchange makes the race more than the sum of its engines:
/// whichever engine verifies a schedule of objective k publishes it to
/// a SharedIncumbent; the ILP prunes nodes against the atomic cell
/// (MipOptions::ExternalBound) and the PB injects "objective <= k-1"
/// rows at its restart boundaries (PbFormulation::injectObjectiveBound).
/// An engine that then refutes "anything below k" has, combined with
/// the shared schedule, proved k optimal. Every engine builds a fresh
/// model per attempt, exactly as the single-engine backends do.
///
/// Verdict determinism: every conclusive path yields the true optimum
/// (or true infeasibility) at its II, and a fixed ILP-preference
/// tie-break resolves double finishes, so committed II / objective
/// verdicts are bit-exact with the sequential ILP backend regardless of
/// race timing. Only the committed schedule (one of several equally
/// optimal ones) and the censoring wall-clock may differ.
///
/// The only loop-level state is the pool: OptimalModuloScheduler::solve
/// holds one per loop, created by the loop's first race and reused by
/// the rest of its II ladder.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_PORTFOLIOATTEMPT_H
#define MODSCHED_ILPSCHED_PORTFOLIOATTEMPT_H

#include "sched/ModuloSchedule.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>

namespace modsched {

/// The cross-engine incumbent of one racing II attempt: a lock-free
/// objective cell (polled at every B&B node and CDCL restart) plus the
/// mutex-guarded schedule that achieved it. Both engines publish every
/// verified incumbent here the moment it is accepted.
struct SharedIncumbent {
  /// Best objective any engine has verified so far; INT64_MAX = none.
  /// Only ever tightens (decreases), which is what makes it a sound
  /// pruning cutoff for both engines.
  std::atomic<int64_t> Bound{INT64_MAX};

  /// Records schedule \p S with verified objective \p K, if it improves
  /// on the best recorded one. Thread-safe.
  void publish(int64_t K, const ModuloSchedule &S);

  /// Snapshot of the best recorded schedule and its objective (nullopt
  /// when nothing was published). Thread-safe.
  std::optional<ModuloSchedule> best(int64_t &K) const;

private:
  mutable std::mutex Mu;
  int64_t Obj = INT64_MAX;                ///< Guarded by Mu.
  std::optional<ModuloSchedule> Schedule; ///< Guarded by Mu.
};

} // namespace modsched

#endif // MODSCHED_ILPSCHED_PORTFOLIOATTEMPT_H
