//===- ilpsched/IiSearch.h - Min-II search strategies -----------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strategies for walking the tentative IIs of the paper's min-II search
/// loop. The classic driver (Section 3.4) tries II = MII, MII+1, ... one
/// at a time; SequentialIiSearch reproduces it bit-exactly (same node
/// counts, same simplex iterations, same schedules as the historical
/// inline loop). ParallelRaceIiSearch exploits that consecutive-II
/// attempts are independent MIPs: it races a window of IIs on a thread
/// pool, commits the lowest feasible one, and cancels the now-irrelevant
/// higher-II solves through their SolveContext tokens. The winner is
/// chosen by a deterministic post-wave scan in II order, never by thread
/// arrival order, so the committed II and secondary objective match
/// Sequential exactly; only wall-clock censoring (inherently machine-
/// dependent) and the per-attempt node budget differ (see
/// SchedulerOptions::NodeLimit).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_IISEARCH_H
#define MODSCHED_ILPSCHED_IISEARCH_H

#include "ilpsched/OptimalScheduler.h"

#include <memory>

namespace modsched {

/// Abstract min-II search: tries tentative IIs from Result.Mii upward
/// (set by the caller) under the scheduler's budgets and fills in the
/// rest of \p Result — verdict flags, schedule, per-attempt telemetry.
class IiSearchStrategy {
public:
  virtual ~IiSearchStrategy();

  /// Printable strategy name ("sequential" / "parallel-race").
  virtual const char *name() const = 0;

  /// Runs the search over Problem \p P. \p Result.Mii must already
  /// hold the MII lower bound; everything else starts
  /// default-initialized. \p Ctx, when non-null, is the caller's
  /// persistent solve context to thread through the attempts;
  /// strategies that cannot use it safely ignore it.
  virtual void search(const OptimalModuloScheduler &Sched, const Problem &P,
                      ScheduleResult &Result,
                      lp::SolveContext *Ctx = nullptr) const = 0;
};

/// The paper's loop: one II at a time, stop at the first feasible one.
class SequentialIiSearch : public IiSearchStrategy {
public:
  const char *name() const override { return "sequential"; }
  void search(const OptimalModuloScheduler &Sched, const Problem &P,
              ScheduleResult &Result,
              lp::SolveContext *Ctx = nullptr) const override;
};

/// Speculative race over a window of consecutive IIs (window width ==
/// worker count). Deterministic by construction: the commit scan walks
/// slots in II order after the wave drains, so the outcome depends only
/// on each II's solve verdict, not on which thread finished first.
class ParallelRaceIiSearch : public IiSearchStrategy {
public:
  /// \p Jobs worker threads / IIs per wave (clamped to >= 1).
  explicit ParallelRaceIiSearch(int Jobs);

  const char *name() const override { return "parallel-race"; }
  /// \p Ctx is ignored: each racing slot needs a private SolveContext
  /// (contexts are single-thread state), so persistent per-worker reuse
  /// is a Sequential-only optimization.
  void search(const OptimalModuloScheduler &Sched, const Problem &P,
              ScheduleResult &Result,
              lp::SolveContext *Ctx = nullptr) const override;

private:
  int Jobs;
};

/// Strategy factory for SchedulerOptions::Search. A ParallelRace with
/// Jobs <= 1 degenerates to Sequential (no pool, no cancellation).
std::unique_ptr<IiSearchStrategy> makeIiSearchStrategy(IiSearchKind Kind,
                                                       int Jobs);

} // namespace modsched

#endif // MODSCHED_ILPSCHED_IISEARCH_H
