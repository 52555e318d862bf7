//===- ilpsched/IiSearch.cpp - Min-II search strategies -------------------===//

#include "ilpsched/IiSearch.h"

#include "lp/SolveContext.h"
#include "support/Cancellation.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <optional>

using namespace modsched;

namespace {

telemetry::Counter StatRaceWaves("ilpsched", "race.waves",
                                 "Parallel II-race waves launched");
telemetry::Counter StatRaceAttempts("ilpsched", "race.attempts",
                                    "Attempts launched by the parallel "
                                    "II race");
telemetry::Counter StatRaceCancelled("ilpsched", "race.cancelled",
                                     "Race attempts cancelled by a "
                                     "lower-II winner");

/// Folds one racing slot's private accounting into the loop-level
/// result: work counters and the per-attempt telemetry rows. Verdict
/// flags and the schedule itself are committed separately by the
/// deterministic scan (a slot above the winner may have timed out or
/// even scheduled, and its verdict must not leak into the loop result).
void mergeSlotWork(ScheduleResult &Into, const ScheduleResult &Slot) {
  Into.Nodes += Slot.Nodes;
  Into.SimplexIterations += Slot.SimplexIterations;
  Into.WarmLpSolves += Slot.WarmLpSolves;
  Into.ColdLpSolves += Slot.ColdLpSolves;
  Into.WarmLpIterations += Slot.WarmLpIterations;
  Into.LpRefactorizations += Slot.LpRefactorizations;
  Into.LpEtaNonzeros += Slot.LpEtaNonzeros;
  Into.PbConflicts += Slot.PbConflicts;
  Into.PbPropagations += Slot.PbPropagations;
  Into.PbRestarts += Slot.PbRestarts;
  Into.PbLearned += Slot.PbLearned;
  for (const IiAttempt &A : Slot.Attempts) {
    Into.Attempts.push_back(A);
    if (A.Cancelled)
      ++StatRaceCancelled;
  }
}

} // namespace

IiSearchStrategy::~IiSearchStrategy() = default;

//===----------------------------------------------------------------------===//
// SequentialIiSearch
//===----------------------------------------------------------------------===//

void SequentialIiSearch::search(const OptimalModuloScheduler &Sched,
                                const Problem &P, ScheduleResult &Result,
                                lp::SolveContext *Ctx) const {
  const SchedulerOptions &Opts = Sched.options();
  Stopwatch Watch;
  // Portfolio backend: the first racing attempt creates the race pool
  // and the rest of the II ladder reuses it.
  std::unique_ptr<ThreadPool> RacePool;
  for (int II = Result.Mii; II <= Result.Mii + Opts.MaxIiIncrease; ++II) {
    double Remaining = Opts.TimeLimitSeconds - Watch.seconds();
    if (Remaining <= 0) {
      Result.TimedOut = true;
      break;
    }
    if (Result.budgetNodes() >= Opts.NodeLimit) {
      Result.NodeLimitHit = true;
      break;
    }
    std::optional<ModuloSchedule> S =
        Sched.scheduleAtIi(P, II, Result, Remaining, Ctx, &RacePool);
    if (Result.TimedOut || Result.NodeLimitHit)
      break;
    if (S) {
      Result.Found = true;
      Result.II = II;
      Result.Schedule = std::move(*S);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// ParallelRaceIiSearch
//===----------------------------------------------------------------------===//

ParallelRaceIiSearch::ParallelRaceIiSearch(int Jobs)
    : Jobs(std::max(1, Jobs)) {}

namespace {

/// One racing II attempt: a private result (no shared mutable state
/// with its siblings), the produced schedule if any, and the cancel
/// switch a lower-II winner throws to stop it.
struct RaceSlot {
  int II = 0;
  ScheduleResult Stats;
  std::optional<ModuloSchedule> Schedule;
  CancellationSource Cancel;
};

} // namespace

void ParallelRaceIiSearch::search(const OptimalModuloScheduler &Sched,
                                  const Problem &P, ScheduleResult &Result,
                                  lp::SolveContext *) const {
  const SchedulerOptions &Opts = Sched.options();
  Stopwatch Watch;
  ThreadPool Pool(Jobs);
  const int MaxII = Result.Mii + Opts.MaxIiIncrease;

  // Portfolio backend: one race pool per slot index, reused across
  // waves (the Pool.wait() barrier serializes accesses).
  std::vector<std::unique_ptr<ThreadPool>> RacePools(static_cast<size_t>(Jobs));

  for (int Base = Result.Mii; Base <= MaxII;) {
    double Remaining = Opts.TimeLimitSeconds - Watch.seconds();
    if (Remaining <= 0) {
      Result.TimedOut = true;
      break;
    }
    if (Result.budgetNodes() >= Opts.NodeLimit) {
      Result.NodeLimitHit = true;
      break;
    }

    const int WaveEnd = std::min(MaxII, Base + Jobs - 1);
    const int NumSlots = WaveEnd - Base + 1;
    std::vector<RaceSlot> Slots(NumSlots);
    for (int I = 0; I < NumSlots; ++I)
      Slots[I].II = Base + I;
    ++StatRaceWaves;
    StatRaceAttempts += NumSlots;

    // WinnerII tracks the lowest II that has produced a schedule so far
    // in this wave; a new winner cancels every higher slot. Guarded by
    // WinnerMutex — it only gates cancellation (an optimization), never
    // the outcome: the commit scan below re-derives the winner from the
    // drained slots in II order.
    std::mutex WinnerMutex;
    int WinnerII = WaveEnd + 1;

    for (int I = 0; I < NumSlots; ++I) {
      RaceSlot &Slot = Slots[I];
      std::unique_ptr<ThreadPool> *RacePool = &RacePools[size_t(I)];
      Pool.submit([&Sched, &P, &Slots, &Slot, &WinnerMutex, &WinnerII,
                   Remaining, Base, NumSlots, RacePool]() {
        lp::SolveContext Ctx;
        Ctx.Cancel = Slot.Cancel.token();
        Slot.Schedule = Sched.scheduleAtIi(P, Slot.II, Slot.Stats, Remaining,
                                           &Ctx, RacePool);
        if (!Slot.Schedule)
          return;
        std::lock_guard<std::mutex> Lock(WinnerMutex);
        if (Slot.II < WinnerII) {
          WinnerII = Slot.II;
          for (int J = Slot.II - Base + 1; J < NumSlots; ++J)
            Slots[J].Cancel.cancel();
        }
      });
    }
    Pool.wait();

    // Deterministic commit: account every slot's work (in II order, so
    // the attempts vector reads like a sequential search trace), then
    // walk the slots in II order for the verdict. A censored slot below
    // the first feasible II blocks the commit — Sequential would have
    // burned its budget there without a verdict, and the race must
    // report the same censoring rather than claim a higher II optimal.
    for (const RaceSlot &Slot : Slots)
      mergeSlotWork(Result, Slot.Stats);

    bool Decided = false;
    for (RaceSlot &Slot : Slots) {
      if (Slot.Schedule) {
        Result.Found = true;
        Result.II = Slot.II;
        Result.Schedule = std::move(*Slot.Schedule);
        Result.SecondaryObjective = Slot.Stats.SecondaryObjective;
        Result.Variables = Slot.Stats.Variables;
        Result.Constraints = Slot.Stats.Constraints;
        Decided = true;
      } else if (Slot.Stats.TimedOut || Slot.Stats.NodeLimitHit) {
        Result.TimedOut = Result.TimedOut || Slot.Stats.TimedOut;
        Result.NodeLimitHit = Result.NodeLimitHit || Slot.Stats.NodeLimitHit;
        Decided = true;
      }
      // Infeasible (window or proved) slots advance the scan; cancelled
      // slots can only sit above a winner and are never reached.
      if (Decided)
        break;
    }
    if (Decided)
      break;
    Base = WaveEnd + 1;
  }
}

//===----------------------------------------------------------------------===//
// Factory
//===----------------------------------------------------------------------===//

std::unique_ptr<IiSearchStrategy> modsched::makeIiSearchStrategy(
    IiSearchKind Kind, int Jobs) {
  switch (Kind) {
  case IiSearchKind::Sequential:
    return std::make_unique<SequentialIiSearch>();
  case IiSearchKind::ParallelRace:
    if (Jobs <= 1)
      return std::make_unique<SequentialIiSearch>();
    return std::make_unique<ParallelRaceIiSearch>(Jobs);
  }
  assert(false && "unknown IiSearchKind");
  return std::make_unique<SequentialIiSearch>();
}
