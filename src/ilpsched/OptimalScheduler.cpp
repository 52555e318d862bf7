//===- ilpsched/OptimalScheduler.cpp - Min-II ILP search ------------------===//

#include "ilpsched/OptimalScheduler.h"

#include "ilpsched/Attempt.h"
#include "ilpsched/PbFormulation.h"
#include "ilpsched/SolutionCache.h"
#include "lp/SolveContext.h"
#include "sched/Mii.h"
#include "sched/Verifier.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

using namespace modsched;
using namespace modsched::ilp;

const char *modsched::toString(SchedulerBackend Backend) {
  switch (Backend) {
  case SchedulerBackend::Ilp:
    return "ilp";
  case SchedulerBackend::Pb:
    return "pb";
  case SchedulerBackend::Portfolio:
    return "portfolio";
  }
  return "unknown";
}

std::optional<SchedulerBackend>
modsched::parseSchedulerBackend(std::string_view Name) {
  for (SchedulerBackend B : {SchedulerBackend::Ilp, SchedulerBackend::Pb,
                             SchedulerBackend::Portfolio})
    if (Name == toString(B))
      return B;
  return std::nullopt;
}

namespace {

telemetry::Counter StatLoops("ilpsched", "scheduler.loops",
                             "Loops submitted to the optimal scheduler");
telemetry::Counter StatAttempts("ilpsched", "scheduler.attempts",
                                "Tentative IIs attempted (incl. window-"
                                "infeasible)");
telemetry::Counter StatScheduled("ilpsched", "scheduler.scheduled",
                                 "Loops scheduled successfully");
telemetry::Counter StatTimeouts("ilpsched", "scheduler.timeouts",
                                "Loops abandoned on wall-clock budget "
                                "expiry");
telemetry::Counter StatNodeLimits("ilpsched", "scheduler.node_limits",
                                  "Loops abandoned on node-budget "
                                  "exhaustion");
telemetry::PhaseTimer TimeSchedule("ilpsched", "scheduler.schedule",
                                   "End-to-end min-II search");

} // namespace

OptimalModuloScheduler::OptimalModuloScheduler(const MachineModel &M,
                                               SchedulerOptions Options)
    : M(M), Opts(std::move(Options)) {
  assert(Opts.SearchJobs == 1 && "the II search is single-threaded");
}

std::optional<ModuloSchedule>
OptimalModuloScheduler::scheduleAtIi(const Problem &P, int II,
                                     ScheduleResult &Stats, double TimeBudget,
                                     lp::SolveContext *Ctx) const {
  std::unique_ptr<ThreadPool> RacePool;
  return attempt(P, II, Stats, TimeBudget, Ctx, RacePool);
}

std::optional<ModuloSchedule>
OptimalModuloScheduler::scheduleAtIi(const DependenceGraph &G, int II,
                                     ScheduleResult &Stats, double TimeBudget,
                                     lp::SolveContext *Ctx) const {
  Problem P(G, M, Opts.Formulation);
  return scheduleAtIi(P, II, Stats, TimeBudget, Ctx);
}

std::optional<ModuloSchedule>
OptimalModuloScheduler::attempt(const Problem &P, int II,
                                ScheduleResult &Stats, double TimeBudget,
                                lp::SolveContext *Ctx,
                                std::unique_ptr<ThreadPool> &RacePool) const {
  ++StatAttempts;
  Stopwatch AttemptWatch;
  telemetry::SpanScope Span("ilpsched", "scheduler.attempt", {{"ii", II}});

  IiAttempt Attempt;
  Attempt.II = II;
  // Publishes the attempt record on every exit path; the engines have
  // several returns each and every one must leave a truthful telemetry
  // row behind.
  struct PublishOnExit {
    ScheduleResult &Stats;
    IiAttempt &Attempt;
    Stopwatch &Watch;
    ~PublishOnExit() {
      Attempt.Seconds = Watch.seconds();
      Stats.Attempts.push_back(Attempt);
      if (telemetry::tracingEnabled())
        telemetry::instant(
            "ilpsched", "scheduler.attempt_done",
            {{"ii", Attempt.II},
             {"status", ilp::toString(Attempt.Status)},
             {"scheduled", int64_t(Attempt.Scheduled ? 1 : 0)},
             {"window_infeasible",
              int64_t(Attempt.WindowInfeasible ? 1 : 0)},
             {"cancelled", int64_t(Attempt.Cancelled ? 1 : 0)},
             {"nodes", Attempt.Nodes},
             {"pb_conflicts", Attempt.PbConflicts},
             {"seconds", Attempt.Seconds},
             {"witness", Attempt.Explain
                             ? witnessName(Attempt.Explain->Kind)
                             : witnessName(WitnessKind::None)},
             {"witness_source", Attempt.Explain
                                    ? sourceName(Attempt.Explain->Source)
                                    : sourceName(ExplainSource::None)},
             {"witness_verified",
              int64_t(Attempt.Explain && Attempt.Explain->Verified ? 1
                                                                   : 0)},
             {"winner",
              Attempt.Winner.empty() ? "-" : Attempt.Winner.c_str()},
             {"bound_exchanges", Attempt.BoundExchanges}});
    }
  } Publish{Stats, Attempt, AttemptWatch};

  AttemptContext C{Opts, P, II, Stats, TimeBudget, Ctx, Attempt, nullptr,
                   &RacePool};
  const char *Engine = toString(Opts.Backend);
  std::optional<ModuloSchedule> S;
  switch (Opts.Backend) {
  case SchedulerBackend::Ilp:
    S = solveIlpAttempt(C);
    break;
  case SchedulerBackend::Pb:
    if (PbFormulation::supports(P.options())) {
      S = solvePbAttempt(C);
      break;
    }
    // Unsupported formulation under the PB backend: decide it with the
    // ILP instead of failing the loop, and say so once per Problem.
    if (P.claimPbFallbackWarning())
      std::fprintf(stderr,
                   "modsched: PB backend does not support this formulation "
                   "(instance mapping, MinSL, or traditional objective "
                   "style); falling back to ILP\n");
    Engine = toString(SchedulerBackend::Ilp);
    S = solveIlpAttempt(C);
    break;
  case SchedulerBackend::Portfolio:
    S = solvePortfolioAttempt(C);
    break;
  }

  // Uniform gate: whatever engine (or race of engines) produced the
  // schedule, it does not leave scheduleAtIi unverified.
  if (S)
    if (std::optional<std::string> Err =
            verifySchedule(P.graph(), P.machine(), *S)) {
      std::fprintf(stderr,
                   "fatal: engine '%s' emitted a schedule the verifier "
                   "rejects: %s\n",
                   Engine, Err->c_str());
      std::abort();
    }
  return S;
}

ScheduleResult OptimalModuloScheduler::schedule(const DependenceGraph &G,
                                                lp::SolveContext *Ctx) const {
  Problem P(G, M, Opts.Formulation);
  if (std::optional<ScheduleResult> Hit = probeCache(P))
    return std::move(*Hit);
  return solve(P, Ctx);
}

std::optional<ScheduleResult>
OptimalModuloScheduler::probeCache(const Problem &P) const {
  if (!Opts.Cache)
    return std::nullopt;
  Stopwatch Watch;
  const uint64_t RequestKey = SolutionCache::requestKey(Opts);
  std::optional<SolutionCache::Hit> Hit =
      SolutionCache::global().lookup(P, RequestKey);
  if (!Hit)
    return std::nullopt;

  // Served from the cache: the stored canonical solve, re-verified
  // against THIS graph/machine on lookup. No solver effort fields are
  // synthesized — a hit honestly reports zero attempts.
  ScheduleResult Result;
  Result.Found = true;
  Result.CacheHit = true;
  Result.CacheCanonicalHash = P.canonicalHash();
  Result.CacheRequestKey = RequestKey;
  Result.II = Hit->II;
  Result.Mii = Hit->Mii;
  Result.SecondaryObjective = Hit->SecondaryObjective;
  Result.Schedule = std::move(Hit->Schedule);
  Result.Seconds = Watch.seconds();
  ++StatLoops;
  ++StatScheduled;
  if (telemetry::enabled())
    TimeSchedule.addSample(Result.Seconds);
  if (telemetry::tracingEnabled())
    telemetry::instant("ilpsched", "scheduler.done",
                       {{"mii", Result.Mii},
                        {"ii", Result.II},
                        {"found", int64_t(1)},
                        {"cache_hit", int64_t(1)},
                        {"timed_out", int64_t(0)},
                        {"node_limit_hit", int64_t(0)},
                        {"nodes", int64_t(0)},
                        {"seconds", Result.Seconds}});
  return Result;
}

ScheduleResult OptimalModuloScheduler::solve(const Problem &P,
                                             lp::SolveContext *Ctx) const {
  assert(&P.machine() == &M &&
         "the Problem must be built on this scheduler's machine");
  const DependenceGraph &G = P.graph();
  ++StatLoops;
  telemetry::TimerScope Time(TimeSchedule,
                             {{"ops", int64_t(G.numOperations())}});
  Stopwatch Watch;
  ScheduleResult Result;

  const uint64_t RequestKey = SolutionCache::requestKey(Opts);
  if (Opts.Cache && P.hashExact()) {
    Result.CacheCanonicalHash = P.canonicalHash();
    Result.CacheRequestKey = RequestKey;
  }

  // MII depends on the problem alone, so a cache hit reports the stored
  // one; only a solve computes it, before the II search starts from it.
  Result.Mii = mii(G, M);
  // The paper's loop: one tentative II at a time, MII upward, stopping
  // at the first feasible one or when a budget runs out. A portfolio's
  // first race creates the pool the rest of the ladder reuses.
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
        attempt(P, II, Result, Remaining, Ctx, RacePool);
    if (Result.TimedOut || Result.NodeLimitHit)
      break;
    if (S) {
      Result.Found = true;
      Result.II = II;
      Result.Schedule = std::move(*S);
      break;
    }
  }

  Result.Seconds = Watch.seconds();
  if (Opts.Cache)
    SolutionCache::global().insert(P, RequestKey, Result);
  if (Result.Found)
    ++StatScheduled;
  if (Result.TimedOut)
    ++StatTimeouts;
  if (Result.NodeLimitHit)
    ++StatNodeLimits;
  if (telemetry::tracingEnabled())
    telemetry::instant(
        "ilpsched", "scheduler.done",
        {{"mii", Result.Mii},
         {"ii", Result.II},
         {"found", int64_t(Result.Found ? 1 : 0)},
         {"cache_hit", int64_t(0)},
         {"timed_out", int64_t(Result.TimedOut ? 1 : 0)},
         {"node_limit_hit", int64_t(Result.NodeLimitHit ? 1 : 0)},
         {"nodes", Result.Nodes},
         {"seconds", Result.Seconds}});
  return Result;
}
