//===- ilpsched/OptimalScheduler.cpp - Min-II ILP search ------------------===//

#include "ilpsched/OptimalScheduler.h"

#include "ilpsched/Attempt.h"
#include "ilpsched/PbFormulation.h"
#include "ilpsched/SolutionCache.h"
#include "lp/SolveContext.h"
#include "sched/Mii.h"
#include "sched/Verifier.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
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
telemetry::Counter StatExplainCycle("ilpsched", "explain.cycle_witnesses",
                                    "Infeasible IIs explained by a "
                                    "recurrence cycle");
telemetry::Counter StatExplainResource("ilpsched",
                                       "explain.resource_witnesses",
                                       "Infeasible IIs explained by a "
                                       "saturated resource");
telemetry::Counter StatExplainNone("ilpsched", "explain.unexplained",
                                   "Infeasible IIs with no checkable "
                                   "witness");
telemetry::Counter StatWinnerIlp("ilpsched", "portfolio.winner_ilp",
                                 "Portfolio attempts decided by the ILP "
                                 "engine");
telemetry::Counter StatWinnerPb("ilpsched", "portfolio.winner_pb",
                                "Portfolio attempts decided by the PB "
                                "engine");

/// Attaches the graph-level witness of an infeasible attempt at \p II,
/// re-verified by checkExplanation, and bumps the witness counters. A
/// witness exists exactly when II < MII; any other infeasible verdict
/// counts as unexplained.
void attachExplanation(const Problem &P, int II, IiAttempt &Attempt) {
  std::optional<Explanation> E =
      explainInfeasibleIi(P.graph(), P.machine(), II);
  if (!E) {
    ++StatExplainNone;
    return;
  }
  E->Verified = checkExplanation(P.graph(), P.machine(), II, *E);
  switch (E->Kind) {
  case WitnessKind::RecurrenceCycle:
    ++StatExplainCycle;
    break;
  case WitnessKind::ResourceSaturation:
    ++StatExplainResource;
    break;
  case WitnessKind::None:
    break;
  }
  Attempt.Explain = std::move(*E);
}

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
  RequestState Request;
  return attempt(P, II, Stats, TimeBudget, Ctx, Request);
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
                                RequestState &Request) const {
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
             {"witness_verified",
              int64_t(Attempt.Explain && Attempt.Explain->Verified ? 1
                                                                   : 0)},
             {"winner",
              Attempt.Winner.empty() ? "-" : Attempt.Winner.c_str()}});
    }
  } Publish{Stats, Attempt, AttemptWatch};

  // The windows and bounds both encoders read. Below the recurrence
  // bound no ASAP schedule exists: the II is infeasible without a model,
  // and no engine runs (so none is the winner).
  const AttemptFrame Frame(P.graph(), P.machine(), II, P.options());
  if (!Frame.Valid) {
    Attempt.WindowInfeasible = true;
    if (Opts.Explain)
      attachExplanation(P, II, Attempt);
    return std::nullopt;
  }

  // One engine decides the attempt, on the caller's thread.
  const bool PbSupported = PbFormulation::supports(P.options());
  bool UsePb = false;
  switch (Opts.Backend) {
  case SchedulerBackend::Ilp:
    break;
  case SchedulerBackend::Pb:
    UsePb = PbSupported;
    // Unsupported formulation under the PB backend: decide it with the
    // ILP instead of failing the loop, and say so once per request.
    if (!UsePb && !std::exchange(Request.PbFallbackWarned, true))
      std::fprintf(stderr,
                   "modsched: PB backend does not support this formulation "
                   "(instance mapping, MinSL, or traditional objective "
                   "style); falling back to ILP\n");
    break;
  case SchedulerBackend::Portfolio:
    // The objective picks the engine (see SchedulerBackend::Portfolio).
    UsePb = PbSupported && P.options().Obj != Objective::MinLife;
    break;
  }
  const char *Engine = toString(UsePb ? SchedulerBackend::Pb
                                      : SchedulerBackend::Ilp);
  AttemptContext C{Opts, P, Frame, Stats, TimeBudget, Ctx, Attempt};
  std::optional<ModuloSchedule> S =
      UsePb ? solvePbAttempt(C) : solveIlpAttempt(C);

  const bool Infeasible = Attempt.Status == MipStatus::Infeasible &&
                          !Attempt.Cancelled && !Attempt.Scheduled;
  if (Opts.Backend == SchedulerBackend::Portfolio &&
      (Attempt.Scheduled || Infeasible)) {
    Attempt.Winner = Engine;
    ++(UsePb ? StatWinnerPb : StatWinnerIlp);
  }

  // One witness path for every engine's infeasible verdict.
  if (Opts.Explain && Infeasible)
    attachExplanation(P, II, Attempt);

  // Uniform gate: whatever engine produced the schedule, it does not
  // leave scheduleAtIi unverified.
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
  // at the first feasible one or when a budget runs out.
  RequestState Request;
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
        attempt(P, II, Result, Remaining, Ctx, Request);
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
