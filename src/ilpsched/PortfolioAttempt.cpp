//===- ilpsched/PortfolioAttempt.cpp - Engine race coordination -----------===//

#include "ilpsched/PortfolioAttempt.h"

#include "ilpsched/AttemptEngine.h"
#include "ilpsched/OptimalScheduler.h"
#include "lp/SolveContext.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

using namespace modsched;
using namespace modsched::ilp;

void SharedIncumbent::publish(int64_t K, const ModuloSchedule &S) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (K < Obj) {
      Obj = K;
      Schedule = S;
    }
  }
  // Tighten the lock-free cell monotonically; a stale larger value must
  // never overwrite a tighter one published concurrently.
  int64_t Cur = Bound.load(std::memory_order_acquire);
  while (K < Cur &&
         !Bound.compare_exchange_weak(Cur, K, std::memory_order_acq_rel)) {
  }
}

std::optional<ModuloSchedule> SharedIncumbent::best(int64_t &K) const {
  std::lock_guard<std::mutex> Lock(Mu);
  K = Obj;
  return Schedule;
}

namespace {

telemetry::Counter StatRaces("ilpsched", "portfolio.races",
                             "II attempts raced by several engines");
telemetry::Counter StatWinnerIlp("ilpsched", "portfolio.winner_ilp",
                                 "Attempts committed from the ILP engine");
telemetry::Counter StatWinnerPb("ilpsched", "portfolio.winner_pb",
                                "Attempts committed from the PB engine");
telemetry::Counter StatBoundExchanges("ilpsched",
                                      "portfolio.bound_exchanges",
                                      "Cross-engine incumbent bounds "
                                      "applied (ILP prunes + PB "
                                      "injections)");
telemetry::Counter StatPbIneligible("ilpsched", "portfolio.pb_ineligible",
                                    "Attempts where PB sat out "
                                    "(wide-coefficient MinLife or "
                                    "unsupported formulation)");

void bumpWinner(const char *Name) {
  if (std::strcmp(Name, "ilp") == 0)
    ++StatWinnerIlp;
  else if (std::strcmp(Name, "pb") == 0)
    ++StatWinnerPb;
}

/// Everything one racing engine produces: its verdict-bearing attempt
/// record, its scratch statistics (seeded with the loop's budget spend
/// so the shared node budget means the same thing it does
/// sequentially), and its schedule, if any.
struct WorkerResult {
  std::optional<ModuloSchedule> Schedule;
  IiAttempt Attempt;
  ScheduleResult Scratch;
  bool Done = false; ///< Guarded by the coordinator latch mutex.
};

/// A worker's verdict is conclusive when it decides the II: a verified
/// optimal schedule, a genuine infeasibility proof, or a refutation of
/// everything below the shared incumbent (which, combined with that
/// incumbent, proves it optimal). Budget expiry and cancellation decide
/// nothing.
bool conclusive(const WorkerResult &W, const PortfolioEngineHooks &H) {
  if (W.Attempt.Cancelled)
    return false;
  if (W.Attempt.Scheduled || H.RefutedBelowExternal)
    return true;
  return W.Attempt.Status == MipStatus::Infeasible;
}

/// One lane of a portfolio race: the child engine plus all the
/// per-worker state it solves under. Everything lives on the
/// coordinator's frame; the latch guarantees workers terminate before
/// it unwinds.
struct Racer {
  const AttemptEngine *E = nullptr;
  CancellationSource Cancel;
  lp::SolveContext Ctx;
  PortfolioEngineHooks Hooks;
  WorkerResult W;
};

} // namespace

bool PortfolioEngine::supports(const Problem &P, int II) const {
  for (const AttemptEngine *E : Children)
    if (E->supports(P, II))
      return true;
  return false;
}

std::optional<ModuloSchedule>
PortfolioEngine::solveAttempt(AttemptContext &C) const {
  assert(C.RacePool && "portfolio attempts need a loop-level pool holder");
  const Objective Obj = C.P.options().Obj;

  // --- Eligibility: which registered engines contest this attempt.
  // supports() is the hard capability filter; worthRacing() then thins a
  // multi-engine field down to the engines worth a worker (unless that
  // would empty it — somebody has to decide the II). ---
  std::vector<const AttemptEngine *> Contestants;
  for (const AttemptEngine *E : Children)
    if (E->supports(C.P, C.II))
      Contestants.push_back(E);
  assert(!Contestants.empty() &&
         "portfolio dispatched an attempt no registered engine supports");
  if (Contestants.size() > 1) {
    std::vector<const AttemptEngine *> Worth;
    for (const AttemptEngine *E : Contestants)
      if (E->worthRacing(C.P, C.II))
        Worth.push_back(E);
    if (!Worth.empty())
      Contestants = std::move(Worth);
  }
  const auto contesting = [&](const char *Name) {
    for (const AttemptEngine *E : Contestants)
      if (std::strcmp(E->name(), Name) == 0)
        return true;
    return false;
  };
  bool PbRegistered = false;
  for (const AttemptEngine *E : Children)
    PbRegistered |= std::strcmp(E->name(), "pb") == 0;
  if (PbRegistered && !contesting("pb"))
    ++StatPbIneligible;

  if (Contestants.size() == 1) {
    // A lone contestant runs inline on the caller's thread — no pool,
    // no shared incumbent (there is nobody to exchange bounds with), so
    // it solves exactly as its single-engine backend would.
    const AttemptEngine *E = Contestants.front();
    std::optional<ModuloSchedule> S = E->solveAttempt(C);
    if (S || (!C.Attempt.Cancelled &&
              C.Attempt.Status == MipStatus::Infeasible)) {
      C.Attempt.Winner = E->name();
      bumpWinner(E->name());
    }
    return S;
  }

  // --- Race the contestants on the loop's pool, created by the first
  // race (eligibility short-circuits never pay for threads). ---
  ++StatRaces;
  std::unique_ptr<ThreadPool> &Pool = *C.RacePool;
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(int(Children.size()));

  lp::SolveContext LocalCtx;
  lp::SolveContext &Parent = C.Ctx ? *C.Ctx : LocalCtx;

  SharedIncumbent Shared;
  const bool Exchange = Obj != Objective::None;

  const int64_t SeedNodes = C.Stats.Nodes;
  const int64_t SeedConflicts = C.Stats.PbConflicts;
  std::vector<Racer> Racers(Contestants.size());
  for (size_t I = 0; I != Racers.size(); ++I) {
    Racer &R = Racers[I];
    R.E = Contestants[I];
    R.Ctx.DeadlineSeconds = Parent.DeadlineSeconds;
    R.Ctx.Cancel = R.Cancel.token();
    if (Exchange) {
      R.Hooks.ExternalBound = &Shared.Bound;
      R.Hooks.OnIncumbent = [&Shared](int64_t K, const ModuloSchedule &S) {
        Shared.publish(K, S);
      };
    }
    // Each worker sees the loop's budget spend so far (like
    // ParallelRace slots, the budget is granted to each independently —
    // they cannot see each other's spend without racing on it).
    R.W.Attempt.II = C.II;
    R.W.Scratch.Nodes = SeedNodes;
    R.W.Scratch.PbConflicts = SeedConflicts;
  }

  std::mutex Mu;
  std::condition_variable Cv;
  for (Racer &R : Racers) {
    Racer *RP = &R;
    Pool->submit([&C, &Mu, &Cv, RP] {
      AttemptContext Lane{C.P,          C.II,     RP->W.Scratch,
                          C.TimeBudget, &RP->Ctx, RP->W.Attempt,
                          &RP->Hooks};
      RP->W.Schedule = RP->E->solveAttempt(Lane);
      // Notify under the lock: once Done is visible and Mu released, the
      // coordinator may return and destroy the Cv on its frame.
      std::lock_guard<std::mutex> Lock(Mu);
      RP->W.Done = true;
      Cv.notify_all();
    });
  }

  // Latch: wake on worker completion (or every millisecond to poll the
  // parent's token — CancellationToken has no chaining API). The first
  // conclusive verdict cancels the losers; every worker must terminate
  // before the coordinator touches their results, since everything they
  // reference lives on this frame.
  {
    std::unique_lock<std::mutex> Lock(Mu);
    bool FiredCancel = false;
    const auto allDone = [&] {
      for (const Racer &R : Racers)
        if (!R.W.Done)
          return false;
      return true;
    };
    const auto anyConclusive = [&] {
      for (const Racer &R : Racers)
        if (R.W.Done && conclusive(R.W, R.Hooks))
          return true;
      return false;
    };
    while (!allDone()) {
      if (!FiredCancel && (Parent.cancelled() || anyConclusive())) {
        for (Racer &R : Racers)
          R.Cancel.cancel();
        FiredCancel = true;
      }
      Cv.wait_for(Lock, std::chrono::milliseconds(1));
    }
  }

  int64_t ExchangesApplied = 0;
  for (const Racer &R : Racers)
    ExchangesApplied += R.Hooks.BoundExchanges;
  StatBoundExchanges += ExchangesApplied;

  // --- Merge every engine's effort into the loop statistics (truthful
  // telemetry: racing costs several engines' work, and budgetNodes()
  // must reflect it). ---
  IiAttempt &Attempt = C.Attempt;
  for (Racer &R : Racers) {
    C.Stats.Nodes += R.W.Scratch.Nodes - SeedNodes;
    C.Stats.PbConflicts += R.W.Scratch.PbConflicts - SeedConflicts;
    C.Stats.SimplexIterations += R.W.Scratch.SimplexIterations;
    C.Stats.WarmLpSolves += R.W.Scratch.WarmLpSolves;
    C.Stats.ColdLpSolves += R.W.Scratch.ColdLpSolves;
    C.Stats.WarmLpIterations += R.W.Scratch.WarmLpIterations;
    C.Stats.LpRefactorizations += R.W.Scratch.LpRefactorizations;
    C.Stats.LpEtaNonzeros += R.W.Scratch.LpEtaNonzeros;
    C.Stats.PbPropagations += R.W.Scratch.PbPropagations;
    C.Stats.PbRestarts += R.W.Scratch.PbRestarts;
    C.Stats.PbLearned += R.W.Scratch.PbLearned;
    Attempt.Nodes += R.W.Attempt.Nodes;
    Attempt.SimplexIterations += R.W.Attempt.SimplexIterations;
    Attempt.PbConflicts += R.W.Attempt.PbConflicts;
    Attempt.PbPropagations += R.W.Attempt.PbPropagations;
  }
  Attempt.BoundExchanges = ExchangesApplied;

  // --- Resolve verdicts. A refutation below the shared cell commits
  // the shared incumbent (another engine's schedule) as optimal. ---
  struct Verdict {
    bool Valid = false;
    bool Infeasible = false;
    std::optional<ModuloSchedule> Schedule;
    int64_t ObjVal = 0;
  };
  auto Resolve = [&](Racer &R) -> Verdict {
    Verdict V;
    if (!conclusive(R.W, R.Hooks))
      return V;
    V.Valid = true;
    if (R.W.Schedule) {
      V.Schedule = std::move(R.W.Schedule);
      V.ObjVal = int64_t(std::llround(R.W.Scratch.SecondaryObjective));
      return V;
    }
    if (R.Hooks.RefutedBelowExternal) {
      int64_t K = INT64_MAX;
      V.Schedule = Shared.best(K);
      V.ObjVal = K;
      if (!V.Schedule) {
        std::fprintf(stderr,
                     "fatal: portfolio refuted below a shared bound "
                     "with no shared incumbent at II=%d\n",
                     C.II);
        std::abort();
      }
      return V;
    }
    V.Infeasible = true;
    return V;
  };
  std::vector<Verdict> Verdicts;
  Verdicts.reserve(Racers.size());
  for (Racer &R : Racers)
    Verdicts.push_back(Resolve(R));

  // Engines that finished before the cancellation landed produced
  // independent exact answers and must agree — a mismatch is an engine
  // bug, never a result.
  Verdict *First = nullptr;
  Racer *FirstR = nullptr;
  for (size_t I = 0; I != Verdicts.size(); ++I) {
    if (!Verdicts[I].Valid)
      continue;
    if (!First) {
      First = &Verdicts[I];
      FirstR = &Racers[I];
      continue;
    }
    const Verdict &V = Verdicts[I];
    const bool Agree = First->Infeasible == V.Infeasible &&
                       (First->Infeasible || First->ObjVal == V.ObjVal);
    if (!Agree) {
      std::fprintf(stderr,
                   "fatal: portfolio engines disagree at II=%d: "
                   "%s={infeasible=%d obj=%lld} "
                   "%s={infeasible=%d obj=%lld}\n",
                   C.II, FirstR->E->name(), First->Infeasible ? 1 : 0,
                   (long long)First->ObjVal, Racers[I].E->name(),
                   V.Infeasible ? 1 : 0, (long long)V.ObjVal);
      std::abort();
    }
  }

  if (!First) {
    // No engine decided the II: the parent cancelled the race, or every
    // engine was censored by its budget.
    if (Parent.cancelled()) {
      Attempt.Status = MipStatus::Cancelled;
      Attempt.Cancelled = true;
      return std::nullopt;
    }
    Attempt.Status = MipStatus::Limit;
    for (const Racer &R : Racers) {
      C.Stats.TimedOut |= R.W.Scratch.TimedOut;
      C.Stats.NodeLimitHit |= R.W.Scratch.NodeLimitHit;
    }
    for (Racer &R : Racers)
      if (R.W.Attempt.Audit) {
        Attempt.Audit = std::move(R.W.Attempt.Audit); // Censored incumbent.
        break;
      }
    return std::nullopt;
  }

  // Fixed engine preference: when several verdicts are conclusive the
  // earliest registered child's is committed, so the attempt record
  // (and any explanation/audit attached to it) is deterministic
  // regardless of race timing.
  Verdict &V = *First;
  Racer &W = *FirstR;

  Attempt.Winner = W.E->name();
  bumpWinner(W.E->name());
  Attempt.Variables = W.W.Attempt.Variables;
  Attempt.Constraints = W.W.Attempt.Constraints;
  Attempt.Explain = std::move(W.W.Attempt.Explain);
  Attempt.Audit = std::move(W.W.Attempt.Audit);

  if (V.Infeasible) {
    Attempt.Status = MipStatus::Infeasible;
    Attempt.WindowInfeasible = W.W.Attempt.WindowInfeasible;
    return std::nullopt;
  }

  Attempt.Status = MipStatus::Optimal;
  Attempt.Scheduled = true;
  if (Opts.Explain && !Attempt.Audit) {
    // Optimality proved by the refutation half of a split verdict (one
    // engine found the schedule, another exhausted everything better);
    // there is no relaxation bound to audit against.
    OptimalityAudit A;
    A.FinalObjective = double(V.ObjVal);
    A.Proof = "optimal";
    Attempt.Audit = std::move(A);
  }
  C.Stats.Variables = W.W.Attempt.Variables;
  C.Stats.Constraints = W.W.Attempt.Constraints;
  C.Stats.SecondaryObjective = double(V.ObjVal);
  return std::move(V.Schedule);
}
