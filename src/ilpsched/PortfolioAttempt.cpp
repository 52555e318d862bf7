//===- ilpsched/PortfolioAttempt.cpp - ILP/PB race coordination -----------===//

#include "ilpsched/PortfolioAttempt.h"

#include "ilpsched/Attempt.h"
#include "ilpsched/PbFormulation.h"
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
                             "II attempts raced by both engines");
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

/// One engine of the portfolio: the name IiAttempt::Winner reports, its
/// attempt function and its win counter.
struct Engine {
  const char *Name;
  std::optional<ModuloSchedule> (*Solve)(AttemptContext &);
  telemetry::Counter *Wins;
};

const Engine IlpLane{"ilp", solveIlpAttempt, &StatWinnerIlp};
const Engine PbLane{"pb", solvePbAttempt, &StatWinnerPb};

/// PB contests the attempt when its encoding expresses the formulation
/// and, for MinLife, the II is within PortfolioPbCoeffLimit: MinLife
/// rows carry objective/lifetime coefficients that scale with II, and
/// past that width the CDCL engine's cardinality reasoning degrades
/// into slow generic PB arithmetic and never wins the race (E11).
bool pbContests(const SchedulerOptions &Opts, const Problem &P, int II) {
  return PbFormulation::supports(P.options()) &&
         !(P.options().Obj == Objective::MinLife &&
           II > Opts.PortfolioPbCoeffLimit);
}

/// The ILP sits out a tiny feasibility attempt (NoObj, at most
/// PortfolioIlpMinPbVars PB variables): the CDCL engine decides these
/// orders of magnitude faster than a B&B warm-up (E11), so racing the
/// ILP only burns a worker. A limit of 0 disables the rule.
bool ilpSitsOut(const SchedulerOptions &Opts, const Problem &P, int II) {
  return P.options().Obj == Objective::None &&
         Opts.PortfolioIlpMinPbVars > 0 &&
         P.graph().numOperations() * II <= Opts.PortfolioIlpMinPbVars;
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

/// One lane of a portfolio race: the engine plus all the per-worker
/// state it solves under. Everything lives on the coordinator's frame;
/// the latch guarantees workers terminate before it unwinds.
struct Racer {
  const Engine *E = nullptr;
  CancellationSource Cancel;
  lp::SolveContext Ctx;
  PortfolioEngineHooks Hooks;
  WorkerResult W;
};

} // namespace

std::optional<ModuloSchedule>
modsched::solvePortfolioAttempt(AttemptContext &C) {
  assert(C.RacePool && "portfolio attempts need a loop-level pool holder");
  const Objective Obj = C.P.options().Obj;

  // --- Eligibility. The two sit-out rules never fire together (one
  // needs NoObj, the other MinLife), so some engine always decides. ---
  const int II = C.Frame.II;
  const bool RunPb = pbContests(C.Opts, C.P, II);
  const bool RunIlp = !RunPb || !ilpSitsOut(C.Opts, C.P, II);
  if (!RunPb)
    ++StatPbIneligible;

  if (!RunPb || !RunIlp) {
    // A lone engine runs inline on the caller's thread — no pool, no
    // shared incumbent (there is nobody to exchange bounds with), so it
    // solves exactly as its single-engine backend would.
    const Engine &E = RunIlp ? IlpLane : PbLane;
    std::optional<ModuloSchedule> S = E.Solve(C);
    if (S || (!C.Attempt.Cancelled &&
              C.Attempt.Status == MipStatus::Infeasible)) {
      C.Attempt.Winner = E.Name;
      ++*E.Wins;
    }
    return S;
  }

  // --- Race both engines on the loop's pool, created by the first race
  // (eligibility short-circuits never pay for threads). ---
  ++StatRaces;
  std::unique_ptr<ThreadPool> &Pool = *C.RacePool;
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(2);

  lp::SolveContext LocalCtx;
  lp::SolveContext &Parent = C.Ctx ? *C.Ctx : LocalCtx;

  SharedIncumbent Shared;
  const bool Exchange = Obj != Objective::None;

  const int64_t SeedNodes = C.Stats.Nodes;
  const int64_t SeedConflicts = C.Stats.PbConflicts;
  // The ILP lane comes first: when both engines conclude, its verdict
  // is committed (its audit evidence is richer), keeping outcomes
  // deterministic.
  Racer Racers[2];
  Racers[0].E = &IlpLane;
  Racers[1].E = &PbLane;
  for (Racer &R : Racers) {
    R.Ctx.DeadlineSeconds = Parent.DeadlineSeconds;
    R.Ctx.Cancel = R.Cancel.token();
    if (Exchange) {
      R.Hooks.ExternalBound = &Shared.Bound;
      R.Hooks.OnIncumbent = [&Shared](int64_t K, const ModuloSchedule &S) {
        Shared.publish(K, S);
      };
    }
    // Each worker sees the loop's budget spend so far; the remaining
    // budget is granted to each independently — they cannot see each
    // other's spend without racing on it.
    R.W.Attempt.II = II;
    R.W.Scratch.Nodes = SeedNodes;
    R.W.Scratch.PbConflicts = SeedConflicts;
  }

  std::mutex Mu;
  std::condition_variable Cv;
  for (Racer &R : Racers) {
    Racer *RP = &R;
    Pool->submit([&C, &Mu, &Cv, RP] {
      AttemptContext Lane{C.Opts,        C.P,          C.Frame,
                          RP->W.Scratch, C.TimeBudget, &RP->Ctx,
                          RP->W.Attempt, &RP->Hooks};
      RP->W.Schedule = RP->E->Solve(Lane);
      // Notify under the lock: once Done is visible and Mu released, the
      // coordinator may return and destroy the Cv on its frame.
      std::lock_guard<std::mutex> Lock(Mu);
      RP->W.Done = true;
      Cv.notify_all();
    });
  }

  // Latch: wake on worker completion (or every millisecond to poll the
  // parent's token — CancellationToken has no chaining API). The first
  // conclusive verdict cancels the loser; every worker must terminate
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

  // --- Merge both engines' effort into the loop statistics (truthful
  // telemetry: racing costs both engines' work, and budgetNodes() must
  // reflect it). ---
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
                     II);
        std::abort();
      }
      return V;
    }
    V.Infeasible = true;
    return V;
  };
  Verdict Verdicts[2] = {Resolve(Racers[0]), Resolve(Racers[1])};

  // Engines that both finished before the cancellation landed produced
  // independent exact answers and must agree — a mismatch is an engine
  // bug, never a result.
  if (Verdicts[0].Valid && Verdicts[1].Valid &&
      (Verdicts[0].Infeasible != Verdicts[1].Infeasible ||
       (!Verdicts[0].Infeasible &&
        Verdicts[0].ObjVal != Verdicts[1].ObjVal))) {
    std::fprintf(stderr,
                 "fatal: portfolio engines disagree at II=%d: "
                 "ilp={infeasible=%d obj=%lld} pb={infeasible=%d obj=%lld}\n",
                 II, Verdicts[0].Infeasible ? 1 : 0,
                 (long long)Verdicts[0].ObjVal, Verdicts[1].Infeasible ? 1 : 0,
                 (long long)Verdicts[1].ObjVal);
    std::abort();
  }

  // Fixed engine preference: when both verdicts are conclusive the ILP
  // lane's is committed, so the attempt record (and any
  // explanation/audit attached to it) is deterministic regardless of
  // race timing.
  const size_t Win = Verdicts[0].Valid ? 0 : 1;
  if (!Verdicts[Win].Valid) {
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

  Verdict &V = Verdicts[Win];
  Racer &W = Racers[Win];

  Attempt.Winner = W.E->Name;
  ++*W.E->Wins;
  Attempt.Variables = W.W.Attempt.Variables;
  Attempt.Constraints = W.W.Attempt.Constraints;
  Attempt.Audit = std::move(W.W.Attempt.Audit);

  if (V.Infeasible) {
    Attempt.Status = MipStatus::Infeasible;
    return std::nullopt;
  }

  Attempt.Status = MipStatus::Optimal;
  Attempt.Scheduled = true;
  if (C.Opts.Explain && !Attempt.Audit) {
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
