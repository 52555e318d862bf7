//===- ilpsched/Attempt.cpp - ILP and PB attempts -------------------------===//

#include "ilpsched/Attempt.h"

#include "ilpsched/Formulation.h"
#include "ilpsched/PbFormulation.h"
#include "lp/SolveContext.h"
#include "sched/Verifier.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace modsched;
using namespace modsched::ilp;

namespace {

/// Builds the audit record for a solved (or censored-with-incumbent) ILP
/// attempt from the MIP result's bound evidence.
OptimalityAudit makeIlpAudit(MipResult &R, const char *Proof) {
  OptimalityAudit A;
  A.HasRootBound = R.HasRootBound;
  A.RootBound = R.RootBound;
  A.FinalObjective = R.Objective;
  A.Gap = R.HasRootBound ? R.Objective - R.RootBound : 0.0;
  if (std::abs(A.Gap) < 1e-6)
    A.Gap = 0.0; // Strip LP round-off from a proved-tight bound.
  A.Proof = Proof;
  A.Trajectory = std::move(R.Trajectory);
  return A;
}

} // namespace

//===----------------------------------------------------------------------===//
// ILP attempt
//===----------------------------------------------------------------------===//

std::optional<ModuloSchedule> modsched::solveIlpAttempt(AttemptContext &C) {
  const SchedulerOptions &Opts = C.Opts;
  const DependenceGraph &G = C.P.graph();
  const MachineModel &M = C.P.machine();
  const FormulationOptions &FOpts = C.P.options();
  ScheduleResult &Stats = C.Stats;
  IiAttempt &Attempt = C.Attempt;
  PortfolioEngineHooks *Hooks = C.Hooks;

  Formulation F(G, M, C.Frame, FOpts);
  assert(F.valid() && "attempts are dispatched on valid frames only");
  Attempt.Variables = F.model().numVariables();
  Attempt.Constraints = F.model().numConstraints();

  MipOptions MipOpts;
  MipOpts.TimeLimitSeconds = C.TimeBudget;
  MipOpts.NodeLimit = Opts.NodeLimit - Stats.budgetNodes();
  MipOpts.Branching = Opts.Branching;
  MipOpts.StopAtFirstSolution = FOpts.Obj == Objective::None;
  MipOpts.WarmStart = Opts.WarmStart;
  MipOpts.Lp.Engine = Opts.LpEngine;
  MipOpts.CollectTrajectory = Opts.Explain;
  if (Hooks) {
    // Portfolio wiring: prune against the cross-engine incumbent cell,
    // and publish every verified incumbent the moment it is accepted so
    // the PB worker can tighten its own search mid-race.
    MipOpts.ExternalBound = Hooks->ExternalBound;
    if (Hooks->OnIncumbent)
      MipOpts.Observer = [&](const BbEventInfo &Info) {
        if (Info.Kind != BbEvent::IncumbentFound || !Info.Values)
          return;
        ModuloSchedule Inc = F.decode(*Info.Values);
        if (std::optional<std::string> Err =
                verifySchedule(G, M, Inc, F.maxTime())) {
          std::fprintf(stderr,
                       "fatal: ILP produced an invalid incumbent: %s\n",
                       Err->c_str());
          std::abort();
        }
        Hooks->OnIncumbent(int64_t(std::llround(Info.Incumbent)),
                           std::move(Inc));
      };
  }
  MipSolver Solver(MipOpts);

  // Solve under the caller's context (a portfolio lane brings its own,
  // wired to the race's cancellation source) or a fresh local one.
  lp::SolveContext LocalCtx;
  MipResult R = Solver.solve(F.model(), C.Ctx ? *C.Ctx : LocalCtx);
  Stats.Nodes += R.Nodes;
  Stats.SimplexIterations += R.SimplexIterations;
  Stats.WarmLpSolves += R.WarmLpSolves;
  Stats.ColdLpSolves += R.ColdLpSolves;
  Stats.WarmLpIterations += R.WarmLpIterations;
  Stats.LpRefactorizations += R.LpRefactorizations;
  Stats.LpEtaNonzeros += R.LpEtaNonzeros;
  Attempt.Status = R.Status;
  Attempt.Nodes = R.Nodes;
  Attempt.SimplexIterations = R.SimplexIterations;
  if (Hooks && R.UsedExternalBound)
    ++Hooks->BoundExchanges;

  if (R.Status == MipStatus::Cancelled) {
    // The caller's token stopped the search (e.g. the other engine of
    // a portfolio race concluded first). No verdict about this II; in
    // particular no half-decoded schedule ever escapes a cancelled solve.
    Attempt.Cancelled = true;
    return std::nullopt;
  }
  if (R.Status == MipStatus::Limit) {
    // Budget expired. A feasible-but-unproven incumbent is not reported
    // as an optimal schedule; the caller records which budget censored
    // the attempt (both flags can trip in the same pass).
    if (R.HitNodeLimit)
      Stats.NodeLimitHit = true;
    if (R.HitTimeLimit || !R.HitNodeLimit)
      Stats.TimedOut = true;
    if (Opts.Explain && R.HasSolution)
      Attempt.Audit = makeIlpAudit(R, "censored");
    return std::nullopt;
  }
  if (!R.HasSolution) {
    // Proved infeasible at this II, unless the search pruned against
    // the shared cell: then only "no solution strictly better than the
    // other engine's incumbent" was proved, and the coordinator commits
    // that incumbent as the optimum.
    if (Hooks && R.UsedExternalBound)
      Hooks->RefutedBelowExternal = true;
    return std::nullopt;
  }
  if (Hooks && Hooks->ExternalBound && R.UsedExternalBound) {
    // The search pruned subtrees against the other engine's incumbent
    // cell, so exhausting the tree proved "nothing strictly better than
    // min(own incumbent, shared cell)" — NOT that this solve's own
    // incumbent is the optimum. When the cell is strictly better, the
    // shared schedule wins: every prune used a cutoff no smaller than
    // the cell's final value (it only tightens), so no pruned subtree
    // can hide anything below it.
    int64_t K = Hooks->ExternalBound->load(std::memory_order_acquire);
    if (K != INT64_MAX && double(K) < R.Objective - 1e-9) {
      Hooks->RefutedBelowExternal = true;
      return std::nullopt;
    }
  }

  Stats.Variables = F.model().numVariables();
  Stats.Constraints = F.model().numConstraints();
  Stats.SecondaryObjective = R.Objective;
  ModuloSchedule S = F.decode(R.Values);
  // Every ILP schedule is independently re-verified; a failure here means
  // a formulation bug and must never be silently reported as a result.
  if (std::optional<std::string> Err = verifySchedule(G, M, S, F.maxTime())) {
    std::fprintf(stderr, "fatal: ILP produced an invalid schedule: %s\n",
                 Err->c_str());
    std::abort();
  }
  Attempt.Scheduled = true;
  if (Opts.Explain)
    Attempt.Audit = makeIlpAudit(
        R, MipOpts.StopAtFirstSolution ? "first_solution" : "optimal");
  return S;
}

//===----------------------------------------------------------------------===//
// PB attempt
//===----------------------------------------------------------------------===//

std::optional<ModuloSchedule> modsched::solvePbAttempt(AttemptContext &C) {
  assert(PbFormulation::supports(C.P.options()) &&
         "PB attempt dispatched for a formulation the encoding cannot "
         "express");
  const SchedulerOptions &Opts = C.Opts;
  const DependenceGraph &G = C.P.graph();
  const MachineModel &M = C.P.machine();
  ScheduleResult &Stats = C.Stats;
  IiAttempt &Attempt = C.Attempt;
  PortfolioEngineHooks *Hooks = C.Hooks;

  PbFormulation F(G, M, C.Frame, C.P.options());
  assert(F.valid() && "attempts are dispatched on valid frames only");
  Attempt.Variables = F.numVariables();
  Attempt.Constraints = F.numConstraints();

  lp::SolveContext LocalCtx;
  lp::SolveContext &Ctx = C.Ctx ? *C.Ctx : LocalCtx;
  lp::DeadlineScope Deadline(Ctx, C.TimeBudget);

  pb::Solver &S = F.solver();
  S.DeadlineSeconds = Ctx.DeadlineSeconds;
  S.Cancel = Ctx.Cancel;

  // PB effort accounting on every exit path, mirroring PublishOnExit:
  // conflicts are the backend's "nodes" and feed the shared budget.
  struct AccountOnExit {
    pb::Solver &S;
    pb::SolverStats Before;
    ScheduleResult &Stats;
    IiAttempt &Attempt;
    ~AccountOnExit() {
      const pb::SolverStats &After = S.stats();
      Attempt.PbConflicts = After.Conflicts - Before.Conflicts;
      Attempt.PbPropagations = After.Propagations - Before.Propagations;
      Stats.PbConflicts += Attempt.PbConflicts;
      Stats.PbPropagations += Attempt.PbPropagations;
      Stats.PbRestarts += After.Restarts - Before.Restarts;
      Stats.PbLearned += After.Learned - Before.Learned;
    }
  } Account{S, S.stats(), Stats, Attempt};

  const bool BoundedNodes = Opts.NodeLimit != INT64_MAX;
  // Conflicts the shared node budget still allows this attempt; the II
  // search guarantees it is positive on entry.
  auto ConflictsLeft = [&]() {
    int64_t Spent = S.stats().Conflicts - Account.Before.Conflicts;
    return Opts.NodeLimit - Stats.budgetNodes() - Spent;
  };

  // Solution-improving descent: each Sat answer becomes the incumbent
  // and tightens the (selector-gated) objective bound; Unsat with an
  // incumbent proves it optimal. Without an objective the first model
  // wins outright (the NoObj scheduler's StopAtFirstSolution).
  bool HaveIncumbent = false;
  int64_t BestObj = 0;
  ModuloSchedule Best;
  // Cross-engine exchange: at every restart (the solver's root level)
  // poll the shared cell and, when the other engine's incumbent beats
  // everything seen here, inject "objective <= k - 1" so the descent
  // skips straight past it. LastInjected tracks the tightest applied
  // cutoff; an Unsat answer with one pending and no better incumbent of
  // our own refutes "below k", not the model.
  int64_t LastInjected = INT64_MAX;
  if (Hooks && Hooks->ExternalBound && F.hasObjective())
    S.OnRestart = [&] {
      int64_t K = Hooks->ExternalBound->load(std::memory_order_acquire);
      if (K >= LastInjected || (HaveIncumbent && K >= BestObj))
        return;
      LastInjected = K;
      ++Hooks->BoundExchanges;
      F.injectObjectiveBound(K - 1);
    };
  for (;;) {
    if (BoundedNodes) {
      int64_t Left = ConflictsLeft();
      if (Left <= 0) {
        Attempt.Status = MipStatus::Limit;
        Stats.NodeLimitHit = true;
        return std::nullopt;
      }
      S.ConflictLimit = Left;
    }
    pb::SolveStatus R = S.solve(F.assumptions());

    if (R == pb::SolveStatus::Sat) {
      ModuloSchedule Sched = F.decode();
      // Every PB schedule is independently re-verified; a failure here
      // means an encoding bug and must never be reported as a result.
      if (std::optional<std::string> Err =
              verifySchedule(G, M, Sched, F.maxTime())) {
        std::fprintf(stderr,
                     "fatal: PB backend produced an invalid schedule: %s\n",
                     Err->c_str());
        std::abort();
      }
      Best = std::move(Sched);
      BestObj = F.evalObjective();
      HaveIncumbent = true;
      if (Hooks && Hooks->OnIncumbent)
        Hooks->OnIncumbent(BestObj, Best);
      if (!F.hasObjective())
        break; // Feasibility answer: done.
      if (!F.pushObjectiveBound(BestObj - 1))
        break; // Bound is root-level unsat: the incumbent is optimal.
      continue;
    }
    if (R == pb::SolveStatus::Unsat) {
      if (HaveIncumbent && LastInjected >= BestObj)
        break; // No better schedule exists: the incumbent is optimal.
      if (LastInjected != INT64_MAX) {
        // An injected cross-engine cutoff tighter than any incumbent of
        // ours is what was refuted: the shared incumbent is the optimum
        // and the coordinator commits it. Not an infeasible II.
        Hooks->RefutedBelowExternal = true;
        Attempt.Status = MipStatus::Infeasible;
        return std::nullopt;
      }
      Attempt.Status = MipStatus::Infeasible;
      return std::nullopt; // Proved infeasible at this II.
    }
    if (R == pb::SolveStatus::Cancelled) {
      // Mirrors the ILP path: a cancelled solve yields no verdict, and
      // no possibly-unproven incumbent escapes it.
      Attempt.Status = MipStatus::Cancelled;
      Attempt.Cancelled = true;
      return std::nullopt;
    }
    // Limit: deadline or conflict budget, attributed like the ILP's
    // HitTimeLimit / HitNodeLimit pair.
    Attempt.Status = MipStatus::Limit;
    if (BoundedNodes && ConflictsLeft() <= 0)
      Stats.NodeLimitHit = true;
    else
      Stats.TimedOut = true;
    return std::nullopt;
  }

  Attempt.Status = MipStatus::Optimal;
  Stats.Variables = F.numVariables();
  Stats.Constraints = F.numConstraints();
  Stats.SecondaryObjective = double(BestObj);
  Attempt.Scheduled = true;
  if (Opts.Explain) {
    // The PB backend proves optimality by exhausting the bound descent;
    // there is no numeric relaxation bound to audit against.
    OptimalityAudit A;
    A.FinalObjective = double(BestObj);
    A.Proof = F.hasObjective() ? "optimal" : "first_solution";
    Attempt.Audit = std::move(A);
  }
  return Best;
}
