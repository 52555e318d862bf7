//===- ilpsched/Attempt.cpp - ILP and PB attempts -------------------------===//

#include "ilpsched/Attempt.h"

#include "ilpsched/Formulation.h"
#include "ilpsched/PbFormulation.h"
#include "lp/SolveContext.h"
#include "sched/Verifier.h"
#include "support/Timer.h"

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
  MipOpts.CollectTrajectory = Opts.Explain;
  MipSolver Solver(MipOpts);

  // A fresh workspace per attempt; MipSolver folds TimeBudget into the
  // context's deadline.
  lp::SolveContext Ctx;
  Ctx.Cancel = C.Cancel;
  MipResult R = Solver.solve(F.model(), Ctx);
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

  if (R.Status == MipStatus::Cancelled) {
    // The caller's token stopped the search. No verdict about this II;
    // in particular no half-decoded schedule ever escapes a cancelled
    // solve.
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
  if (!R.HasSolution)
    return std::nullopt; // Proved infeasible at this II.

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

  PbFormulation F(G, M, C.Frame, C.P.options());
  assert(F.valid() && "attempts are dispatched on valid frames only");
  Attempt.Variables = F.numVariables();
  Attempt.Constraints = F.numConstraints();

  pb::Solver &S = F.solver();
  if (C.TimeBudget < 1e29)
    S.DeadlineSeconds = monotonicSeconds() + C.TimeBudget;
  S.Cancel = C.Cancel;

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
      if (!F.hasObjective())
        break; // Feasibility answer: done.
      if (!F.pushObjectiveBound(BestObj - 1))
        break; // Bound is root-level unsat: the incumbent is optimal.
      continue;
    }
    if (R == pb::SolveStatus::Unsat) {
      if (HaveIncumbent)
        break; // No better schedule exists: the incumbent is optimal.
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
