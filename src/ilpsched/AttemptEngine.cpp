//===- ilpsched/AttemptEngine.cpp - ILP and PB attempt engines ------------===//

#include "ilpsched/AttemptEngine.h"

#include "ilpsched/Formulation.h"
#include "ilpsched/PbFormulation.h"
#include "lp/SolveContext.h"
#include "sched/Verifier.h"
#include "support/Telemetry.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace modsched;
using namespace modsched::ilp;

AttemptEngine::~AttemptEngine() = default;

namespace {

telemetry::Counter StatExplainCycle("ilpsched", "explain.cycle_witnesses",
                                    "Infeasible IIs explained by a "
                                    "recurrence cycle");
telemetry::Counter StatExplainResource("ilpsched",
                                       "explain.resource_witnesses",
                                       "Infeasible IIs explained by a "
                                       "saturated resource");
telemetry::Counter StatExplainWindow("ilpsched", "explain.window_witnesses",
                                     "Infeasible IIs explained by an empty "
                                     "schedule window");
telemetry::Counter StatExplainNone("ilpsched", "explain.unexplained",
                                   "Infeasible IIs with no checkable "
                                   "witness");

/// Verifies \p E against the graph/machine arithmetic, bumps the witness
/// counters, and attaches it to \p Attempt. A nullopt (or a witness of
/// kind None) counts as unexplained and attaches nothing.
void attachExplanation(const DependenceGraph &G, const MachineModel &M,
                       int II, int Slack, IiAttempt &Attempt,
                       std::optional<Explanation> E) {
  if (!E || E->Kind == WitnessKind::None) {
    ++StatExplainNone;
    return;
  }
  E->Verified = checkExplanation(G, M, II, Slack, *E);
  switch (E->Kind) {
  case WitnessKind::RecurrenceCycle:
    ++StatExplainCycle;
    break;
  case WitnessKind::ResourceSaturation:
    ++StatExplainResource;
    break;
  case WitnessKind::ScheduleWindow:
    ++StatExplainWindow;
    break;
  case WitnessKind::None:
    break;
  }
  Attempt.Explain = std::move(*E);
}

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

/// PB-backend infeasibility forensics: re-encodes the attempt with every
/// dependence edge and modeled resource gated behind a selector (the
/// objective machinery is dropped — it cannot cause primary
/// infeasibility — but a RegisterLimit constraint is kept), solves under
/// the group assumptions, and maps the unsat core's origins to a
/// witness. Falls back to pure graph analysis whenever the re-solve
/// yields no usable core (deadline expiry, empty core, unmappable
/// evidence).
std::optional<Explanation> explainPbUnsat(const DependenceGraph &G,
                                          const MachineModel &M, int II,
                                          const FormulationOptions &FOpts,
                                          lp::SolveContext &C) {
  FormulationOptions ExOpts = FOpts;
  ExOpts.Obj = Objective::None;
  PbFormulation F(G, M, II, ExOpts, /*ExplainGroups=*/true);
  if (F.valid()) {
    pb::Solver &S = F.solver();
    S.DeadlineSeconds = C.DeadlineSeconds;
    S.Cancel = C.Cancel;
    if (S.solve(F.explainAssumptions()) == pb::SolveStatus::Unsat) {
      std::vector<RowOrigin> Core = F.coreOrigins();
      if (!Core.empty())
        if (std::optional<Explanation> E =
                explainFromOrigins(G, M, II, FOpts.ScheduleLengthSlack, Core,
                                   ExplainSource::UnsatCore))
          return E;
    }
  }
  return explainInfeasibleIi(G, M, II, FOpts.ScheduleLengthSlack);
}

} // namespace

//===----------------------------------------------------------------------===//
// IlpEngine
//===----------------------------------------------------------------------===//

bool IlpEngine::supports(const Problem &, int) const {
  return true; // The ILP formulation encodes every option combination.
}

bool IlpEngine::worthRacing(const Problem &P, int II) const {
  // Tiny feasibility instance: the CDCL engine decides these orders of
  // magnitude faster than a B&B warm-up (EXPERIMENTS.md E11), so the
  // ILP sits out of the race and lets PB run inline. 0 disables.
  if (P.options().Obj == Objective::None && Opts.PortfolioIlpMinPbVars > 0 &&
      P.graph().numOperations() * II <= Opts.PortfolioIlpMinPbVars)
    return false;
  return true;
}

std::optional<ModuloSchedule>
IlpEngine::solveAttempt(AttemptContext &C) const {
  assert(supports(C.P, C.II) && "seam dispatched an unsupported attempt");
  const DependenceGraph &G = C.P.graph();
  const MachineModel &M = C.P.machine();
  const FormulationOptions &FOpts = C.P.options();
  const int II = C.II;
  ScheduleResult &Stats = C.Stats;
  IiAttempt &Attempt = C.Attempt;
  PortfolioEngineHooks *Hooks = C.Hooks;

  Formulation F(G, M, II, FOpts);
  Attempt.Variables = F.model().numVariables();
  Attempt.Constraints = F.model().numConstraints();
  const int Slack = FOpts.ScheduleLengthSlack;
  if (!F.valid()) {
    Attempt.WindowInfeasible = true;
    if (Opts.Explain)
      attachExplanation(G, M, II, Slack, Attempt,
                        explainInfeasibleIi(G, M, II, Slack));
    return std::nullopt; // II infeasible within the window budget.
  }

  MipOptions MipOpts;
  MipOpts.TimeLimitSeconds = C.TimeBudget;
  MipOpts.NodeLimit = Opts.NodeLimit - Stats.budgetNodes();
  MipOpts.Branching = Opts.Branching;
  MipOpts.StopAtFirstSolution = FOpts.Obj == Objective::None;
  MipOpts.WarmStart = Opts.WarmStart;
  MipOpts.Lp.Engine = Opts.LpEngine;
  MipOpts.CollectFarkas = Opts.Explain;
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

  // Solve under the caller's context (parallel race slots bring their
  // own, wired to a cancellation source) or a fresh local one — the
  // latter is exactly the historical sequential behavior.
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
    // The caller's token stopped the search (e.g. a lower-II sibling in
    // a parallel race won). No verdict about this II; in particular no
    // half-decoded schedule ever escapes a cancelled solve.
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
    if (Hooks && R.UsedExternalBound) {
      // Pruning against the shared cell means only "no solution strictly
      // better than the other engine's incumbent" was proved, not model
      // infeasibility — the coordinator commits that incumbent as the
      // optimum. No infeasibility witness applies.
      Hooks->RefutedBelowExternal = true;
      return std::nullopt;
    }
    // Proved infeasible at this II. Map the node LPs' Farkas evidence
    // through the formulation's provenance table into a graph witness;
    // fall back to pure graph analysis when the search never ran an LP
    // (root presolve infeasibility) or the support does not localize.
    if (Opts.Explain) {
      std::vector<RowOrigin> Support;
      const std::vector<RowOrigin> &Origins = F.rowOrigins();
      for (int Row : R.FarkasRows)
        if (Row >= 0 && size_t(Row) < Origins.size())
          Support.push_back(Origins[size_t(Row)]);
      std::optional<Explanation> E;
      if (!Support.empty())
        E = explainFromOrigins(G, M, II, Slack, Support,
                               ExplainSource::FarkasRay);
      if (!E)
        E = explainInfeasibleIi(G, M, II, Slack);
      attachExplanation(G, M, II, Slack, Attempt, std::move(E));
    }
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
// PbEngine
//===----------------------------------------------------------------------===//

bool PbEngine::supports(const Problem &P, int) const {
  return PbFormulation::supports(P.options());
}

bool PbEngine::worthRacing(const Problem &P, int II) const {
  // MinLife rows carry objective/lifetime coefficients that scale with
  // II; past the width threshold the CDCL engine's cardinality
  // reasoning degrades into slow generic PB arithmetic and it never
  // wins the race — don't burn a worker on it.
  if (P.options().Obj == Objective::MinLife &&
      II > Opts.PortfolioPbCoeffLimit)
    return false;
  return true;
}

std::optional<ModuloSchedule>
PbEngine::solveAttempt(AttemptContext &C) const {
  assert(supports(C.P, C.II) &&
         "seam dispatched a PB attempt the encoding cannot express");
  const DependenceGraph &G = C.P.graph();
  const MachineModel &M = C.P.machine();
  const FormulationOptions &FOpts = C.P.options();
  const int II = C.II;
  ScheduleResult &Stats = C.Stats;
  IiAttempt &Attempt = C.Attempt;
  PortfolioEngineHooks *Hooks = C.Hooks;

  PbFormulation F(G, M, II, FOpts);
  Attempt.Variables = F.numVariables();
  Attempt.Constraints = F.numConstraints();
  const int Slack = FOpts.ScheduleLengthSlack;
  if (!F.valid()) {
    Attempt.WindowInfeasible = true;
    if (Opts.Explain)
      attachExplanation(G, M, II, Slack, Attempt,
                        explainInfeasibleIi(G, M, II, Slack));
    return std::nullopt; // II infeasible within the window budget.
  }

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
      if (Opts.Explain)
        attachExplanation(G, M, II, Slack, Attempt,
                          explainPbUnsat(G, M, II, FOpts, Ctx));
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
