//===- lp/Simplex.cpp - LP solve front end --------------------------------===//
//
// SimplexSolver's solve flow over the sparse revised simplex engine
// (lp/SparseRevisedSimplex.cpp): the empty-interval pre-check, the warm
// attempt with its cold fallback, telemetry, and basis export.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "lp/SolveContext.h"
#include "lp/SparseRevisedSimplex.h"
#include "support/Telemetry.h"

#include <cassert>
#include <memory>

namespace {

// Telemetry: aggregate solver-stack counters (MODSCHED_STATS=1) and the
// simplex phase timer (clock only read when telemetry is enabled).
modsched::telemetry::Counter StatSolves("lp", "simplex.solves",
                                        "LP solves performed");
modsched::telemetry::Counter StatIterations("lp", "simplex.iterations",
                                            "total simplex pivots");
modsched::telemetry::Counter
    StatDegenerate("lp", "simplex.degenerate_pivots",
                   "pivots with ~zero step length");
modsched::telemetry::Counter StatFlips("lp", "simplex.bound_flips",
                                       "entering-variable bound flips");
modsched::telemetry::Counter
    StatRefactor("lp", "simplex.refactorizations",
                 "sparse LU factorizations, summed per solve");
modsched::telemetry::Counter StatInfeasible("lp", "simplex.infeasible",
                                            "LP solves proved infeasible");
modsched::telemetry::Counter
    StatWarmSolves("lp", "warm_solves",
                   "LP solves warm-started from a basis (dual simplex)");
modsched::telemetry::Counter
    StatWarmIterations("lp", "warm_iterations",
                       "simplex pivots inside warm-started solves");
modsched::telemetry::Counter
    StatColdSolves("lp", "cold_solves",
                   "LP solves from scratch (two-phase primal)");
modsched::telemetry::Counter
    StatWarmFallbacks("lp", "warm_fallbacks",
                      "warm-start attempts that fell back to a cold solve");
modsched::telemetry::PhaseTimer TimeSolve("lp", "simplex.solve",
                                          "wall time in LP solves");

} // namespace

using namespace modsched;
using namespace modsched::lp;

const char *lp::toString(LpStatus Status) {
  switch (Status) {
  case LpStatus::Optimal:
    return "optimal";
  case LpStatus::Infeasible:
    return "infeasible";
  case LpStatus::Unbounded:
    return "unbounded";
  case LpStatus::IterationLimit:
    return "iteration-limit";
  }
  return "unknown";
}

namespace {

/// Copies \p E's effort counters and (when optimal) solution into a
/// fresh LpResult and adds them to the lp/* counters.
LpResult collectResult(const SparseRevisedSimplex &E, LpStatus S,
                       const Model &M) {
  LpResult Result;
  Result.Iterations = E.iterations();
  Result.DegeneratePivots = E.degeneratePivots();
  Result.BoundFlips = E.boundFlips();
  Result.Refactorizations = E.refactorizations();
  Result.Phase1Iterations = E.phase1Iterations();
  Result.DualIterations = E.dualIterations();
  Result.EtaNonzeros = E.etaNonzeros();
  Result.Status = S;

  StatIterations += Result.Iterations;
  StatDegenerate += Result.DegeneratePivots;
  StatFlips += Result.BoundFlips;
  StatRefactor += Result.Refactorizations;
  if (S == LpStatus::Infeasible)
    ++StatInfeasible;
  if (S == LpStatus::Optimal) {
    Result.Values = E.structuralValues();
    Result.Objective = M.evaluateObjective(Result.Values);
  }
  return Result;
}

/// The production solve flow: warm attempt (with cold fallback), the
/// matching run loop, telemetry, and basis export. \p Persistent means
/// \p E lives in a caller's workspace, which is what makes an exported
/// basis reusable.
LpResult solveSparse(SparseRevisedSimplex &E, const Model &M,
                     const std::vector<double> &Lower,
                     const std::vector<double> &Upper,
                     const SimplexOptions &Opts, SolveContext *Ctx,
                     const Basis *Start, bool Persistent) {
  E.setContext(Ctx);

  bool Warm = false;
  if (Persistent && Start && !Start->empty()) {
    Warm = E.tryInitWarm(M, Lower, Upper, *Start, Opts);
    if (!Warm)
      ++StatWarmFallbacks;
  }

  LpStatus S;
  if (Warm) {
    S = E.runWarm();
    ++StatWarmSolves;
  } else {
    E.initCold(M, Lower, Upper, Opts);
    S = E.run();
    ++StatColdSolves;
  }

  LpResult Result = collectResult(E, S, M);
  Result.WarmStarted = Warm;
  if (Warm)
    StatWarmIterations += Result.Iterations;
  if (!Persistent)
    return Result;

  // Export the optimal basis for future warm starts; the stamp ties it
  // to the persisted engine state.
  if (S == LpStatus::Optimal && E.extractBasis(Result.FinalBasis))
    E.stamp(Result.FinalBasis);
  else
    E.invalidateStamp();
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// SimplexWorkspace
//===----------------------------------------------------------------------===//

SimplexWorkspace::SimplexWorkspace()
    : Sparse(std::make_unique<SparseRevisedSimplex>()) {}
SimplexWorkspace::~SimplexWorkspace() = default;
SimplexWorkspace::SimplexWorkspace(SimplexWorkspace &&) noexcept = default;
SimplexWorkspace &
SimplexWorkspace::operator=(SimplexWorkspace &&) noexcept = default;

//===----------------------------------------------------------------------===//
// SimplexSolver
//===----------------------------------------------------------------------===//

LpResult SimplexSolver::solve(const Model &M) {
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  return solve(M, Lower, Upper);
}

LpResult SimplexSolver::solve(const Model &M,
                              const std::vector<double> &Lower,
                              const std::vector<double> &Upper,
                              SolveContext *Ctx, const Basis *Start) {
  assert(static_cast<int>(Lower.size()) == M.numVariables() &&
         static_cast<int>(Upper.size()) == M.numVariables() &&
         "bounds arrays must cover every variable");
  telemetry::TimerScope Time(TimeSolve);
  ++StatSolves;

  // An empty bound interval anywhere makes the node trivially infeasible.
  for (int Col = 0; Col < M.numVariables(); ++Col)
    if (Lower[Col] > Upper[Col]) {
      ++StatInfeasible;
      return LpResult(); // Status defaults to Infeasible.
    }

  // Context-less calls get a one-shot local engine (and no deadline or
  // cancellation to observe).
  if (Ctx)
    return solveSparse(*Ctx->Workspace.Sparse, M, Lower, Upper, Opts, Ctx,
                       Start, /*Persistent=*/true);
  SparseRevisedSimplex Local;
  return solveSparse(Local, M, Lower, Upper, Opts, nullptr, Start,
                     /*Persistent=*/false);
}
