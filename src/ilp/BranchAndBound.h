//===- ilp/BranchAndBound.h - MIP solver over the simplex -------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A branch-and-bound mixed-integer programming solver built on the
/// simplex in src/lp. It substitutes for the commercial CPLEX solver used
/// in the paper and exposes the two statistics the paper's evaluation
/// revolves around: the number of branch-and-bound nodes visited and the
/// number of simplex iterations performed.
///
/// Node accounting follows CPLEX's convention as read off the paper's
/// tables: a problem whose root LP relaxation is already integral reports
/// 0 nodes; only subproblems created by branching are counted.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILP_BRANCHANDBOUND_H
#define MODSCHED_ILP_BRANCHANDBOUND_H

#include "lp/Model.h"
#include "lp/Simplex.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace modsched {
namespace ilp {

/// Outcome of a MIP solve.
enum class MipStatus {
  Optimal,    ///< Proved optimal (or first solution, when so configured).
  Infeasible, ///< Proved that no integral solution exists.
  Limit,      ///< Stopped on a time/node/iteration budget.
  Cancelled,  ///< Stopped because the SolveContext's token was cancelled.
};

/// Returns a printable name for \p Status.
const char *toString(MipStatus Status);

/// How the branching variable is selected: the variable whose fractional
/// part is closest to 1/2, within the highest branching-priority class
/// that has a fractional member.
enum class BranchRule {
  MostFractional, ///< Fractional part closest to 1/2.
};

/// Kinds of search events reported to a BbObserver (and, when tracing
/// is enabled, to the telemetry sink; see docs/OBSERVABILITY.md).
enum class BbEvent {
  RootLpSolved,   ///< Root relaxation solved (bound in LpObjective).
  NodeVisited,    ///< A branched subproblem was popped from the open list.
  NodeInfeasible, ///< The node's LP (or presolve) proved it infeasible.
  BoundPruned,    ///< Node discarded: LP bound cannot beat the incumbent.
  IncumbentFound, ///< A new best integral solution was accepted.
  Branched,       ///< Two children were pushed (variable in BranchVariable).
  PresolveFixed,  ///< Node presolve fixed >= 1 variable before the LP.
};

/// Returns a printable name for \p Event.
const char *toString(BbEvent Event);

/// Payload of one search event. Fields not meaningful for a given kind
/// hold their listed defaults.
struct BbEventInfo {
  BbEvent Kind = BbEvent::NodeVisited;
  /// Nodes visited so far (CPLEX convention: root excluded, so this is 0
  /// for all root events).
  int64_t Node = 0;
  /// Branching depth of the current node (root = 0).
  int Depth = 0;
  /// Open-list size gauge (subproblems stacked, excluding the current).
  size_t OpenNodes = 0;
  /// LP relaxation objective (RootLpSolved/NodeVisited/BoundPruned/
  /// IncumbentFound); 0 otherwise.
  double LpObjective = 0.0;
  /// Current incumbent objective, or +1e300 before the first solution.
  double Incumbent = 1e300;
  /// Branch variable index (Branched), else -1.
  int BranchVariable = -1;
  /// Variables fixed by node presolve (PresolveFixed), else 0.
  int64_t FixedVariables = 0;
  /// True when the event's node LP was solved by a warm-started dual
  /// simplex from the parent's basis (false before the LP runs, for cold
  /// solves, and for warm attempts that fell back to the cold primal).
  bool Warm = false;
};

/// Observer callback fired synchronously from MipSolver::solve().
/// Observers must not mutate the solver; they exist for tests, tracing,
/// and search visualization.
using BbObserver = std::function<void(const BbEventInfo &)>;

/// Budgets and switches of the branch-and-bound search. Node presolve
/// (bound propagation before every node LP) and LP bound rounding (see
/// MipSolver) always run.
struct MipOptions {
  /// Wall-clock budget in seconds (the paper used 15 minutes per loop),
  /// folded into the SolveContext deadline for the duration of a solve.
  double TimeLimitSeconds = 1e30;
  /// Maximum number of branch-and-bound nodes.
  int64_t NodeLimit = INT64_MAX;
  /// Stop at the first integral solution (the paper's NoObj scheduler
  /// "simply returns the first schedule that it finds").
  bool StopAtFirstSolution = false;
  /// Warm-start each node's LP with the dual simplex from its parent's
  /// optimal basis (ablation knob; the CPLEX behavior the paper relies
  /// on). When false every node LP is a cold two-phase primal solve; the
  /// persistent workspace is used either way, so this isolates the
  /// basis-reuse effect from the allocation hoisting.
  bool WarmStart = true;
  /// Carried for callers that pass SchedulerOptions::Branching through;
  /// MostFractional is the only rule.
  BranchRule Branching = BranchRule::MostFractional;
  /// Record the incumbent/bound trajectory (MipResult::Trajectory) and
  /// the root relaxation bound. Forensics knob, off by default.
  bool CollectTrajectory = false;
  lp::SimplexOptions Lp;
  /// Optional search observer (tests / tracing / visualization). Null by
  /// default; the per-node cost when unset is a single bool test.
  BbObserver Observer;
};

/// One point of a solve's incumbent/bound trajectory (recorded under
/// MipOptions::CollectTrajectory at the root solve and at every
/// incumbent improvement).
struct BoundSample {
  /// Wall-clock seconds into the solve.
  double Seconds = 0.0;
  /// Nodes visited when the sample was taken.
  int64_t Nodes = 0;
  /// Incumbent objective, or +1e300 before the first solution.
  double Incumbent = 1e300;
  /// Best proved lower bound at the sample (the rounded root relaxation
  /// bound; depth-first search does not tighten it mid-solve).
  double Bound = -1e300;
};

/// Result of a MIP solve, including the search statistics reported in the
/// paper's Tables 1 and 2.
struct MipResult {
  MipStatus Status = MipStatus::Infeasible;
  /// True when an integral solution was found (even if Status == Limit).
  bool HasSolution = false;
  double Objective = 0.0;
  std::vector<double> Values;
  /// Branch-and-bound nodes visited (root excluded).
  int64_t Nodes = 0;
  /// Total simplex iterations across all LP solves.
  int64_t SimplexIterations = 0;
  /// Wall-clock seconds spent in solve().
  double Seconds = 0.0;
  /// Why Status == Limit: a deterministic effort budget ran out (nodes,
  /// or one node LP's pivot cap, SimplexOptions::MaxIterations). Kept
  /// apart from wall-clock expiry so censoring is attributed correctly;
  /// both can be true when the checks trip in the same pass.
  bool HitNodeLimit = false;
  /// Why Status == Limit: the wall-clock budget / context deadline
  /// expired, between nodes or inside a node LP.
  bool HitTimeLimit = false;
  /// True when the SolveContext's cancellation token stopped the search
  /// (Status == Cancelled).
  bool Cancelled = false;

  // --- Search telemetry (see docs/OBSERVABILITY.md) ---
  /// Deepest branching depth reached (root = 0).
  int MaxDepth = 0;
  /// Nodes discarded because their LP bound could not beat the incumbent.
  int64_t PrunedNodes = 0;
  /// Nodes proved infeasible (by presolve or by the LP).
  int64_t InfeasibleNodes = 0;
  /// Incumbent improvements (integral solutions accepted).
  int64_t Incumbents = 0;
  /// Variables fixed by node presolve, summed over all nodes.
  int64_t PresolveFixedVariables = 0;
  /// Node LPs solved by the warm-started dual simplex.
  int64_t WarmLpSolves = 0;
  /// Node LPs solved cold by the two-phase primal (root LP, warm-start
  /// fallbacks, and every LP when MipOptions::WarmStart is off).
  int64_t ColdLpSolves = 0;
  /// Simplex iterations spent inside warm-started solves (subset of
  /// SimplexIterations).
  int64_t WarmLpIterations = 0;
  /// LU factorizations of the basis summed over all node LPs.
  int64_t LpRefactorizations = 0;
  /// Product-form eta nonzeros appended across all node LPs.
  int64_t LpEtaNonzeros = 0;

  // --- Forensics (see docs/OBSERVABILITY.md) ---
  /// With MipOptions::CollectTrajectory: true once the root relaxation
  /// solved, making RootBound a valid lower bound on any solution.
  bool HasRootBound = false;
  /// Rounded root relaxation objective (valid when HasRootBound).
  double RootBound = 0.0;
  /// Incumbent/bound trajectory (root solve + incumbent improvements),
  /// in time order. Empty unless MipOptions::CollectTrajectory.
  std::vector<BoundSample> Trajectory;
};

/// Depth-first branch-and-bound with best-bound pruning. Stateless
/// between solves (all mutable solve state lives on the stack or in the
/// caller's SolveContext), so one solver — or many — can run any number
/// of concurrent solves, each under its own context.
///
/// Precondition: the objective is integral at every integral point, as
/// in every scheduling model (it counts registers, buffers or lifetime
/// cycles). The solver rounds each LP bound up to the next integer
/// before pruning, so a model that breaks this may lose its optimum.
class MipSolver {
public:
  explicit MipSolver(MipOptions Options = {}) : Opts(Options) {}

  /// Solves the minimization MIP \p M under \p Ctx: node LPs share the
  /// context's workspace (warm starts), the context deadline is
  /// tightened by MipOptions::TimeLimitSeconds for the duration of this
  /// call, and the cancellation token is polled between nodes (and
  /// inside node LPs), reporting MipStatus::Cancelled when it fires.
  MipResult solve(const lp::Model &M, lp::SolveContext &Ctx) const;

  /// Convenience overload: solves under a fresh local context (fresh
  /// workspace, no outer deadline, never cancelled).
  MipResult solve(const lp::Model &M) const;

private:
  MipOptions Opts;
};

/// Rounds every nearly-integral entry of \p X to the nearest integer
/// (within \p Tol); used to clean LP output before decoding schedules.
void roundIntegralValues(std::vector<double> &X, double Tol = 1e-6);

} // namespace ilp
} // namespace modsched

#endif // MODSCHED_ILP_BRANCHANDBOUND_H
