//===- lp/Simplex.h - Bounded-variable simplex solver ------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LP solver underneath the branch-and-bound MIP solver (src/ilp)
/// that substitutes for the CPLEX solver used in the paper, including
/// CPLEX's defining trick of never cold-starting an LP inside the
/// branch-and-bound tree.
///
/// SimplexSolver runs one engine, the sparse revised simplex
/// (lp/SparseRevisedSimplex.h): a two-phase bounded-variable primal
/// simplex for cold solves and a dual simplex for warm re-solves. An
/// optimal solve given a SolveContext exports its Basis; a later solve
/// of the same model with tightened bounds (exactly the state after a
/// branch-and-bound bound change) restarts from that basis, which is
/// still dual-feasible, and runs the dual simplex until primal
/// feasibility is restored, typically in a handful of pivots. The LP
/// differential tests check it against a cold dense tableau that lives
/// in tests/DenseSimplex.cpp and follows the same conventions.
///
/// Conventions:
///  * Every constraint row gets a slack variable with bounds encoding the
///    sense (LE: [0, inf), GE: (-inf, 0], EQ: [0, 0]); the system becomes
///    Ax + Is = b.
///  * Nonbasic variables rest at one of their finite bounds (or 0 when
///    free); phase 1 introduces artificial columns only for rows whose
///    slack cannot absorb the initial residual, and minimizes the sum of
///    artificials.
///  * Pricing is Dantzig (most negative reduced cost, scanning a
///    candidate list first) with an automatic switch to Bland's rule
///    after a run of degenerate pivots, which guarantees termination.
///  * The ratio test handles bound flips of the entering variable.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_LP_SIMPLEX_H
#define MODSCHED_LP_SIMPLEX_H

#include "lp/Model.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace modsched {
namespace lp {

struct SolveContext; // lp/SolveContext.h

/// Outcome of an LP solve.
enum class LpStatus {
  Optimal,       ///< Optimal basic solution found.
  Infeasible,    ///< Constraints admit no solution.
  Unbounded,     ///< Objective can decrease without limit.
  IterationLimit ///< Gave up: pivot cap, context deadline or cancellation.
};

/// Returns a printable name for \p Status.
const char *toString(LpStatus Status);

/// The LP engine. SparseRevised, the revised simplex over a compiled
/// sparse matrix with an LU-factorized basis and eta updates
/// (lp/SparseRevisedSimplex.h), is the only one; the enum stays only
/// while bench/e2e/Ladder.cpp copies SchedulerOptions::LpEngine into
/// SimplexOptions::Engine.
enum class SimplexEngine : uint8_t { SparseRevised };

/// Where a column rests in a simplex basis (Basis::ColStatus stores
/// these raw values).
enum class ColState : uint8_t { Basic, AtLower, AtUpper, Free };

/// Primal feasibility tolerance: how far a basic value may sit outside
/// its bounds, and the step length below which a pivot counts as
/// degenerate.
inline constexpr double FeasibilityTolerance = 1e-7;

/// Reduced-cost optimality tolerance: a nonbasic column prices as an
/// improving candidate only beyond it.
inline constexpr double OptimalityTolerance = 1e-7;

/// Smallest acceptable pivot magnitude in the ratio tests and the LU
/// factorization.
inline constexpr double PivotTolerance = 1e-8;

/// Consecutive degenerate pivots after which a solve switches to Bland's
/// anti-cycling rule.
inline constexpr int DegenerateLimit = 512;

/// Budget of one solve. The tolerances and the refactorization policy
/// are constants (above and in lp/SparseRevisedSimplex.cpp); a solve's
/// wall-clock budget is the SolveContext deadline.
struct SimplexOptions {
  /// Hard cap on total pivots (both phases).
  int64_t MaxIterations = 200000;
  /// No behaviour: nothing reads it (see SimplexEngine).
  SimplexEngine Engine = SimplexEngine::SparseRevised;
};

/// An exported simplex basis: the resting status of every [structural |
/// slack] column plus the basic column of each row. Treat as opaque —
/// the fields are only meaningful to SimplexSolver::solve, and only for
/// re-solves of the same model (same constraints; bounds may differ).
/// Produced by an optimal solve that was given a SolveContext.
struct Basis {
  /// Per-column resting status (internal encoding), structural columns
  /// first, then one slack per row.
  std::vector<uint8_t> ColStatus;
  /// BasicCols[row] = column index basic in that row.
  std::vector<int> BasicCols;
  /// Workspace stamp identifying the engine state this basis was
  /// extracted from (0 = none); lets a warm solve detect in O(1) that
  /// the workspace engine already realizes this basis.
  uint64_t Id = 0;

  bool empty() const { return BasicCols.empty(); }
};

class SparseRevisedSimplex; // lp/SparseRevisedSimplex.h

/// Persistent state for a sequence of solves: the compiled
/// matrix, the basis factorization, scratch buffers, and the identity of
/// the basis the engine currently realizes. Hoisting one workspace out
/// of the branch-and-bound node loop eliminates per-node reallocation
/// and enables zero-refactorization warm starts whenever consecutive
/// solves walk parent -> child in the search tree.
class SimplexWorkspace {
public:
  SimplexWorkspace();
  ~SimplexWorkspace();
  SimplexWorkspace(SimplexWorkspace &&) noexcept;
  SimplexWorkspace &operator=(SimplexWorkspace &&) noexcept;
  SimplexWorkspace(const SimplexWorkspace &) = delete;
  SimplexWorkspace &operator=(const SimplexWorkspace &) = delete;

private:
  friend class SimplexSolver;
  std::unique_ptr<SparseRevisedSimplex> Sparse;
};

/// Result of an LP solve.
struct LpResult {
  LpStatus Status = LpStatus::Infeasible;
  /// Objective value (valid when Status == Optimal).
  double Objective = 0.0;
  /// Value of each structural (model) variable.
  std::vector<double> Values;
  /// Number of simplex pivots performed (the paper's "simplex
  /// iterations" metric).
  int64_t Iterations = 0;

  // --- Telemetry detail (see docs/OBSERVABILITY.md) ---
  /// Pivots whose step length was ~0 (degeneracy; a long run of these
  /// triggers the switch to Bland's rule).
  int64_t DegeneratePivots = 0;
  /// Entering-variable bound flips (pivots that changed no basis entry).
  int64_t BoundFlips = 0;
  /// LU factorizations of the basis (cold start, warm rebuild or eta-file
  /// limit).
  int64_t Refactorizations = 0;
  /// Pivots spent in phase 1 (driving artificials out of the basis).
  int64_t Phase1Iterations = 0;
  /// Pivots spent in the warm-start dual simplex (subset of Iterations).
  int64_t DualIterations = 0;
  /// Product-form eta nonzeros appended to the basis factorization.
  int64_t EtaNonzeros = 0;
  /// True when this solve restarted from a caller-provided basis and ran
  /// the dual simplex (false for cold two-phase primal solves, including
  /// warm attempts that had to fall back).
  bool WarmStarted = false;
  /// The optimal basis of this solve, exportable to warm-start a later
  /// solve of the same model with tightened bounds. Only populated when
  /// Status == Optimal and the solve was given a SolveContext; empty
  /// when the final basis is not reusable (e.g. a residual degenerate
  /// artificial could not be pivoted out).
  Basis FinalBasis;
};

/// Bounded-variable simplex: two-phase primal for cold solves, dual
/// simplex for warm re-solves from an exported basis (see file comment).
class SimplexSolver {
public:
  explicit SimplexSolver(SimplexOptions Options = {}) : Opts(Options) {}

  /// Solves \p M (a minimization LP; integrality flags are ignored).
  LpResult solve(const Model &M);

  /// Solves \p M with the variable bounds replaced by \p Lower / \p Upper
  /// (used by branch-and-bound nodes to tighten integer bounds without
  /// copying the whole model).
  ///
  /// \p Ctx, when non-null, supplies the per-attempt solve environment
  /// (lp/SolveContext.h): its workspace persists the engine's state
  /// across calls (and enables FinalBasis export), its deadline
  /// bounds this solve's wall-clock, and its cancellation token is
  /// polled every 64 pivots (both report LpStatus::IterationLimit; the
  /// caller disambiguates by asking the context). \p Start, when
  /// non-null and non-empty, requests a warm start from that basis: the
  /// engine reuses its workspace state in place when it still
  /// realizes the basis (otherwise refactorizes from the constraint
  /// matrix) and runs the dual simplex, which is exact for the
  /// branch-and-bound pattern of a dual-feasible but primal-infeasible
  /// basis after a bound tightening. Falls back to the cold two-phase
  /// primal whenever the basis is unusable (stale shape, singular
  /// refactorization, or dual infeasibility beyond tolerance).
  LpResult solve(const Model &M, const std::vector<double> &Lower,
                 const std::vector<double> &Upper,
                 SolveContext *Ctx = nullptr,
                 const Basis *Start = nullptr);

private:
  SimplexOptions Opts;
};

} // namespace lp
} // namespace modsched

#endif // MODSCHED_LP_SIMPLEX_H
