//===- lp/SparseRevisedSimplex.h - Sparse revised simplex --------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse revised simplex engine for the bounded-variable LPs of the
/// scheduling formulations, and the production engine of
/// SimplexSolver. Where the dense test oracle (tests/DenseSimplex.cpp)
/// carries an explicit m x n tableau and pays O(m*n) per pivot, this
/// engine keeps only:
///
///  * the model's constraint matrix, compiled once per solve sequence
///    into an immutable CSC+CSR SparseMatrix (keyed on the model's
///    mutation revision, so branch-and-bound's out-of-band bound
///    changes never force a recompile);
///  * the basis as an LU factorization with product-form eta updates
///    (lp/LuFactor.h), refactorized when the eta file passes its
///    count/fill thresholds or a pivot is numerically unacceptable;
///  * the reduced-cost vector, maintained incrementally from the
///    BTRAN'd pivot row, with candidate-list partial pricing in place
///    of the full Dantzig scan (and a full-scan Bland mode after a run
///    of degenerate pivots, for termination).
///
/// Per-pivot work is then one sweep over the factor's elimination steps
/// plus the nonzeros actually touched, instead of the dense oracle's
/// O(m*n) tableau update.
///
/// SimplexSolver drives the lifecycle: initCold + run for a cold solve,
/// tryInitWarm + runWarm for a warm one, then extractBasis + stamp to
/// export the optimal basis.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_LP_SPARSEREVISEDSIMPLEX_H
#define MODSCHED_LP_SPARSEREVISEDSIMPLEX_H

#include "lp/LuFactor.h"
#include "lp/Simplex.h"
#include "lp/SparseMatrix.h"

#include <cstdint>
#include <vector>

namespace modsched {
namespace lp {

struct SolveContext; // lp/SolveContext.h

/// Sparse revised simplex engine (see file comment). One instance lives
/// inside each SimplexWorkspace, persisting the compiled matrix, the
/// factorization, and every scratch buffer across a solve sequence;
/// context-less solves use a throwaway local instance.
class SparseRevisedSimplex {
public:
  /// Installs the per-attempt solve environment (deadline +
  /// cancellation), polled every 64 pivots; null detaches.
  void setContext(const SolveContext *Ctx) { CtxP = Ctx; }

  /// Seeds a cold solve: slack/artificial starting basis for phase 1.
  void initCold(const Model &M, const std::vector<double> &Lower,
                const std::vector<double> &Upper, const SimplexOptions &Opts);

  /// Seeds a warm solve from \p B; false means the caller must fall
  /// back to initCold + run. Takes an O(1) reuse path when this engine
  /// still realizes the stamped basis (only the bounds are rebound; the
  /// factorization and reduced costs survive), otherwise refactorizes
  /// the requested basis from the compiled matrix. Fails on shape
  /// mismatch, a singular basis, or dual infeasibility beyond
  /// tolerance.
  bool tryInitWarm(const Model &M, const std::vector<double> &Lower,
                   const std::vector<double> &Upper, const Basis &B,
                   const SimplexOptions &Opts);

  /// Runs phase 1 (if artificials exist) and phase 2.
  LpStatus run();

  /// Dual simplex until primal feasibility, then a primal clean-up
  /// pass. Requires tryInitWarm to have succeeded.
  LpStatus runWarm();

  /// Exports the current (optimal) basis; false when a degenerate
  /// basic artificial cannot be pivoted out.
  bool extractBasis(Basis &Out);

  /// Stamps \p B and this engine's state with a fresh process-unique
  /// identity.
  void stamp(Basis &B);

  /// Marks the engine state as not realizing any exported basis.
  void invalidateStamp() { CurrentStamp = 0; }

  /// Extracts the values of the structural variables.
  std::vector<double> structuralValues() const;

  int64_t iterations() const { return Iters; }
  int64_t degeneratePivots() const { return Degenerate; }
  int64_t boundFlips() const { return Flips; }
  /// LU refactorizations (the sparse meaning of
  /// LpResult::Refactorizations).
  int64_t refactorizations() const { return Refactors; }
  int64_t phase1Iterations() const { return Phase1Iters; }
  int64_t dualIterations() const { return DualIters; }
  /// Product-form eta nonzeros appended during this solve.
  int64_t etaNonzeros() const { return EtaNnzTotal; }

private:
  /// Per-solve bookkeeping shared by initCold / tryInitWarm.
  void beginSolve(const Model &M, const SimplexOptions &Opts);

  /// Compiles the constraint matrix if stale and lays out bounds,
  /// objective, slack senses, and row RHS for \p M (no artificials).
  void layoutColumns(const Model &M, const std::vector<double> &Lower,
                     const std::vector<double> &Upper);

  /// Applies \p F(row, value) to every entry of column \p Col
  /// ([structural | slack | artificial] layout).
  template <typename FnT> void forEachColEntry(int Col, FnT &&F) const {
    if (Col < NumStruct) {
      for (int P = A.ColStart[Col]; P < A.ColStart[Col + 1]; ++P)
        F(A.RowIndex[P], A.Value[P]);
    } else if (Col < FirstArtificial) {
      F(Col - NumStruct, 1.0);
    } else {
      const int K = Col - FirstArtificial;
      F(ArtRow[K], ArtSign[K]);
    }
  }

  /// Why the basis is (re)factorized; each successful factorization
  /// counts under exactly one lp/factor.refactor_* counter.
  enum class RefactorCause {
    Cold,     ///< The slack/artificial starting basis of a cold solve.
    Warm,     ///< tryInitWarm rebuilding a requested basis.
    EtaCount, ///< The eta file reached MaxEtaUpdates.
    EtaFill,  ///< The eta file's nonzeros passed the fill guard.
    EtaPivot, ///< The eta update rejected its pivot.
  };

  /// Gathers the basis columns and (re)factorizes; false on a singular
  /// basis. Resets the eta file and the pivots-since-factor clock.
  bool factorizeBasis(RefactorCause Cause);

  /// Recomputes every basic value XB = B^-1 (b - N x_N), flushing the
  /// drift accumulated by incremental pivot updates.
  void refreshBasicValues();

  /// Rebuilds the full reduced-cost vector Dj from the current Cost
  /// row via one BTRAN of the basic costs.
  void rebuildDj();

  /// Computes AlphaRow = row \p LeaveRow of B^-1 A (all columns) from
  /// one BTRAN of the unit vector; Rho keeps the BTRAN image for reuse.
  void computeAlphaRow(int LeaveRow);

  /// Shared pivot commitment: incremental Dj update from AlphaRow, the
  /// LU eta update from WCol, and the refactorization policy. Requires
  /// AlphaRow/WCol for the pre-pivot basis and BasisCol/Status/XB to
  /// already reflect the exchange. False on an unrecoverable numerical
  /// failure.
  bool commitPivot(int LeaveRow, int Enter);

  /// Primal pricing score of \p Col (0 when ineligible).
  double score(int Col) const;

  /// How the primal loop prices entering columns. Escalates on
  /// degenerate streaks: candidate-list partial pricing by default, a
  /// full Dantzig scan (the dense oracle's only rule) once a streak shows
  /// the candidate window is stalling, and Bland's smallest-index
  /// anti-cycling rule past lp::DegenerateLimit.
  enum class Pricing { Partial, Dantzig, Bland };

  /// Entering column for the primal loop under \p Mode. -1 at
  /// optimality.
  int chooseEntering(Pricing Mode);

  /// Primal simplex loop with the current cost row.
  LpStatus primalIterate(bool PhaseOne);

  /// Dual simplex loop until primal feasibility.
  LpStatus dualIterate();

  /// Re-rests nonbasic columns whose resting bound is no longer finite
  /// (or free columns that gained finite bounds).
  void snapNonbasicToBounds();

  /// True when every nonbasic reduced cost has the required sign.
  bool dualFeasible() const;

  /// Resting value of nonbasic column \p Col.
  double restingValue(int Col) const;

  /// Pivot/deadline/cancellation budget, polled every 64 pivots.
  bool budgetExceeded() const;

  /// Publishes the LuFactor solve tallies accumulated since the last
  /// flush to the lp/factor.* telemetry counters.
  void flushFactorStats();

  const SimplexOptions *OptsP = nullptr;
  const Model *ModelP = nullptr;
  const SolveContext *CtxP = nullptr;

  SparseMatrix A; ///< Compiled constraint matrix (persists solves).
  LuFactor Lu;    ///< Factorized basis + eta file.

  int NumRows = 0;
  int NumStruct = 0;
  int FirstArtificial = 0; ///< == NumStruct + NumRows.
  int NumCols = 0;         ///< structural + slack + artificial.

  std::vector<double> Lo, Up;    ///< Column bounds.
  std::vector<double> Obj;       ///< Model objective (structural).
  std::vector<double> Cost;      ///< Current-phase costs, all columns.
  std::vector<double> Dj;        ///< Reduced costs, all columns.
  std::vector<ColState> Status;  ///< Per-column status.
  std::vector<int> BasisCol;     ///< BasisCol[row] = basic column.
  std::vector<double> XB;        ///< Value of BasisCol[row].
  std::vector<double> RowRhs;    ///< Constraint right-hand sides.
  std::vector<int> ArtRow;       ///< Constraint row per artificial.
  std::vector<double> ArtSign;   ///< +-1 column sign per artificial.

  /// Scratch (persist across pivots; cleared, never reallocated).
  ScatteredVector WCol;     ///< FTRAN of the entering column.
  ScatteredVector Rho;      ///< BTRAN of the leaving unit vector.
  ScatteredVector AlphaRow; ///< Pivot row over all columns.
  ScatteredVector RhsWork;  ///< refreshBasicValues right-hand side.
  std::vector<int> BStart, BRows; ///< Basis gather buffers.
  std::vector<double> BVals;
  std::vector<int> CandList; ///< Partial-pricing candidate list.
  int ScanCursor = 0;        ///< Rotating pricing-scan position.

  int64_t Iters = 0;
  int64_t Degenerate = 0;
  int64_t Flips = 0;
  int64_t Refactors = 0;
  int64_t Phase1Iters = 0;
  int64_t DualIters = 0;
  int64_t EtaNnzTotal = 0;
  int64_t PivotsSinceFactor = 0;
  /// Id of the exported basis this engine state realizes (0 = none).
  uint64_t CurrentStamp = 0;
  /// LuFactor tally marks for flushFactorStats deltas.
  uint64_t FtranMark = 0;
  uint64_t BtranMark = 0;
};

} // namespace lp
} // namespace modsched

#endif // MODSCHED_LP_SPARSEREVISEDSIMPLEX_H
