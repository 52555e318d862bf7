//===- lp/LuFactor.h - LU-factorized basis with eta updates ------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse LU factorization of a simplex basis, with product-form eta
/// updates between refactorizations.
///
/// The factorization is P·B·Q = L·U computed by left-looking
/// Gilbert-Peierls elimination with threshold-Markowitz pivoting:
/// columns are preordered by ascending nonzero count, and each step
/// picks — among numerically eligible rows (|x| within a factor 10 of
/// the column max) — the row with the fewest static nonzeros, which
/// keeps fill-in near zero on the paper's {-1, 0, +1} matrices.
///
/// Basis exchanges append product-form eta vectors (`update`): with
/// B_t = B_{t-1}·E_t, FTRAN applies the LU solve then the eta inverses
/// in order, BTRAN applies the eta transpose-inverses in reverse order
/// then the LU transpose solve. The owner refactorizes when the eta
/// file grows past its thresholds (see SparseRevisedSimplex).
///
/// Index spaces: FTRAN maps a vector indexed by *constraint row* (a
/// column of A) to one indexed by *basis position*; BTRAN maps basis
/// position to constraint row. Each triangular solve is one ordered
/// sweep over the elimination steps, skipping steps that hold an exact
/// zero. The sweep is not pruned to the steps reachable from the
/// right-hand side: on the scheduling models the solved vectors are
/// nearly dense (~114 eta nonzeros per pivot at ~128 rows), so finding
/// and sorting the reached steps costs more than it skips
/// (EXPERIMENTS.md E13).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_LP_LUFACTOR_H
#define MODSCHED_LP_LUFACTOR_H

#include <cstdint>
#include <utility>
#include <vector>

namespace modsched {
namespace lp {

/// Sparse vector with dense random access, an explicit (unordered)
/// nonzero index list, and O(nnz) clearing. The dense array is all
/// zeros outside the index list, so reads never need the membership
/// flag; writes go through add/set to keep the list consistent.
struct ScatteredVector {
  std::vector<double> Val;
  std::vector<char> In;
  std::vector<int> Idx;

  /// Clears and resizes to dimension \p N.
  void resize(int N) {
    clear();
    Val.assign(N, 0.0);
    In.assign(N, 0);
  }

  /// Removes every nonzero in O(nnz).
  void clear() {
    for (int I : Idx) {
      Val[I] = 0.0;
      In[I] = 0;
    }
    Idx.clear();
  }

  /// Accumulates \p V into position \p I.
  void add(int I, double V) {
    if (!In[I]) {
      In[I] = 1;
      Idx.push_back(I);
      Val[I] = V;
    } else {
      Val[I] += V;
    }
  }

  /// Overwrites position \p I with \p V.
  void set(int I, double V) {
    if (!In[I]) {
      In[I] = 1;
      Idx.push_back(I);
    }
    Val[I] = V;
  }

  int size() const { return static_cast<int>(Val.size()); }
  int nonzeros() const { return static_cast<int>(Idx.size()); }
};

/// LU-factorized basis representation (see file comment).
class LuFactor {
public:
  /// Factors the Dim x Dim basis given in CSC form: column \p C of the
  /// basis occupies positions [ColStart[C], ColStart[C+1]) of
  /// \p Rows / \p Vals, where row indices are constraint rows and the
  /// column order is basis-position order. Returns false (and leaves
  /// the factorization invalid) if the matrix is numerically singular
  /// at \p MinPivot. Resets the eta file and the solve tallies'
  /// high-water bookkeeping is left to the caller.
  bool factor(int Dim, const std::vector<int> &ColStart,
              const std::vector<int> &Rows, const std::vector<double> &Vals,
              double MinPivot);

  /// Solves B·x = b in place: \p X enters indexed by constraint row
  /// and leaves indexed by basis position.
  void ftran(ScatteredVector &X);

  /// Solves B^T·y = c in place: \p X enters indexed by basis position
  /// and leaves indexed by constraint row.
  void btran(ScatteredVector &X);

  /// Records the basis exchange "position \p Pos leaves, a column with
  /// FTRAN image \p W enters" as a product-form eta. Returns false —
  /// leaving the factorization unchanged — when |W[Pos]| <= MinPivot,
  /// in which case the caller must refactorize.
  bool update(int Pos, const ScatteredVector &W, double MinPivot);

  /// Marks the factorization stale (e.g. after the basis changed
  /// without a successful update).
  void invalidate() { Valid = false; }

  bool valid() const { return Valid; }
  int dim() const { return Dim; }

  /// Number of eta vectors appended since the last factor().
  int etaCount() const { return static_cast<int>(EtaPos.size()); }
  /// Total stored eta entries (pivots included).
  int etaNonzeros() const {
    return static_cast<int>(EtaIdx.size() + EtaPos.size());
  }
  /// Stored L+U entries, diagonal included.
  int factorNonzeros() const {
    return static_cast<int>(LRow.size() + URow.size()) + Dim;
  }
  /// factorNonzeros() minus the basis' own nonzero count.
  int fillNonzeros() const { return Fill; }

  /// Solve tallies for telemetry; owned by the caller (read deltas or
  /// zero between solves), never reset by this class' methods except
  /// that they keep counting across factor() calls.
  uint64_t Ftrans = 0;
  uint64_t Btrans = 0;

private:
  int Dim = 0;
  bool Valid = false;
  int Fill = 0;

  /// RowOf[k] = constraint row pivoted at step k; Pinv its inverse.
  std::vector<int> RowOf, Pinv;
  /// ColOf[k] = basis position eliminated at step k; StepOfPos inverse.
  std::vector<int> ColOf, StepOfPos;

  /// L columns (unit diagonal implicit), row indices in constraint-row
  /// space; column k holds the multipliers of elimination step k.
  std::vector<int> LStart, LRow;
  std::vector<double> LVal;
  /// U columns; URow holds *step* indices j < k, diagonal separate.
  std::vector<int> UStart, URow;
  std::vector<double> UVal;
  std::vector<double> UDiag;

  /// Row (transposed) forms, built once after factorization so BTRAN
  /// can run saxpy-style: Lt row k lists (step j < k, multiplier) for
  /// constraint row RowOf[k]; Ut row k lists (step j > k, value).
  std::vector<int> LtStart, LtCol;
  std::vector<double> LtVal;
  std::vector<int> UtStart, UtCol;
  std::vector<double> UtVal;

  /// Product-form eta file, in application order. Eta e replaces basis
  /// position EtaPos[e]; EtaPivot[e] is the pivot element, off-pivot
  /// entries live in [EtaStart[e], EtaStart[e+1]).
  std::vector<int> EtaStart, EtaIdx, EtaPos;
  std::vector<double> EtaVal, EtaPivot;

  /// Scratch: permute buffer, reused across solves to stay
  /// allocation-free.
  std::vector<std::pair<int, double>> PermBuf;
  ScatteredVector Work;
  std::vector<int> RowCount;
};

} // namespace lp
} // namespace modsched

#endif // MODSCHED_LP_LUFACTOR_H
