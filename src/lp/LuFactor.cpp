//===- lp/LuFactor.cpp - LU-factorized basis with eta updates -------------===//

#include "lp/LuFactor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace modsched;
using namespace modsched::lp;

namespace {

/// Entries smaller than this are not worth storing: they are far below
/// the engine's pivot and feasibility tolerances.
constexpr double DropTol = 1e-12;

/// Threshold partial pivoting slack: a row is numerically eligible when
/// its magnitude is within this factor of the column maximum.
constexpr double PivotRelThreshold = 0.1;

} // namespace

bool LuFactor::factor(int Dim_, const std::vector<int> &ColStart,
                      const std::vector<int> &Rows,
                      const std::vector<double> &Vals, double MinPivot) {
  Dim = Dim_;
  Valid = false;
  assert(static_cast<int>(ColStart.size()) == Dim + 1 &&
         "basis CSC must have Dim+1 column starts");

  RowOf.assign(Dim, -1);
  Pinv.assign(Dim, -1);
  ColOf.assign(Dim, -1);
  StepOfPos.assign(Dim, -1);
  LStart.assign(1, 0);
  LRow.clear();
  LVal.clear();
  UStart.assign(1, 0);
  URow.clear();
  UVal.clear();
  UDiag.assign(Dim, 0.0);
  EtaStart.assign(1, 0);
  EtaIdx.clear();
  EtaVal.clear();
  EtaPos.clear();
  EtaPivot.clear();
  Work.resize(Dim);

  const int BaseNnz = Dim == 0 ? 0 : ColStart[Dim];

  // Static row counts drive the Markowitz tie-break.
  RowCount.assign(Dim, 0);
  for (int P = 0; P < BaseNnz; ++P)
    ++RowCount[Rows[P]];

  // Column preorder: ascending nonzero count (approximate Markowitz
  // column ordering). Counting sort keeps this O(nnz).
  std::vector<int> Order(Dim);
  {
    std::vector<int> Bucket(Dim + 2, 0);
    for (int C = 0; C < Dim; ++C) {
      int Nnz = std::min(ColStart[C + 1] - ColStart[C], Dim + 1);
      ++Bucket[Nnz + 1];
    }
    for (size_t I = 1; I < Bucket.size(); ++I)
      Bucket[I] += Bucket[I - 1];
    for (int C = 0; C < Dim; ++C) {
      int Nnz = std::min(ColStart[C + 1] - ColStart[C], Dim + 1);
      Order[Bucket[Nnz]++] = C;
    }
  }

  for (int K = 0; K < Dim; ++K) {
    const int C = Order[K];
    // Scatter column C of the basis.
    Work.clear();
    for (int P = ColStart[C]; P < ColStart[C + 1]; ++P)
      Work.set(Rows[P], Vals[P]);

    // Left-looking elimination. Step order is a valid topological
    // order: L column j only stores rows unpivoted at step j, so the
    // value at RowOf[j] is final once steps < j have been applied.
    for (int J = 0; J < K; ++J) {
      const double Pv = Work.Val[RowOf[J]];
      if (std::abs(Pv) <= DropTol)
        continue;
      URow.push_back(J);
      UVal.push_back(Pv);
      for (int P = LStart[J]; P < LStart[J + 1]; ++P)
        Work.add(LRow[P], -LVal[P] * Pv);
    }

    // Threshold-Markowitz pivot: numerically eligible rows compete on
    // fewest static nonzeros, ties broken toward larger magnitude.
    double MaxAbs = 0.0;
    for (int I : Work.Idx)
      if (Pinv[I] < 0)
        MaxAbs = std::max(MaxAbs, std::abs(Work.Val[I]));
    if (MaxAbs <= MinPivot)
      return false; // Structurally or numerically singular.
    const double Thresh = std::max(PivotRelThreshold * MaxAbs, MinPivot);
    int Prow = -1;
    int BestCount = Dim + 1;
    double BestAbs = 0.0;
    for (int I : Work.Idx) {
      if (Pinv[I] >= 0)
        continue;
      const double A = std::abs(Work.Val[I]);
      if (A < Thresh)
        continue;
      if (RowCount[I] < BestCount ||
          (RowCount[I] == BestCount && A > BestAbs)) {
        BestCount = RowCount[I];
        BestAbs = A;
        Prow = I;
      }
    }
    assert(Prow >= 0 && "eligible pivot must exist when MaxAbs > tol");

    const double Piv = Work.Val[Prow];
    RowOf[K] = Prow;
    Pinv[Prow] = K;
    ColOf[K] = C;
    StepOfPos[C] = K;
    UDiag[K] = Piv;
    for (int I : Work.Idx) {
      if (Pinv[I] >= 0)
        continue; // Already-pivoted rows (and Prow itself) went to U.
      const double V = Work.Val[I];
      if (std::abs(V) <= DropTol)
        continue;
      LRow.push_back(I);
      LVal.push_back(V / Piv);
    }
    LStart.push_back(static_cast<int>(LRow.size()));
    UStart.push_back(static_cast<int>(URow.size()));
  }

  Fill = factorNonzeros() - BaseNnz;

  // Build the row (transposed) forms for saxpy-style BTRAN. Both
  // counting sorts preserve ascending inner order.
  LtStart.assign(Dim + 1, 0);
  for (int R : LRow)
    ++LtStart[Pinv[R] + 1];
  for (int K = 0; K < Dim; ++K)
    LtStart[K + 1] += LtStart[K];
  LtCol.resize(LRow.size());
  LtVal.resize(LRow.size());
  {
    std::vector<int> Cursor(LtStart.begin(), LtStart.end() - 1);
    for (int J = 0; J < Dim; ++J)
      for (int P = LStart[J]; P < LStart[J + 1]; ++P) {
        const int K = Pinv[LRow[P]];
        const int Q = Cursor[K]++;
        LtCol[Q] = J;
        LtVal[Q] = LVal[P];
      }
  }
  UtStart.assign(Dim + 1, 0);
  for (int R : URow)
    ++UtStart[R + 1];
  for (int K = 0; K < Dim; ++K)
    UtStart[K + 1] += UtStart[K];
  UtCol.resize(URow.size());
  UtVal.resize(URow.size());
  {
    std::vector<int> Cursor(UtStart.begin(), UtStart.end() - 1);
    for (int J = 0; J < Dim; ++J)
      for (int P = UStart[J]; P < UStart[J + 1]; ++P) {
        const int K = URow[P]; // Step k < j holding U[k, j].
        const int Q = Cursor[K]++;
        UtCol[Q] = J;
        UtVal[Q] = UVal[P];
      }
  }

  Valid = true;
  return true;
}

void LuFactor::ftran(ScatteredVector &X) {
  assert(Valid && "ftran on an invalid factorization");
  assert(X.size() == Dim && "ftran vector dimension mismatch");
  ++Ftrans;

  // --- Lower solve, in constraint-row index space.
  for (int K = 0; K < Dim; ++K) {
    const double Pv = X.Val[RowOf[K]];
    if (Pv == 0.0)
      continue;
    for (int P = LStart[K]; P < LStart[K + 1]; ++P)
      X.add(LRow[P], -LVal[P] * Pv);
  }

  // --- Upper solve. Dependencies flow from step k to steps j < k via
  // U column k, so sweep the steps in descending order.
  for (int K = Dim - 1; K >= 0; --K) {
    const double T = X.Val[RowOf[K]] / UDiag[K];
    if (T == 0.0)
      continue;
    X.set(RowOf[K], T);
    for (int P = UStart[K]; P < UStart[K + 1]; ++P)
      X.add(RowOf[URow[P]], -UVal[P] * T);
  }

  // --- Permute into basis-position space: out[ColOf[k]] = x[RowOf[k]],
  // dropping numerical dust so downstream sparsity stays honest.
  PermBuf.clear();
  for (int R : X.Idx) {
    const double V = X.Val[R];
    if (std::abs(V) > DropTol)
      PermBuf.push_back({ColOf[Pinv[R]], V});
  }
  X.clear();
  for (const auto &[Pos, V] : PermBuf)
    X.set(Pos, V);

  // --- Product-form etas, in application order.
  const int NumEtas = etaCount();
  for (int E = 0; E < NumEtas; ++E) {
    const int P = EtaPos[E];
    double Xp = X.Val[P];
    if (Xp == 0.0)
      continue;
    Xp /= EtaPivot[E];
    X.set(P, Xp);
    for (int Q = EtaStart[E]; Q < EtaStart[E + 1]; ++Q)
      X.add(EtaIdx[Q], -EtaVal[Q] * Xp);
  }
}

void LuFactor::btran(ScatteredVector &X) {
  assert(Valid && "btran on an invalid factorization");
  assert(X.size() == Dim && "btran vector dimension mismatch");
  ++Btrans;

  // --- Eta transpose-inverses, reverse order (dot-product form; each
  // eta is sparse and the file is bounded by the refactor limit).
  for (int E = etaCount() - 1; E >= 0; --E) {
    const int P = EtaPos[E];
    double S = X.Val[P];
    for (int Q = EtaStart[E]; Q < EtaStart[E + 1]; ++Q)
      S -= EtaVal[Q] * X.Val[EtaIdx[Q]];
    if (S == 0.0 && !X.In[P])
      continue;
    X.set(P, S / EtaPivot[E]);
  }

  // --- Permute basis positions to steps: z[k] = c[ColOf[k]].
  PermBuf.clear();
  for (int Pos : X.Idx) {
    const double V = X.Val[Pos];
    if (std::abs(V) > DropTol)
      PermBuf.push_back({StepOfPos[Pos], V});
  }
  X.clear();
  for (const auto &[K, V] : PermBuf)
    X.set(K, V);

  // --- U^T forward solve: step k feeds steps j > k through Ut row k.
  for (int K = 0; K < Dim; ++K) {
    const double T = X.Val[K] / UDiag[K];
    if (T == 0.0)
      continue;
    X.set(K, T);
    for (int P = UtStart[K]; P < UtStart[K + 1]; ++P)
      X.add(UtCol[P], -UtVal[P] * T);
  }

  // --- L^T backward solve: step k feeds steps j < k through Lt row k.
  for (int K = Dim - 1; K >= 0; --K) {
    const double Pv = X.Val[K];
    if (Pv == 0.0)
      continue;
    for (int P = LtStart[K]; P < LtStart[K + 1]; ++P)
      X.add(LtCol[P], -LtVal[P] * Pv);
  }

  // --- Permute steps back to constraint rows: out[RowOf[k]] = z[k].
  PermBuf.clear();
  for (int K : X.Idx) {
    const double V = X.Val[K];
    if (std::abs(V) > DropTol)
      PermBuf.push_back({RowOf[K], V});
  }
  X.clear();
  for (const auto &[R, V] : PermBuf)
    X.set(R, V);
}

bool LuFactor::update(int Pos, const ScatteredVector &W, double MinPivot) {
  assert(Valid && "eta update on an invalid factorization");
  assert(Pos >= 0 && Pos < Dim && "eta pivot position out of range");
  const double Wp = W.Val[Pos];
  if (std::abs(Wp) <= MinPivot)
    return false;
  EtaPos.push_back(Pos);
  EtaPivot.push_back(Wp);
  for (int I : W.Idx) {
    if (I == Pos)
      continue;
    const double V = W.Val[I];
    if (std::abs(V) <= DropTol)
      continue;
    EtaIdx.push_back(I);
    EtaVal.push_back(V);
  }
  EtaStart.push_back(static_cast<int>(EtaIdx.size()));
  return true;
}
