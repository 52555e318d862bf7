//===- lp/SparseRevisedSimplex.cpp - Sparse revised simplex ---------------===//
//
// Revised simplex over a compiled sparse matrix: LU-factorized basis
// with product-form eta updates (lp/LuFactor), incremental reduced
// costs, and candidate-list partial pricing. The primal pivot rules
// deliberately mirror lp/Simplex.cpp's dense reference Tableau (same
// tolerances, same tie-breaks, same Bland anti-cycling fallback, same
// two-phase structure) so the engines are differential-testable; only
// the linear algebra underneath differs.
//
//===----------------------------------------------------------------------===//

#include "lp/SparseRevisedSimplex.h"

#include "lp/SolveContext.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

namespace {

// Telemetry: sparse-engine factorization counters (MODSCHED_STATS=1).
modsched::telemetry::Counter
    StatFactorizations("lp", "factor.refactorizations",
                       "sparse-engine LU basis (re)factorizations");
/// The same factorizations by cause, indexed by RefactorCause; they
/// sum to factor.refactorizations.
modsched::telemetry::Counter StatRefactorCause[] = {
    {"lp", "factor.refactor_cold",
     "factorizations of a cold solve's starting basis"},
    {"lp", "factor.refactor_warm",
     "factorizations of a warm start's rebuilt basis"},
    {"lp", "factor.refactor_eta_count",
     "refactorizations at the eta-file update limit"},
    {"lp", "factor.refactor_eta_fill",
     "refactorizations at the eta-file fill guard"},
    {"lp", "factor.refactor_eta_pivot",
     "refactorizations after a rejected eta pivot"},
};
modsched::telemetry::Counter
    StatFillNnz("lp", "factor.fill_nnz",
                "LU fill-in nonzeros beyond the basis pattern");
modsched::telemetry::Counter
    StatEtaNnz("lp", "factor.eta_nnz",
               "product-form eta nonzeros appended to the basis");
modsched::telemetry::Counter StatFtran("lp", "factor.ftran_solves",
                                       "FTRAN solves");
modsched::telemetry::Counter StatBtran("lp", "factor.btran_solves",
                                       "BTRAN solves");

/// Reduced-cost sign tolerance for accepting a starting basis as
/// dual-feasible (slightly looser than OptimalityTolerance to absorb drift
/// accumulated across chained warm solves).
constexpr double DualFeasTol = 1e-6;

/// Drift guard for warm starts: after this many pivots have accumulated
/// in a workspace engine since its last fresh factorization, the next
/// warm solve refactorizes the requested basis from the constraint
/// matrix instead of reusing the engine state.
constexpr int64_t WarmRebuildPivotLimit = 4096;

/// Refactorize the basis after this many product-form eta updates.
constexpr int MaxEtaUpdates = 64;

/// Fill guard: refactorize early when the eta file's nonzeros exceed
/// this multiple of (rows + LU nonzeros).
constexpr double EtaFillFactor = 4.0;

/// Process-unique stamp source for exported bases. Atomic: concurrent
/// solve attempts (each under its own SolveContext) stamp bases from
/// their own threads.
std::atomic<uint64_t> NextBasisId{0};

/// Partial pricing: size of the candidate list refilled from the
/// rotating column scan.
constexpr int CandListMax = 32;

/// Consecutive degenerate pivots tolerated under partial pricing
/// before escalating to a full Dantzig scan (Pricing::Dantzig). Kept
/// well below lp::DegenerateLimit so the pricing ladder is
/// partial -> Dantzig -> Bland.
constexpr int DegeneratePricingLimit = 32;

} // namespace

using namespace modsched;
using namespace modsched::lp;

double SparseRevisedSimplex::restingValue(int Col) const {
  switch (Status[Col]) {
  case ColState::AtLower:
    return Lo[Col];
  case ColState::AtUpper:
    return Up[Col];
  case ColState::Free:
    return 0.0;
  case ColState::Basic:
    break;
  }
  assert(false && "restingValue of basic column");
  return 0.0;
}

bool SparseRevisedSimplex::budgetExceeded() const {
  if (Iters >= OptsP->MaxIterations)
    return true;
  if ((Iters & 63) != 0)
    return false;
  return CtxP && (CtxP->cancelled() || CtxP->deadlineExpired());
}

void SparseRevisedSimplex::beginSolve(const Model &M,
                                      const SimplexOptions &Opts) {
  OptsP = &Opts;
  Iters = Degenerate = Flips = Refactors = Phase1Iters = DualIters = 0;
  EtaNnzTotal = 0;
  NumRows = M.numConstraints();
  NumStruct = M.numVariables();
  FirstArtificial = NumStruct + NumRows;
}

void SparseRevisedSimplex::layoutColumns(const Model &M,
                                         const std::vector<double> &Lower,
                                         const std::vector<double> &Upper) {
  if (!A.matches(M))
    A.compile(M);

  Obj.assign(NumStruct, 0.0);
  for (int Col = 0; Col < NumStruct; ++Col)
    Obj[Col] = M.variable(Col).Objective;

  // Column bounds: structural variables first, then one slack per row
  // whose bounds encode the constraint sense (same layout as the dense
  // engine, which is what keeps Basis interchangeable).
  Lo.assign(Lower.begin(), Lower.end());
  Up.assign(Upper.begin(), Upper.end());
  Lo.resize(FirstArtificial);
  Up.resize(FirstArtificial);
  RowRhs.resize(NumRows);
  for (int Row = 0; Row < NumRows; ++Row) {
    const Constraint &C = M.constraint(Row);
    const int SlackCol = NumStruct + Row;
    switch (C.Sense) {
    case ConstraintSense::LE:
      Lo[SlackCol] = 0.0;
      Up[SlackCol] = infinity();
      break;
    case ConstraintSense::GE:
      Lo[SlackCol] = -infinity();
      Up[SlackCol] = 0.0;
      break;
    case ConstraintSense::EQ:
      Lo[SlackCol] = 0.0;
      Up[SlackCol] = 0.0;
      break;
    }
    RowRhs[Row] = C.Rhs;
  }
  NumCols = FirstArtificial;
  ArtRow.clear();
  ArtSign.clear();

  WCol.resize(NumRows);
  Rho.resize(NumRows);
  RhsWork.resize(NumRows);
  if (ScanCursor >= NumCols)
    ScanCursor = 0;
}

void SparseRevisedSimplex::initCold(const Model &M,
                                    const std::vector<double> &Lower,
                                    const std::vector<double> &Upper,
                                    const SimplexOptions &Opts) {
  beginSolve(M, Opts);
  ModelP = &M;
  CurrentStamp = 0;
  layoutColumns(M, Lower, Upper);

  // Rest every structural variable at a finite bound (or 0 when free).
  Status.assign(FirstArtificial, ColState::AtLower);
  for (int Col = 0; Col < NumStruct; ++Col) {
    if (std::isfinite(Lo[Col]))
      Status[Col] = ColState::AtLower;
    else if (std::isfinite(Up[Col]))
      Status[Col] = ColState::AtUpper;
    else
      Status[Col] = ColState::Free;
  }

  // Residual each row's slack must absorb, via the CSR form.
  BasisCol.assign(NumRows, -1);
  XB.assign(NumRows, 0.0);
  for (int Row = 0; Row < NumRows; ++Row) {
    double Lhs = 0.0;
    for (int P = A.RowStart[Row]; P < A.RowStart[Row + 1]; ++P)
      Lhs += A.RValue[P] * restingValue(A.ColIndex[P]);
    const double R = RowRhs[Row] - Lhs;
    const int SlackCol = NumStruct + Row;
    if (R >= Lo[SlackCol] - FeasibilityTolerance &&
        R <= Up[SlackCol] + FeasibilityTolerance) {
      Status[SlackCol] = ColState::Basic;
      BasisCol[Row] = SlackCol;
      XB[Row] = std::clamp(R, Lo[SlackCol], Up[SlackCol]);
      continue;
    }
    // Slack cannot hold the residual: rest it at the violated bound and
    // give the row an artificial column +-e_row carrying |excess|.
    const double Clamped = std::clamp(R, Lo[SlackCol], Up[SlackCol]);
    Status[SlackCol] =
        (Clamped == Lo[SlackCol]) ? ColState::AtLower : ColState::AtUpper;
    const double Excess = R - Clamped;
    const int ArtCol = FirstArtificial + static_cast<int>(ArtRow.size());
    ArtRow.push_back(Row);
    ArtSign.push_back(Excess > 0 ? 1.0 : -1.0);
    BasisCol[Row] = ArtCol;
    XB[Row] = std::abs(Excess);
  }
  NumCols = FirstArtificial + static_cast<int>(ArtRow.size());
  Lo.resize(NumCols);
  Up.resize(NumCols);
  Status.resize(NumCols);
  std::fill(Lo.begin() + FirstArtificial, Lo.end(), 0.0);
  std::fill(Up.begin() + FirstArtificial, Up.end(), infinity());
  std::fill(Status.begin() + FirstArtificial, Status.end(), ColState::Basic);

  Cost.assign(NumCols, 0.0);
  Dj.assign(NumCols, 0.0);
  AlphaRow.resize(NumCols);
  CandList.clear();

  // The starting basis is diagonal (+-1 per row): trivially factorable.
  bool Ok = factorizeBasis(RefactorCause::Cold);
  assert(Ok && "slack/artificial starting basis cannot be singular");
  (void)Ok;
}

bool SparseRevisedSimplex::tryInitWarm(const Model &M,
                                       const std::vector<double> &Lower,
                                       const std::vector<double> &Upper,
                                       const Basis &B,
                                       const SimplexOptions &Opts) {
  const int Rows = M.numConstraints();
  const int Struct = M.numVariables();
  if (static_cast<int>(B.BasicCols.size()) != Rows ||
      static_cast<int>(B.ColStatus.size()) != Struct + Rows)
    return false;

  if (B.Id != 0 && B.Id == CurrentStamp && ModelP == &M && NumRows == Rows &&
      NumStruct == Struct && Lu.valid() &&
      PivotsSinceFactor < WarmRebuildPivotLimit) {
    // Fast path: this engine still realizes exactly this basis (the
    // depth-first child-after-parent pattern). The factorization, the
    // statuses, and the reduced costs all survive a pure bound change —
    // rebind the bounds and go.
    beginSolve(M, Opts);
    CurrentStamp = 0; // State is about to diverge from any export.
    std::copy(Lower.begin(), Lower.end(), Lo.begin());
    std::copy(Upper.begin(), Upper.end(), Up.begin());
  } else {
    // Refactorization path: rebuild the layout (no artificials),
    // install the requested statuses/basis, and LU-factor it.
    beginSolve(M, Opts);
    ModelP = &M;
    CurrentStamp = 0;
    layoutColumns(M, Lower, Upper);
    Status.assign(NumCols, ColState::AtLower);
    for (int Col = 0; Col < NumCols; ++Col)
      Status[Col] = static_cast<ColState>(B.ColStatus[Col]);
    BasisCol.assign(B.BasicCols.begin(), B.BasicCols.end());
    for (int Col : BasisCol)
      if (Col < 0 || Col >= NumCols || Status[Col] != ColState::Basic)
        return false; // Corrupt basis.
    XB.assign(NumRows, 0.0);
    if (!factorizeBasis(RefactorCause::Warm))
      return false; // Numerically singular under the new pivot order.
    Cost.assign(NumCols, 0.0);
    std::copy(Obj.begin(), Obj.end(), Cost.begin());
    Dj.assign(NumCols, 0.0);
    AlphaRow.resize(NumCols);
    CandList.clear();
    rebuildDj();
  }

  snapNonbasicToBounds();
  refreshBasicValues();
  return dualFeasible();
}

bool SparseRevisedSimplex::factorizeBasis(RefactorCause Cause) {
  BStart.assign(NumRows + 1, 0);
  BRows.clear();
  BVals.clear();
  for (int Pos = 0; Pos < NumRows; ++Pos) {
    forEachColEntry(BasisCol[Pos], [&](int Row, double V) {
      BRows.push_back(Row);
      BVals.push_back(V);
    });
    BStart[Pos + 1] = static_cast<int>(BRows.size());
  }
  if (!Lu.factor(NumRows, BStart, BRows, BVals, PivotTolerance))
    return false;
  ++Refactors;
  ++StatFactorizations;
  ++StatRefactorCause[static_cast<int>(Cause)];
  StatFillNnz += Lu.fillNonzeros();
  PivotsSinceFactor = 0;
  return true;
}

void SparseRevisedSimplex::refreshBasicValues() {
  // XB = B^-1 (b - N x_N).
  RhsWork.clear();
  for (int Row = 0; Row < NumRows; ++Row)
    if (RowRhs[Row] != 0.0)
      RhsWork.set(Row, RowRhs[Row]);
  for (int Col = 0; Col < NumCols; ++Col) {
    if (Status[Col] == ColState::Basic)
      continue;
    const double X = restingValue(Col);
    if (X == 0.0)
      continue;
    forEachColEntry(Col, [&](int Row, double V) { RhsWork.add(Row, -V * X); });
  }
  Lu.ftran(RhsWork); // Now indexed by basis position == row.
  std::fill(XB.begin(), XB.end(), 0.0);
  for (int Pos : RhsWork.Idx)
    XB[Pos] = RhsWork.Val[Pos];
}

void SparseRevisedSimplex::rebuildDj() {
  // y = B^-T c_B, then Dj = Cost - y' A over all column families.
  Rho.clear();
  for (int Pos = 0; Pos < NumRows; ++Pos) {
    const double CB = Cost[BasisCol[Pos]];
    if (CB != 0.0)
      Rho.set(Pos, CB);
  }
  Lu.btran(Rho); // Now indexed by constraint row.
  Dj = Cost;
  for (int R : Rho.Idx) {
    const double Y = Rho.Val[R];
    if (Y == 0.0)
      continue;
    for (int P = A.RowStart[R]; P < A.RowStart[R + 1]; ++P)
      Dj[A.ColIndex[P]] -= Y * A.RValue[P];
    Dj[NumStruct + R] -= Y; // Slack column e_R.
  }
  for (size_t K = 0; K < ArtRow.size(); ++K)
    Dj[FirstArtificial + static_cast<int>(K)] -=
        Rho.Val[ArtRow[K]] * ArtSign[K];
  // Basic columns have zero reduced cost by construction; enforce.
  for (int Pos = 0; Pos < NumRows; ++Pos)
    Dj[BasisCol[Pos]] = 0.0;
}

void SparseRevisedSimplex::computeAlphaRow(int LeaveRow) {
  // rho = B^-T e_r...
  Rho.clear();
  Rho.set(LeaveRow, 1.0);
  Lu.btran(Rho);
  // ...then alpha_rj = rho' a_j, swept row-wise over rho's nonzeros.
  AlphaRow.clear();
  for (int R : Rho.Idx) {
    const double Y = Rho.Val[R];
    if (Y == 0.0)
      continue;
    for (int P = A.RowStart[R]; P < A.RowStart[R + 1]; ++P)
      AlphaRow.add(A.ColIndex[P], Y * A.RValue[P]);
    AlphaRow.add(NumStruct + R, Y); // Slack column e_R.
  }
  for (size_t K = 0; K < ArtRow.size(); ++K) {
    const double Y = Rho.Val[ArtRow[K]];
    if (Y != 0.0)
      AlphaRow.add(FirstArtificial + static_cast<int>(K), Y * ArtSign[K]);
  }
}

bool SparseRevisedSimplex::commitPivot(int LeaveRow, int Enter) {
  // Incremental reduced costs: d_j -= (d_e / alpha_re) * alpha_rj.
  // The sweep covers every column with a nonzero pivot-row entry —
  // including the leaving column, whose alpha_rLeave == 1 yields
  // exactly d_leave = -d_e / alpha_re.
  const double AlphaE = AlphaRow.Val[Enter];
  assert(AlphaE != 0.0 && "pivot element vanished from the alpha row");
  const double Mult = Dj[Enter] / AlphaE;
  if (Mult != 0.0) {
    for (int J : AlphaRow.Idx) {
      if (J == Enter)
        continue;
      const double Al = AlphaRow.Val[J];
      if (Al != 0.0)
        Dj[J] -= Mult * Al;
    }
  }
  Dj[Enter] = 0.0;
  ++PivotsSinceFactor;

  // Append the product-form eta; refactorize when the eta file passes
  // its count/fill thresholds or the eta pivot is unacceptable.
  const int64_t EtaBefore = Lu.etaNonzeros();
  RefactorCause Cause = RefactorCause::EtaPivot;
  if (Lu.update(LeaveRow, WCol, PivotTolerance)) {
    const int64_t Added = Lu.etaNonzeros() - EtaBefore;
    EtaNnzTotal += Added;
    StatEtaNnz += Added;
    if (Lu.etaCount() >= MaxEtaUpdates)
      Cause = RefactorCause::EtaCount;
    else if (Lu.etaNonzeros() >
             EtaFillFactor * double(NumRows + Lu.factorNonzeros()))
      Cause = RefactorCause::EtaFill;
    else
      return true;
  }
  if (!factorizeBasis(Cause))
    return false; // Numerical catastrophe; caller gives up.
  refreshBasicValues();
  rebuildDj();
  return true;
}

double SparseRevisedSimplex::score(int Col) const {
  if (Status[Col] == ColState::Basic || Lo[Col] == Up[Col])
    return 0.0;
  switch (Status[Col]) {
  case ColState::AtLower:
    return -Dj[Col]; // Improves by increasing.
  case ColState::AtUpper:
    return Dj[Col]; // Improves by decreasing.
  case ColState::Free:
    return std::abs(Dj[Col]);
  case ColState::Basic:
    break;
  }
  return 0.0;
}

int SparseRevisedSimplex::chooseEntering(Pricing Mode) {
  if (Mode == Pricing::Bland) {
    // Anti-cycling mode: smallest eligible index, full scan.
    for (int Col = 0; Col < NumCols; ++Col)
      if (score(Col) > OptimalityTolerance)
        return Col;
    return -1;
  }

  if (Mode == Pricing::Dantzig) {
    // Degenerate-streak escalation: a full most-negative scan, exactly
    // the dense engine's pricing. The candidate window's locally-best
    // choice can stall indefinitely on a massively degenerate vertex
    // (phase-1 bases of the paper's structured models) where the
    // global best walks off the plateau; the stale window is dropped
    // so partial pricing restarts fresh once the streak breaks.
    CandList.clear();
    double BestScore = OptimalityTolerance;
    int Best = -1;
    for (int Col = 0; Col < NumCols; ++Col) {
      const double S = score(Col);
      if (S > BestScore) {
        BestScore = S;
        Best = Col;
      }
    }
    return Best;
  }

  // Candidate-list partial pricing: re-price the surviving candidates
  // first; only when none is still attractive, refill the list from a
  // rotating scan over all columns (a full wrap without finding any
  // eligible column proves optimality).
  double BestScore = OptimalityTolerance;
  int Best = -1;
  size_t Keep = 0;
  for (int J : CandList) {
    const double S = score(J);
    if (S > OptimalityTolerance) {
      CandList[Keep++] = J;
      if (S > BestScore) {
        BestScore = S;
        Best = J;
      }
    }
  }
  CandList.resize(Keep);
  if (Best >= 0)
    return Best;

  CandList.clear();
  for (int Scanned = 0; Scanned < NumCols; ++Scanned) {
    const int Col = ScanCursor;
    if (++ScanCursor >= NumCols)
      ScanCursor = 0;
    const double S = score(Col);
    if (S <= OptimalityTolerance)
      continue;
    CandList.push_back(Col);
    if (S > BestScore) {
      BestScore = S;
      Best = Col;
    }
    if (static_cast<int>(CandList.size()) >= CandListMax)
      break;
  }
  return Best;
}

LpStatus SparseRevisedSimplex::primalIterate(bool PhaseOne) {
  rebuildDj();
  CandList.clear();
  int DegenerateRun = 0;
  bool Bland = false;
  for (;;) {
    if (budgetExceeded())
      return LpStatus::IterationLimit;

    const int Enter = chooseEntering(
        Bland ? Pricing::Bland
        : DegenerateRun > DegeneratePricingLimit ? Pricing::Dantzig
                                                 : Pricing::Partial);
    if (Enter < 0)
      return LpStatus::Optimal;

    // Direction the entering variable moves.
    double Dir = 1.0;
    if (Status[Enter] == ColState::AtUpper)
      Dir = -1.0;
    else if (Status[Enter] == ColState::Free)
      Dir = Dj[Enter] < 0 ? 1.0 : -1.0;

    // w = B^-1 a_e: the pivot column in the current basis.
    WCol.clear();
    forEachColEntry(Enter, [&](int R, double V) { WCol.add(R, V); });
    Lu.ftran(WCol);

    // Ratio test over the pivot column's nonzeros only; same step
    // bound, tie-breaks, and bound-flip handling as the dense engine.
    double BestT = Up[Enter] - Lo[Enter]; // May be +inf.
    int LeaveRow = -1;
    double LeavePivot = 0.0;
    bool LeaveAtUpper = false;
    for (int Pos : WCol.Idx) {
      const double Alpha = WCol.Val[Pos];
      if (std::abs(Alpha) <= PivotTolerance)
        continue;
      const double Rate = -Dir * Alpha; // d(XB[Pos]) / dStep.
      const int BV = BasisCol[Pos];
      double T;
      bool HitsUpper;
      if (Rate < 0) {
        if (!std::isfinite(Lo[BV]))
          continue;
        T = (XB[Pos] - Lo[BV]) / -Rate;
        HitsUpper = false;
      } else {
        if (!std::isfinite(Up[BV]))
          continue;
        T = (Up[BV] - XB[Pos]) / Rate;
        HitsUpper = true;
      }
      if (T < 0)
        T = 0; // Roundoff pushed a basic value slightly out of bounds.
      bool Take = false;
      if (T < BestT - 1e-12) {
        Take = true;
      } else if (LeaveRow >= 0 && T <= BestT + 1e-12) {
        // Order-independent tie-break: WCol.Idx lists the pivot
        // column's nonzeros in scatter order, so "first seen wins"
        // would pick an arbitrary row where the dense engine's
        // ascending scan picks the lowest. Maximize (|alpha|, -row)
        // lexicographically instead, which reproduces the dense
        // choice and keeps the B&B dives of the two engines on the
        // same degenerate vertices.
        Take = Bland ? BV < BasisCol[LeaveRow]
                     : (std::abs(Alpha) > std::abs(LeavePivot) ||
                        (std::abs(Alpha) == std::abs(LeavePivot) &&
                         Pos < LeaveRow));
      }
      if (Take) {
        BestT = std::min(BestT, T);
        LeaveRow = Pos;
        LeavePivot = Alpha;
        LeaveAtUpper = HitsUpper;
      }
    }

    if (LeaveRow < 0 && !std::isfinite(BestT)) {
      assert(!PhaseOne && "phase-1 objective is bounded below by zero");
      return LpStatus::Unbounded;
    }

    ++Iters;
    if (BestT <= FeasibilityTolerance) {
      ++Degenerate;
      if (++DegenerateRun > DegenerateLimit)
        Bland = true;
    } else {
      DegenerateRun = 0;
      Bland = false;
    }

    // Apply the step to the basic values (pivot-column nonzeros only).
    if (BestT > 0)
      for (int Pos : WCol.Idx) {
        const double Alpha = WCol.Val[Pos];
        if (Alpha != 0.0)
          XB[Pos] -= Dir * BestT * Alpha;
      }

    if (LeaveRow < 0) {
      // Pure bound flip: the entering variable moves to its other bound.
      ++Flips;
      assert(std::isfinite(BestT) && "flip distance must be finite");
      Status[Enter] = Status[Enter] == ColState::AtLower
                          ? ColState::AtUpper
                          : ColState::AtLower;
      continue;
    }

    // Pivot: Enter becomes basic in LeaveRow. The alpha row (for the
    // reduced-cost update) must come from the pre-pivot basis.
    computeAlphaRow(LeaveRow);
    const int Leave = BasisCol[LeaveRow];
    const double EnterValue = restingValue(Enter) + Dir * BestT;
    Status[Leave] = LeaveAtUpper ? ColState::AtUpper : ColState::AtLower;
    Status[Enter] = ColState::Basic;
    BasisCol[LeaveRow] = Enter;
    XB[LeaveRow] = EnterValue;
    if (!commitPivot(LeaveRow, Enter))
      return LpStatus::IterationLimit;

    // Periodically flush floating-point drift in the basic values.
    if (Iters % 256 == 0)
      refreshBasicValues();
  }
}

LpStatus SparseRevisedSimplex::dualIterate() {
  int DegenerateRun = 0;
  bool Bland = false;
  for (;;) {
    if (budgetExceeded())
      return LpStatus::IterationLimit;

    // Leaving row: the most-violated basic variable.
    int LeaveRow = -1;
    double BestViol = FeasibilityTolerance;
    bool ViolUpper = false;
    for (int Row = 0; Row < NumRows; ++Row) {
      const int BV = BasisCol[Row];
      const double V = XB[Row];
      const double Below = Lo[BV] - V;
      const double Above = V - Up[BV];
      if (Below > BestViol) {
        BestViol = Below;
        LeaveRow = Row;
        ViolUpper = false;
      }
      if (Above > BestViol) {
        BestViol = Above;
        LeaveRow = Row;
        ViolUpper = true;
      }
    }
    if (LeaveRow < 0)
      return LpStatus::Optimal; // Primal feasible again.

    // Dual ratio test over the (hyper-sparse) pivot row: the textbook
    // bounded-variable candidate filter, ratio, and tie-breaks.
    computeAlphaRow(LeaveRow);
    int Enter = -1;
    double BestRatio = infinity();
    double BestAlpha = 0.0;
    double EnterDir = 0.0;
    for (int Col : AlphaRow.Idx) {
      if (Status[Col] == ColState::Basic || Lo[Col] == Up[Col])
        continue;
      const double Alpha = AlphaRow.Val[Col];
      if (std::abs(Alpha) <= PivotTolerance)
        continue;
      // Moving Col by t*D changes XB[LeaveRow] by -t*D*Alpha; a violated
      // upper bound needs a decrease, a lower an increase.
      double D;
      if (Status[Col] == ColState::Free) {
        D = ViolUpper ? (Alpha > 0 ? 1.0 : -1.0) : (Alpha > 0 ? -1.0 : 1.0);
      } else {
        D = Status[Col] == ColState::AtLower ? 1.0 : -1.0;
        const bool Helps = ViolUpper ? D * Alpha > 0 : D * Alpha < 0;
        if (!Helps)
          continue;
      }
      const double Cr = Dj[Col];
      const double AbsCr = Status[Col] == ColState::AtLower
                               ? std::max(0.0, Cr)
                               : Status[Col] == ColState::AtUpper
                                     ? std::max(0.0, -Cr)
                                     : std::abs(Cr);
      const double Ratio = AbsCr / std::abs(Alpha);
      bool Take = false;
      if (Enter < 0 || Ratio < BestRatio - 1e-12)
        Take = true;
      else if (Ratio <= BestRatio + 1e-12)
        // Order-independent tie-break (AlphaRow.Idx is in scatter
        // order): maximize (|alpha|, -column) lexicographically, the
        // choice an ascending column scan makes. On the zero-objective
        // LPs of feasibility-only scheduling MIPs every ratio ties at 0
        // and the pivot row is all +-1, so this fixes which vertices
        // the dive visits.
        Take = Bland ? Col < Enter
                     : (std::abs(Alpha) > std::abs(BestAlpha) ||
                        (std::abs(Alpha) == std::abs(BestAlpha) &&
                         Col < Enter));
      if (Take) {
        Enter = Col;
        BestRatio = std::min(Ratio, BestRatio);
        BestAlpha = Alpha;
        EnterDir = D;
      }
    }
    if (Enter < 0) // No nonbasic movement can repair the violated row.
      return LpStatus::Infeasible;

    ++Iters;
    ++DualIters;
    if (BestRatio <= OptimalityTolerance) {
      ++Degenerate;
      if (++DegenerateRun > DegenerateLimit)
        Bland = true;
    } else {
      DegenerateRun = 0;
      Bland = false;
    }

    // Step length drives the leaving variable exactly onto its violated
    // bound; apply it along w = B^-1 a_e.
    WCol.clear();
    forEachColEntry(Enter, [&](int R, double V) { WCol.add(R, V); });
    Lu.ftran(WCol);
    const double T = BestViol / std::abs(AlphaRow.Val[Enter]);
    for (int Pos : WCol.Idx) {
      const double Alpha = WCol.Val[Pos];
      if (Alpha != 0.0)
        XB[Pos] -= EnterDir * T * Alpha;
    }

    const int Leave = BasisCol[LeaveRow];
    const double EnterValue = restingValue(Enter) + EnterDir * T;
    Status[Leave] = ViolUpper ? ColState::AtUpper : ColState::AtLower;
    Status[Enter] = ColState::Basic;
    BasisCol[LeaveRow] = Enter;
    XB[LeaveRow] = EnterValue;
    if (!commitPivot(LeaveRow, Enter))
      return LpStatus::IterationLimit;

    if (Iters % 256 == 0)
      refreshBasicValues();
  }
}

LpStatus SparseRevisedSimplex::run() {
  struct Flusher {
    SparseRevisedSimplex *S;
    ~Flusher() { S->flushFactorStats(); }
  } F{this};

  if (NumCols > FirstArtificial) {
    // Phase 1: minimize the sum of the artificial columns.
    std::fill(Cost.begin(), Cost.end(), 0.0);
    for (int Col = FirstArtificial; Col < NumCols; ++Col)
      Cost[Col] = 1.0;
    LpStatus S = primalIterate(/*PhaseOne=*/true);
    Phase1Iters = Iters;
    if (S == LpStatus::IterationLimit)
      return S;
    assert(S == LpStatus::Optimal && "phase 1 cannot be unbounded");
    refreshBasicValues();
    double Infeasibility = 0.0;
    for (int Row = 0; Row < NumRows; ++Row)
      if (BasisCol[Row] >= FirstArtificial)
        Infeasibility += std::max(0.0, XB[Row]);
    if (Infeasibility > 1e-6)
      return LpStatus::Infeasible; // A stuck artificial pins a row.
    // Pin the artificials at zero for phase 2; basic artificials at
    // value ~zero are harmless behind their [0,0] bounds.
    for (int Col = FirstArtificial; Col < NumCols; ++Col) {
      Lo[Col] = 0.0;
      Up[Col] = 0.0;
    }
  }

  // Phase 2: the real objective on the structural columns.
  std::fill(Cost.begin(), Cost.end(), 0.0);
  std::copy(Obj.begin(), Obj.end(), Cost.begin());
  LpStatus S = primalIterate(/*PhaseOne=*/false);
  if (S == LpStatus::Optimal)
    refreshBasicValues();
  return S;
}

LpStatus SparseRevisedSimplex::runWarm() {
  struct Flusher {
    SparseRevisedSimplex *S;
    ~Flusher() { S->flushFactorStats(); }
  } F{this};

  LpStatus S = dualIterate();
  if (S != LpStatus::Optimal)
    return S;
  // Primal clean-up from freshly rebuilt reduced costs — usually zero
  // pivots; certifies optimality against drift-free Dj.
  S = primalIterate(/*PhaseOne=*/false);
  if (S == LpStatus::Optimal)
    refreshBasicValues();
  return S;
}

bool SparseRevisedSimplex::extractBasis(Basis &Out) {
  // Drive any residual degenerate artificial out of the basis with a
  // zero-step pivot, so the exported basis
  // only references structural and slack columns.
  for (int Row = 0; Row < NumRows; ++Row) {
    if (BasisCol[Row] < FirstArtificial)
      continue;
    computeAlphaRow(Row);
    int Best = -1;
    double BestMag = PivotTolerance;
    for (int J : AlphaRow.Idx) {
      if (J >= FirstArtificial || Status[J] == ColState::Basic)
        continue;
      const double Mag = std::abs(AlphaRow.Val[J]);
      if (Mag > BestMag) {
        BestMag = Mag;
        Best = J;
      }
    }
    if (Best < 0) {
      flushFactorStats();
      return false; // Structurally redundant row; not exportable.
    }
    WCol.clear();
    forEachColEntry(Best, [&](int R, double V) { WCol.add(R, V); });
    Lu.ftran(WCol);
    const double EnterValue = restingValue(Best);
    Status[BasisCol[Row]] = ColState::AtLower; // Artificial rests at [0,0].
    Status[Best] = ColState::Basic;
    BasisCol[Row] = Best;
    XB[Row] = EnterValue;
    if (!commitPivot(Row, Best)) {
      flushFactorStats();
      return false;
    }
  }
  flushFactorStats();

  Out.ColStatus.resize(FirstArtificial);
  for (int Col = 0; Col < FirstArtificial; ++Col)
    Out.ColStatus[Col] = static_cast<uint8_t>(Status[Col]);
  Out.BasicCols.assign(BasisCol.begin(), BasisCol.end());
  Out.Id = 0; // Caller stamps.
  return true;
}

void SparseRevisedSimplex::stamp(Basis &B) {
  B.Id = NextBasisId.fetch_add(1, std::memory_order_relaxed) + 1;
  CurrentStamp = B.Id;
}

std::vector<double> SparseRevisedSimplex::structuralValues() const {
  std::vector<double> X(NumStruct, 0.0);
  for (int Col = 0; Col < NumStruct; ++Col)
    if (Status[Col] != ColState::Basic)
      X[Col] = restingValue(Col);
  for (int Row = 0; Row < NumRows; ++Row)
    if (BasisCol[Row] < NumStruct)
      X[BasisCol[Row]] = XB[Row];
  return X;
}

void SparseRevisedSimplex::snapNonbasicToBounds() {
  for (int Col = 0; Col < NumCols; ++Col) {
    switch (Status[Col]) {
    case ColState::Basic:
      continue;
    case ColState::AtLower:
      if (std::isfinite(Lo[Col]))
        continue;
      break;
    case ColState::AtUpper:
      if (std::isfinite(Up[Col]))
        continue;
      break;
    case ColState::Free:
      if (!std::isfinite(Lo[Col]) && !std::isfinite(Up[Col]))
        continue;
      break;
    }
    const bool LoOk = std::isfinite(Lo[Col]), UpOk = std::isfinite(Up[Col]);
    if (LoOk && (Dj[Col] >= 0.0 || !UpOk))
      Status[Col] = ColState::AtLower;
    else if (UpOk)
      Status[Col] = ColState::AtUpper;
    else
      Status[Col] = ColState::Free;
  }
}

bool SparseRevisedSimplex::dualFeasible() const {
  for (int Col = 0; Col < NumCols; ++Col) {
    if (Status[Col] == ColState::Basic || Lo[Col] == Up[Col])
      continue;
    const double Cr = Dj[Col];
    switch (Status[Col]) {
    case ColState::AtLower:
      if (Cr < -DualFeasTol)
        return false;
      break;
    case ColState::AtUpper:
      if (Cr > DualFeasTol)
        return false;
      break;
    case ColState::Free:
      if (std::abs(Cr) > DualFeasTol)
        return false;
      break;
    case ColState::Basic:
      break;
    }
  }
  return true;
}

void SparseRevisedSimplex::flushFactorStats() {
  StatFtran += static_cast<int64_t>(Lu.Ftrans - FtranMark);
  StatBtran += static_cast<int64_t>(Lu.Btrans - BtranMark);
  FtranMark = Lu.Ftrans;
  BtranMark = Lu.Btrans;
}
