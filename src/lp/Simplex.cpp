//===- lp/Simplex.cpp - LP solve front end and dense reference engine -----===//
//
// SimplexSolver's solve flow over the sparse revised simplex engine
// (lp/SparseRevisedSimplex.cpp), plus the dense tableau reference
// engine: a cold two-phase bounded-variable primal simplex kept as the
// oracle of the LP differential tests. See Chvatal, "Linear
// Programming", ch. 8 for the bounded-variable primal simplex.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "lp/SolveContext.h"
#include "lp/SparseRevisedSimplex.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

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
                 "periodic basic-value refreshes");
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

const char *lp::toString(SimplexEngine Engine) {
  switch (Engine) {
  case SimplexEngine::Dense:
    return "dense";
  case SimplexEngine::SparseRevised:
    return "sparse_revised";
  }
  return "unknown";
}

namespace {

/// Where a column currently rests (the encoding lp::Basis also uses).
using ColStatus = lp::ColState;

/// The dense reference engine: an explicit m x n tableau (O(m*n) per
/// pivot) for one cold solve. Columns are laid out as [structural |
/// slack | artificial].
class Tableau {
public:
  /// Seeds a cold solve of \p M under \p Lower / \p Upper: the
  /// slack/artificial starting basis for phase 1. \p Ctx (may be null)
  /// supplies the deadline and cancellation token.
  Tableau(const Model &M, const std::vector<double> &Lower,
          const std::vector<double> &Upper, const SimplexOptions &Opts,
          const SolveContext *Ctx);

  /// Runs phase 1 (if needed) and phase 2. Returns the final status.
  LpStatus run();

  /// Extracts the values of the structural variables.
  std::vector<double> structuralValues() const;

  int64_t iterations() const { return Iters; }
  int64_t degeneratePivots() const { return Degenerate; }
  int64_t boundFlips() const { return Flips; }
  int64_t refactorizations() const { return Refactors; }
  int64_t phase1Iterations() const { return Phase1Iters; }
  /// A cold solve runs no dual simplex.
  int64_t dualIterations() const { return 0; }
  /// Product-form eta nonzeros: the dense tableau has no eta file.
  int64_t etaNonzeros() const { return 0; }

private:
  /// Runs the primal simplex loop with the current cost row until
  /// optimality, unboundedness, or the iteration limit.
  LpStatus iterate(bool PhaseOne);

  /// Rebuilds CostRow[j] = Cost[j] - sum_i Cost[Basis[i]] * Tab(i, j).
  void rebuildCostRow();

  /// Rebuilds the basic-variable values from Rhs and the nonbasic resting
  /// values; flushes accumulated floating-point drift.
  void refreshBasicValues();

  /// Row-reduces the tableau so column \p Enter becomes the identity
  /// column of \p LeaveRow, updating Rhs and CostRow. Does not touch
  /// Status / Basis / BasicValue (callers differ there).
  void applyPivot(int LeaveRow, int Enter);

  /// Chooses the entering column, or -1 at optimality.
  int chooseEntering(bool Bland) const;

  /// Checks the per-solve pivot cap and, every 64 pivots, the
  /// context's cancellation token and deadline.
  bool budgetExceeded() const {
    if (Iters >= OptsP->MaxIterations)
      return true;
    if ((Iters & 63) != 0)
      return false;
    return CtxP && (CtxP->cancelled() || CtxP->deadlineExpired());
  }

  double &tab(int Row, int Col) { return Tab[size_t(Row) * NumCols + Col]; }
  double tab(int Row, int Col) const {
    return Tab[size_t(Row) * NumCols + Col];
  }

  /// Resting value of nonbasic column \p Col.
  double restingValue(int Col) const {
    switch (Status[Col]) {
    case ColStatus::AtLower:
      return Lo[Col];
    case ColStatus::AtUpper:
      return Up[Col];
    case ColStatus::Free:
      return 0.0;
    case ColStatus::Basic:
      break;
    }
    assert(false && "restingValue of basic column");
    return 0.0;
  }

  const SimplexOptions *OptsP;
  const SolveContext *CtxP; ///< Deadline + cancellation, or null.
  int NumRows = 0;
  int NumStruct = 0;
  int NumCols = 0; ///< structural + slack + artificial.
  int FirstArtificial = 0;

  std::vector<double> Tab;        ///< B^-1 * A, dense, row-major.
  std::vector<double> Rhs;        ///< B^-1 * b.
  std::vector<double> Lo, Up;     ///< Column bounds.
  std::vector<double> Obj;        ///< Model objective (structural columns).
  std::vector<double> Cost;       ///< Current-phase costs, all columns.
  std::vector<double> CostRow;    ///< Reduced costs.
  std::vector<ColStatus> Status;  ///< Per-column status.
  std::vector<int> Basis;         ///< Basis[row] = column index.
  std::vector<double> BasicValue; ///< Current value of Basis[row].
  int64_t Iters = 0;
  int64_t Degenerate = 0;  ///< Pivots with ~zero step length.
  int64_t Flips = 0;       ///< Pure bound-flip pivots.
  int64_t Refactors = 0;   ///< refreshBasicValues() calls.
  int64_t Phase1Iters = 0; ///< Pivots spent in phase 1.
};

Tableau::Tableau(const Model &M, const std::vector<double> &Lower,
                 const std::vector<double> &Upper, const SimplexOptions &Opts,
                 const SolveContext *Ctx)
    : OptsP(&Opts), CtxP(Ctx), NumRows(M.numConstraints()),
      NumStruct(M.numVariables()), FirstArtificial(NumStruct + NumRows) {
  Obj.assign(size_t(NumStruct), 0.0);
  for (int Col = 0; Col < NumStruct; ++Col)
    Obj[Col] = M.variable(Col).Objective;

  // Column bounds: structural variables first, then one slack per row.
  Lo.assign(Lower.begin(), Lower.end());
  Up.assign(Upper.begin(), Upper.end());
  Lo.resize(FirstArtificial);
  Up.resize(FirstArtificial);
  for (int Row = 0; Row < NumRows; ++Row) {
    int SlackCol = NumStruct + Row;
    switch (M.constraint(Row).Sense) {
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
  }

  // Rest every structural variable at a finite bound (or 0 when free) and
  // compute the residual each row's slack must absorb.
  Status.assign(FirstArtificial, ColStatus::AtLower);
  for (int Col = 0; Col < NumStruct; ++Col) {
    if (std::isfinite(Lo[Col]))
      Status[Col] = ColStatus::AtLower;
    else if (std::isfinite(Up[Col]))
      Status[Col] = ColStatus::AtUpper;
    else
      Status[Col] = ColStatus::Free;
  }

  std::vector<double> Residual(NumRows, 0.0);
  for (int Row = 0; Row < NumRows; ++Row) {
    const Constraint &C = M.constraint(Row);
    double Lhs = 0.0;
    for (const Term &T : C.Terms)
      Lhs += T.second * restingValue(T.first);
    Residual[Row] = C.Rhs - Lhs;
  }

  // Decide, per row, whether the slack can hold the residual; otherwise
  // the row gets an artificial column and the slack rests at the violated
  // (necessarily finite) bound.
  Basis.assign(NumRows, -1);
  BasicValue.assign(NumRows, 0.0);
  std::vector<int> ArtificialSign(NumRows, 0);
  int NumArtificials = 0;
  for (int Row = 0; Row < NumRows; ++Row) {
    int SlackCol = NumStruct + Row;
    double R = Residual[Row];
    if (R >= Lo[SlackCol] - FeasibilityTolerance &&
        R <= Up[SlackCol] + FeasibilityTolerance) {
      Status[SlackCol] = ColStatus::Basic;
      Basis[Row] = SlackCol;
      BasicValue[Row] = std::clamp(R, Lo[SlackCol], Up[SlackCol]);
      continue;
    }
    double Clamped = std::clamp(R, Lo[SlackCol], Up[SlackCol]);
    Status[SlackCol] =
        (Clamped == Lo[SlackCol]) ? ColStatus::AtLower : ColStatus::AtUpper;
    double Excess = R - Clamped;
    ArtificialSign[Row] = Excess > 0 ? 1 : -1;
    int ArtCol = FirstArtificial + NumArtificials++;
    Basis[Row] = ArtCol;
    BasicValue[Row] = std::abs(Excess);
  }

  NumCols = FirstArtificial + NumArtificials;
  Lo.resize(NumCols, 0.0);
  Up.resize(NumCols, infinity());
  std::fill(Lo.begin() + FirstArtificial, Lo.end(), 0.0);
  std::fill(Up.begin() + FirstArtificial, Up.end(), infinity());
  Status.resize(NumCols, ColStatus::Basic);
  std::fill(Status.begin() + FirstArtificial, Status.end(),
            ColStatus::Basic);

  // Fill the tableau. A row whose basis column is an artificial with sign
  // -1 is negated so the initial basis matrix is the identity.
  Tab.assign(size_t(NumRows) * NumCols, 0.0);
  Rhs.assign(NumRows, 0.0);
  for (int Row = 0; Row < NumRows; ++Row) {
    const Constraint &C = M.constraint(Row);
    double Scale = ArtificialSign[Row] < 0 ? -1.0 : 1.0;
    for (const Term &T : C.Terms)
      tab(Row, T.first) += Scale * T.second;
    tab(Row, NumStruct + Row) = Scale; // Slack.
    if (ArtificialSign[Row] != 0)
      tab(Row, Basis[Row]) = 1.0; // Artificial column, already scaled.
    Rhs[Row] = Scale * C.Rhs;
  }

  Cost.assign(NumCols, 0.0);
  CostRow.assign(NumCols, 0.0);
}

void Tableau::rebuildCostRow() {
  CostRow = Cost;
  for (int Row = 0; Row < NumRows; ++Row) {
    double CB = Cost[Basis[Row]];
    if (CB == 0.0)
      continue;
    const double *RowPtr = &Tab[size_t(Row) * NumCols];
    for (int Col = 0; Col < NumCols; ++Col)
      CostRow[Col] -= CB * RowPtr[Col];
  }
  // Basic columns have zero reduced cost by construction; enforce exactly.
  for (int Row = 0; Row < NumRows; ++Row)
    CostRow[Basis[Row]] = 0.0;
}

void Tableau::refreshBasicValues() {
  ++Refactors;
  for (int Row = 0; Row < NumRows; ++Row) {
    double V = Rhs[Row];
    const double *RowPtr = &Tab[size_t(Row) * NumCols];
    for (int Col = 0; Col < NumCols; ++Col) {
      if (Status[Col] == ColStatus::Basic)
        continue;
      double X = restingValue(Col);
      if (X != 0.0)
        V -= RowPtr[Col] * X;
    }
    BasicValue[Row] = V;
  }
}

void Tableau::applyPivot(int LeaveRow, int Enter) {
  double Pivot = tab(LeaveRow, Enter);
  assert(std::abs(Pivot) > PivotTolerance && "pivot too small");
  double *PivRow = &Tab[size_t(LeaveRow) * NumCols];
  double InvPivot = 1.0 / Pivot;
  for (int Col = 0; Col < NumCols; ++Col)
    PivRow[Col] *= InvPivot;
  Rhs[LeaveRow] *= InvPivot;
  PivRow[Enter] = 1.0;
  for (int Row = 0; Row < NumRows; ++Row) {
    if (Row == LeaveRow)
      continue;
    double Factor = tab(Row, Enter);
    if (Factor == 0.0)
      continue;
    double *RowPtr = &Tab[size_t(Row) * NumCols];
    for (int Col = 0; Col < NumCols; ++Col)
      RowPtr[Col] -= Factor * PivRow[Col];
    RowPtr[Enter] = 0.0; // Exactly zero, despite roundoff.
    Rhs[Row] -= Factor * Rhs[LeaveRow];
  }
  double CostFactor = CostRow[Enter];
  if (CostFactor != 0.0) {
    for (int Col = 0; Col < NumCols; ++Col)
      CostRow[Col] -= CostFactor * PivRow[Col];
    CostRow[Enter] = 0.0;
  }
}

int Tableau::chooseEntering(bool Bland) const {
  int Best = -1;
  double BestScore = OptimalityTolerance;
  for (int Col = 0; Col < NumCols; ++Col) {
    if (Status[Col] == ColStatus::Basic)
      continue;
    if (Lo[Col] == Up[Col])
      continue; // Fixed column can never improve.
    double Score = 0.0;
    switch (Status[Col]) {
    case ColStatus::AtLower:
      Score = -CostRow[Col]; // Improves by increasing.
      break;
    case ColStatus::AtUpper:
      Score = CostRow[Col]; // Improves by decreasing.
      break;
    case ColStatus::Free:
      Score = std::abs(CostRow[Col]);
      break;
    case ColStatus::Basic:
      break;
    }
    if (Score <= OptimalityTolerance)
      continue;
    if (Bland)
      return Col; // Smallest eligible index.
    if (Score > BestScore) {
      BestScore = Score;
      Best = Col;
    }
  }
  return Best;
}

LpStatus Tableau::iterate(bool PhaseOne) {
  rebuildCostRow();
  int DegenerateRun = 0;
  bool Bland = false;
  for (;;) {
    if (budgetExceeded())
      return LpStatus::IterationLimit;

    int Enter = chooseEntering(Bland);
    if (Enter < 0)
      return LpStatus::Optimal;

    // Direction the entering variable moves.
    double Dir = 1.0;
    if (Status[Enter] == ColStatus::AtUpper)
      Dir = -1.0;
    else if (Status[Enter] == ColStatus::Free)
      Dir = CostRow[Enter] < 0 ? 1.0 : -1.0;

    // Ratio test: the step is limited by the entering column's own span
    // (a bound flip) and by each basic variable hitting one of its
    // bounds. Ties between rows prefer the larger |pivot| (stability), or
    // the smallest basis index under Bland's rule.
    double BestT = Up[Enter] - Lo[Enter]; // May be +inf (free/one-sided).
    int LeaveRow = -1;
    double LeavePivot = 0.0;
    bool LeaveAtUpper = false;
    for (int Row = 0; Row < NumRows; ++Row) {
      double Alpha = tab(Row, Enter);
      if (std::abs(Alpha) <= PivotTolerance)
        continue;
      double Rate = -Dir * Alpha; // d(BasicValue[Row]) / dStep.
      int BV = Basis[Row];
      double T;
      bool HitsUpper;
      if (Rate < 0) {
        if (!std::isfinite(Lo[BV]))
          continue;
        T = (BasicValue[Row] - Lo[BV]) / -Rate;
        HitsUpper = false;
      } else {
        if (!std::isfinite(Up[BV]))
          continue;
        T = (Up[BV] - BasicValue[Row]) / Rate;
        HitsUpper = true;
      }
      if (T < 0)
        T = 0; // Roundoff pushed a basic value slightly out of bounds.
      bool Take = false;
      if (T < BestT - 1e-12) {
        Take = true;
      } else if (LeaveRow >= 0 && T <= BestT + 1e-12) {
        Take = Bland ? BV < Basis[LeaveRow]
                     : std::abs(Alpha) > std::abs(LeavePivot);
      }
      if (Take) {
        BestT = std::min(BestT, T);
        LeaveRow = Row;
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

    // Apply the step to all basic values.
    if (BestT > 0) {
      for (int Row = 0; Row < NumRows; ++Row) {
        double Alpha = tab(Row, Enter);
        if (Alpha != 0.0)
          BasicValue[Row] -= Dir * BestT * Alpha;
      }
    }

    if (LeaveRow < 0) {
      // Pure bound flip: the entering variable moves to its other bound.
      ++Flips;
      assert(std::isfinite(BestT) && "flip distance must be finite");
      Status[Enter] = Status[Enter] == ColStatus::AtLower
                          ? ColStatus::AtUpper
                          : ColStatus::AtLower;
      continue;
    }

    // Pivot: Enter becomes basic in LeaveRow; the old basic variable
    // leaves at the bound it hit.
    int Leave = Basis[LeaveRow];
    double EnterValue = restingValue(Enter) + Dir * BestT;
    Status[Leave] = LeaveAtUpper ? ColStatus::AtUpper : ColStatus::AtLower;
    Status[Enter] = ColStatus::Basic;
    Basis[LeaveRow] = Enter;
    BasicValue[LeaveRow] = EnterValue;

    applyPivot(LeaveRow, Enter);

    // Periodically flush floating-point drift in the basic values.
    if (Iters % 256 == 0)
      refreshBasicValues();
  }
}

LpStatus Tableau::run() {
  if (NumCols > FirstArtificial) {
    // Phase 1: minimize the sum of the artificial columns.
    std::fill(Cost.begin(), Cost.end(), 0.0);
    for (int Col = FirstArtificial; Col < NumCols; ++Col)
      Cost[Col] = 1.0;
    LpStatus S = iterate(/*PhaseOne=*/true);
    Phase1Iters = Iters;
    if (S == LpStatus::IterationLimit)
      return S;
    assert(S == LpStatus::Optimal && "phase 1 cannot be unbounded");
    refreshBasicValues();
    double Infeasibility = 0.0;
    for (int Row = 0; Row < NumRows; ++Row)
      if (Basis[Row] >= FirstArtificial)
        Infeasibility += std::max(0.0, BasicValue[Row]);
    for (int Col = FirstArtificial; Col < NumCols; ++Col)
      if (Status[Col] == ColStatus::AtUpper) // Unbounded above: impossible.
        assert(false && "artificial nonbasic at infinite bound");
    if (Infeasibility > 1e-6)
      return LpStatus::Infeasible;
    // Pin the artificials at zero for phase 2. Basic artificials at value
    // ~zero are harmless: their [0,0] bounds block any move away from 0.
    for (int Col = FirstArtificial; Col < NumCols; ++Col) {
      Lo[Col] = 0.0;
      Up[Col] = 0.0;
    }
  }

  // Phase 2: the real objective on the structural columns.
  std::fill(Cost.begin(), Cost.end(), 0.0);
  std::copy(Obj.begin(), Obj.end(), Cost.begin());
  LpStatus S = iterate(/*PhaseOne=*/false);
  if (S == LpStatus::Optimal)
    refreshBasicValues();
  return S;
}

std::vector<double> Tableau::structuralValues() const {
  std::vector<double> X(NumStruct, 0.0);
  for (int Col = 0; Col < NumStruct; ++Col)
    if (Status[Col] != ColStatus::Basic)
      X[Col] = restingValue(Col);
  for (int Row = 0; Row < NumRows; ++Row)
    if (Basis[Row] < NumStruct)
      X[Basis[Row]] = BasicValue[Row];
  return X;
}

/// Copies \p E's effort counters and (when optimal) solution into a
/// fresh LpResult and adds them to the lp/* counters. \p EngineT is
/// Tableau or SparseRevisedSimplex.
template <typename EngineT>
LpResult collectResult(const EngineT &E, LpStatus S, const Model &M) {
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

  if (Opts.Engine == SimplexEngine::Dense) {
    // The reference engine always solves cold on a local tableau.
    Tableau T(M, Lower, Upper, Opts, Ctx);
    LpStatus S = T.run();
    ++StatColdSolves;
    return collectResult(T, S, M);
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
