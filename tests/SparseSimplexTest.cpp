//===- tests/SparseSimplexTest.cpp - sparse engine differential -----------===//
//
// Differential tests of the sparse revised simplex engine
// (lp/SparseRevisedSimplex.h) against the dense tableau oracle
// (tests/DenseSimplex.h): on random bounded LPs, on warm-started
// branch-style re-solves and on every Formulation-built scheduling
// model, both must agree on feasibility verdicts and on objectives to
// 1e-6. Also unit-tests the sparse linear-algebra substrate
// (SparseMatrix compilation caching, LU factorization, eta updates,
// FTRAN/BTRAN) and the anti-cycling Bland fallback of both on Beale's
// cycling LP, and pins the sparse engine's exact solver effort on a few
// kernels.
//
//===----------------------------------------------------------------------===//

#include "DenseSimplex.h"

#include "ilpsched/Formulation.h"
#include "ilpsched/OptimalScheduler.h"
#include "lp/LuFactor.h"
#include "lp/Model.h"
#include "lp/Simplex.h"
#include "lp/SolveContext.h"
#include "lp/SparseMatrix.h"
#include "machine/MachineModel.h"
#include "sched/Mii.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

using namespace modsched;
using namespace modsched::lp;

namespace {

/// Builds a random bounded LP; roughly half the instances are
/// 0-1-structured like the paper's formulations (the same generator
/// shape as tests/SimplexWarmStartTest.cpp).
Model randomModel(Rng &R) {
  Model M;
  int NumVars = static_cast<int>(R.nextInRange(3, 12));
  bool ZeroOne = R.nextBool(0.5);
  bool Anchored = R.nextBool(0.7);
  std::vector<double> Anchor;
  for (int V = 0; V < NumVars; ++V) {
    double Lo, Up;
    if (ZeroOne) {
      Lo = 0.0;
      Up = 1.0;
    } else {
      Lo = static_cast<double>(R.nextInRange(-5, 3));
      Up = Lo + static_cast<double>(R.nextInRange(0, 9));
    }
    double Obj = static_cast<double>(R.nextInRange(-5, 5));
    M.addVariable("x" + std::to_string(V), Lo, Up, Obj);
    Anchor.push_back(static_cast<double>(
        R.nextInRange(static_cast<int64_t>(Lo), static_cast<int64_t>(Up))));
  }
  int NumCons = static_cast<int>(R.nextInRange(2, 10));
  for (int C = 0; C < NumCons; ++C) {
    std::vector<Term> Terms;
    int NumTerms = static_cast<int>(R.nextInRange(1, std::min(NumVars, 6)));
    for (int T = 0; T < NumTerms; ++T) {
      int Var = static_cast<int>(R.nextBelow(NumVars));
      double Coeff = ZeroOne ? (R.nextBool(0.5) ? 1.0 : -1.0)
                             : static_cast<double>(R.nextInRange(-3, 3));
      if (Coeff != 0.0)
        Terms.push_back({Var, Coeff});
    }
    if (Terms.empty())
      continue;
    ConstraintSense Sense =
        C % 3 == 0 ? ConstraintSense::LE
                   : (C % 3 == 1 ? ConstraintSense::GE : ConstraintSense::EQ);
    double Rhs;
    if (Anchored) {
      double Activity = 0.0;
      for (const Term &T : Terms)
        Activity += T.second * Anchor[T.first];
      double Slack = static_cast<double>(R.nextInRange(0, 4));
      Rhs = Sense == ConstraintSense::LE   ? Activity + Slack
            : Sense == ConstraintSense::GE ? Activity - Slack
                                           : Activity;
    } else {
      Rhs = static_cast<double>(Sense == ConstraintSense::EQ
                                    ? R.nextInRange(-2, 2)
                                    : R.nextInRange(-6, 8));
    }
    M.addConstraint(std::move(Terms), Sense, Rhs);
  }
  return M;
}

/// Solves \p M with SimplexSolver and the dense oracle and asserts they
/// agree on the verdict (and on the objective when optimal). Returns the
/// SimplexSolver result.
LpResult expectEnginesAgree(const Model &M, const std::string &What) {
  LpResult Dense = test::DenseSimplex().solve(M);
  LpResult Sparse = SimplexSolver().solve(M);
  EXPECT_EQ(Dense.Status, Sparse.Status)
      << What << ": engine verdicts disagree\n"
      << M.toString();
  if (Dense.Status == LpStatus::Optimal &&
      Sparse.Status == LpStatus::Optimal) {
    EXPECT_NEAR(Dense.Objective, Sparse.Objective, 1e-6)
        << What << ": engine objectives disagree\n"
        << M.toString();
    std::string Why;
    EXPECT_TRUE(M.isFeasible(Sparse.Values, 1e-6, &Why))
        << What << ": sparse solution infeasible: " << Why;
  }
  return Sparse;
}

} // namespace

//===----------------------------------------------------------------------===//
// SparseMatrix: compilation, hygiene, and revision-keyed caching
//===----------------------------------------------------------------------===//

TEST(SparseMatrix, CompileMirrorsCanonicalModel) {
  // Model hygiene: duplicated terms merge and zero coefficients drop on
  // addConstraint, so the compiled CSC/CSR must mirror the canonical
  // constraint data exactly — dense and sparse engines read the same
  // coefficients or every differential test below is meaningless.
  Model M;
  int X = M.addVariable("x", 0, 10);
  int Y = M.addVariable("y", 0, 10);
  int Z = M.addVariable("z", 0, 10);
  M.addConstraint({{X, 1.0}, {X, 2.0}, {Y, 0.5}, {Y, -0.5}, {Z, 4.0}},
                  ConstraintSense::LE, 5.0); // => 3x + 4z <= 5
  M.addConstraint({{Y, -1.0}, {Z, 0.0}}, ConstraintSense::GE, -2.0);
  // => -y >= -2

  SparseMatrix A;
  A.compile(M);
  ASSERT_EQ(A.NumRows, 2);
  ASSERT_EQ(A.NumCols, 3);
  ASSERT_EQ(A.numNonzeros(), 3);

  // CSC: column x holds {row 0: 3}, y holds {row 1: -1}, z {row 0: 4}.
  ASSERT_EQ(A.ColStart[X + 1] - A.ColStart[X], 1);
  EXPECT_EQ(A.RowIndex[A.ColStart[X]], 0);
  EXPECT_DOUBLE_EQ(A.Value[A.ColStart[X]], 3.0);
  ASSERT_EQ(A.ColStart[Y + 1] - A.ColStart[Y], 1);
  EXPECT_EQ(A.RowIndex[A.ColStart[Y]], 1);
  EXPECT_DOUBLE_EQ(A.Value[A.ColStart[Y]], -1.0);
  ASSERT_EQ(A.ColStart[Z + 1] - A.ColStart[Z], 1);
  EXPECT_EQ(A.RowIndex[A.ColStart[Z]], 0);
  EXPECT_DOUBLE_EQ(A.Value[A.ColStart[Z]], 4.0);

  // CSR row 0 must list exactly the canonical terms of constraint 0.
  const Constraint &C0 = M.constraint(0);
  ASSERT_EQ(A.RowStart[1] - A.RowStart[0],
            static_cast<int>(C0.Terms.size()));
  for (int P = A.RowStart[0]; P < A.RowStart[1]; ++P) {
    const Term &T = C0.Terms[P - A.RowStart[0]];
    EXPECT_EQ(A.ColIndex[P], T.first);
    EXPECT_DOUBLE_EQ(A.RValue[P], T.second);
  }
}

TEST(SparseMatrix, CacheKeyedOnModelRevision) {
  Model M;
  int X = M.addVariable("x", 0, 1);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 1.0);
  SparseMatrix A;
  EXPECT_FALSE(A.matches(M));
  A.compile(M);
  EXPECT_TRUE(A.matches(M));
  // Out-of-band bound arrays (the branch-and-bound pattern) do not
  // mutate the model, so the compiled matrix stays valid; a structural
  // mutation bumps the revision and invalidates it.
  M.addConstraint({{X, 1.0}}, ConstraintSense::GE, 0.0);
  EXPECT_FALSE(A.matches(M));
  A.compile(M);
  EXPECT_TRUE(A.matches(M));
}

//===----------------------------------------------------------------------===//
// LuFactor: factorization, solves, eta updates
//===----------------------------------------------------------------------===//

namespace {

/// CSC triplet helper for tiny LU tests.
struct TinyBasis {
  int Dim;
  std::vector<int> ColStart, Rows;
  std::vector<double> Vals;
};

TinyBasis tinyBasis(int Dim,
                    const std::vector<std::vector<std::pair<int, double>>>
                        &Cols) {
  TinyBasis B;
  B.Dim = Dim;
  B.ColStart.push_back(0);
  for (const auto &Col : Cols) {
    for (const auto &[Row, V] : Col) {
      B.Rows.push_back(Row);
      B.Vals.push_back(V);
    }
    B.ColStart.push_back(static_cast<int>(B.Rows.size()));
  }
  return B;
}

} // namespace

TEST(LuFactor, FtranBtranRoundTrip) {
  // B = [[2,1,0],[0,1,0],[1,0,3]] (columns in basis-position order).
  TinyBasis B = tinyBasis(
      3, {{{0, 2.0}, {2, 1.0}}, {{0, 1.0}, {1, 1.0}}, {{2, 3.0}}});
  LuFactor Lu;
  ASSERT_TRUE(Lu.factor(B.Dim, B.ColStart, B.Rows, B.Vals, 1e-10));
  EXPECT_TRUE(Lu.valid());

  // FTRAN: solve B x = e0 + e2; exact solution by hand:
  //   2x0 + x1 = 1; x1 = 0; x0 + 3x2 = 1 => x = (1/2, 0, 1/6).
  ScatteredVector X;
  X.resize(3);
  X.set(0, 1.0);
  X.set(2, 1.0);
  Lu.ftran(X);
  EXPECT_NEAR(X.Val[0], 0.5, 1e-12);
  EXPECT_NEAR(X.Val[1], 0.0, 1e-12);
  EXPECT_NEAR(X.Val[2], 1.0 / 6.0, 1e-12);

  // BTRAN: solve B^T y = e1 (basis position 1):
  //   col 1 of B is (1,1,0) => y0*1 + y1*1 = 1 with y from
  //   B^T y = e1: 2y0 + 0 + y2 = 0; y0 + y1 = 1; 3y2 = 0
  //   => y2 = 0, y0 = 0, y1 = 1.
  ScatteredVector Y;
  Y.resize(3);
  Y.set(1, 1.0);
  Lu.btran(Y);
  EXPECT_NEAR(Y.Val[0], 0.0, 1e-12);
  EXPECT_NEAR(Y.Val[1], 1.0, 1e-12);
  EXPECT_NEAR(Y.Val[2], 0.0, 1e-12);
}

TEST(LuFactor, DetectsSingularBasis) {
  // Two identical columns: structurally nonsingular, numerically rank 1.
  TinyBasis B = tinyBasis(2, {{{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}});
  LuFactor Lu;
  EXPECT_FALSE(Lu.factor(B.Dim, B.ColStart, B.Rows, B.Vals, 1e-10));
  EXPECT_FALSE(Lu.valid());
}

TEST(LuFactor, EtaUpdateMatchesRefactorization) {
  // Start from B0 = I (3x3), replace position 1 with column (1, 2, 1):
  // B1 = [[1,1,0],[0,2,0],[0,1,1]]. An FTRAN through the eta file must
  // equal the FTRAN of a fresh factorization of B1.
  TinyBasis I3 = tinyBasis(3, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}});
  LuFactor Lu;
  ASSERT_TRUE(Lu.factor(I3.Dim, I3.ColStart, I3.Rows, I3.Vals, 1e-10));

  // W = B0^-1 * a = a for B0 = I.
  ScatteredVector W;
  W.resize(3);
  W.set(0, 1.0);
  W.set(1, 2.0);
  W.set(2, 1.0);
  ASSERT_TRUE(Lu.update(1, W, 1e-10));
  EXPECT_EQ(Lu.etaCount(), 1);

  ScatteredVector X;
  X.resize(3);
  X.set(0, 3.0);
  X.set(1, 4.0);
  X.set(2, 5.0);
  Lu.ftran(X);

  TinyBasis B1 = tinyBasis(
      3, {{{0, 1.0}}, {{0, 1.0}, {1, 2.0}, {2, 1.0}}, {{2, 1.0}}});
  LuFactor Fresh;
  ASSERT_TRUE(Fresh.factor(B1.Dim, B1.ColStart, B1.Rows, B1.Vals, 1e-10));
  ScatteredVector X2;
  X2.resize(3);
  X2.set(0, 3.0);
  X2.set(1, 4.0);
  X2.set(2, 5.0);
  Fresh.ftran(X2);

  for (int K = 0; K < 3; ++K)
    EXPECT_NEAR(X.Val[K], X2.Val[K], 1e-12) << "position " << K;

  // And the BTRAN images must agree too.
  ScatteredVector Y, Y2;
  Y.resize(3);
  Y2.resize(3);
  Y.set(1, 1.0);
  Y2.set(1, 1.0);
  Lu.btran(Y);
  Fresh.btran(Y2);
  for (int K = 0; K < 3; ++K)
    EXPECT_NEAR(Y.Val[K], Y2.Val[K], 1e-12) << "row " << K;
}

TEST(LuFactor, RejectsZeroPivotEta) {
  TinyBasis I2 = tinyBasis(2, {{{0, 1.0}}, {{1, 1.0}}});
  LuFactor Lu;
  ASSERT_TRUE(Lu.factor(I2.Dim, I2.ColStart, I2.Rows, I2.Vals, 1e-10));
  ScatteredVector W;
  W.resize(2);
  W.set(0, 1.0); // W[1] == 0: pivot for position 1 unacceptable.
  EXPECT_FALSE(Lu.update(1, W, 1e-10));
  EXPECT_EQ(Lu.etaCount(), 0); // Factorization left unchanged.
}

namespace {

using SparseColumn = std::vector<std::pair<int, double>>;

/// Random column with 1-3 off-diagonal {-1, +1} entries and, when
/// \p Diag >= 0, a +-4 entry on row Diag (column diagonal dominance
/// keeps the basis nonsingular).
SparseColumn randomColumn(Rng &R, int Dim, int Diag) {
  SparseColumn Col;
  std::vector<char> Used(Dim, 0);
  if (Diag >= 0) {
    Col.push_back({Diag, R.nextBool(0.5) ? 4.0 : -4.0});
    Used[Diag] = 1;
  }
  const int Off = static_cast<int>(R.nextInRange(1, 3));
  for (int I = 0; I < Off; ++I) {
    const int Row = static_cast<int>(R.nextBelow(Dim));
    if (Used[Row])
      continue;
    Used[Row] = 1;
    Col.push_back({Row, R.nextBool(0.5) ? 1.0 : -1.0});
  }
  return Col;
}

/// Right-hand side with 1-3 nonzeros, the shape of a pivot column or a
/// unit BTRAN seed.
ScatteredVector sparseRhs(Rng &R, int Dim) {
  ScatteredVector V;
  V.resize(Dim);
  const int Nnz = static_cast<int>(R.nextInRange(1, 3));
  for (int I = 0; I < Nnz; ++I)
    V.set(static_cast<int>(R.nextBelow(Dim)),
          static_cast<double>(R.nextInRange(-3, 3)) + 0.5);
  return V;
}

/// max_r |(B x)_r - b_r| for x indexed by basis position.
double ftranResidual(const std::vector<SparseColumn> &B,
                     const ScatteredVector &X, const ScatteredVector &Rhs) {
  std::vector<double> Bx(B.size(), 0.0);
  for (size_t C = 0; C < B.size(); ++C)
    for (const auto &[Row, V] : B[C])
      Bx[Row] += V * X.Val[C];
  double Worst = 0.0;
  for (size_t Row = 0; Row < B.size(); ++Row)
    Worst = std::max(Worst, std::abs(Bx[Row] - Rhs.Val[Row]));
  return Worst;
}

/// max_c |(B^T y)_c - c_c| for y indexed by constraint row.
double btranResidual(const std::vector<SparseColumn> &B,
                     const ScatteredVector &Y, const ScatteredVector &Rhs) {
  double Worst = 0.0;
  for (size_t C = 0; C < B.size(); ++C) {
    double Dot = 0.0;
    for (const auto &[Row, V] : B[C])
      Dot += V * Y.Val[Row];
    Worst = std::max(Worst, std::abs(Dot - Rhs.Val[C]));
  }
  return Worst;
}

} // namespace

TEST(LuFactor, SparseRhsSolvesOnRealisticBasis) {
  // A 96-row {-1, 0, +1} basis with a dominant diagonal, factored and
  // then updated by a few etas. Right-hand sides with 1-3 nonzeros are
  // the inputs LP pivots feed the solves; the residuals of B x = b and
  // B^T y = c must stay tiny, and FTRAN through the eta file must match
  // FTRAN through a fresh factorization of the updated basis.
  constexpr int Dim = 96;
  constexpr double MinPivot = 1e-10;
  Rng R(20261017);
  std::vector<SparseColumn> B;
  for (int C = 0; C < Dim; ++C)
    B.push_back(randomColumn(R, Dim, C));
  LuFactor Lu;
  {
    TinyBasis TB = tinyBasis(Dim, B);
    ASSERT_TRUE(Lu.factor(Dim, TB.ColStart, TB.Rows, TB.Vals, MinPivot));
  }

  for (int Round = 0; Round <= 6; ++Round) {
    if (Round > 0) {
      // Replace a random position with a column whose pivot element is
      // comfortably nonzero, keeping the basis nonsingular.
      for (;;) {
        const int Pos = static_cast<int>(R.nextBelow(Dim));
        SparseColumn A = randomColumn(R, Dim, R.nextBool(0.5) ? Pos : -1);
        ScatteredVector W;
        W.resize(Dim);
        for (const auto &[Row, V] : A)
          W.set(Row, V);
        Lu.ftran(W);
        if (std::abs(W.Val[Pos]) < 0.5)
          continue;
        ASSERT_TRUE(Lu.update(Pos, W, MinPivot));
        B[Pos] = A;
        break;
      }
    }
    ASSERT_EQ(Lu.etaCount(), Round);

    TinyBasis TB = tinyBasis(Dim, B);
    LuFactor Fresh;
    ASSERT_TRUE(Fresh.factor(Dim, TB.ColStart, TB.Rows, TB.Vals, MinPivot));
    for (int Trial = 0; Trial < 20; ++Trial) {
      const ScatteredVector Rhs = sparseRhs(R, Dim);
      ScatteredVector X = Rhs, XFresh = Rhs;
      Lu.ftran(X);
      Fresh.ftran(XFresh);
      EXPECT_LE(ftranResidual(B, X, Rhs), 1e-9) << "round " << Round;
      for (int Pos = 0; Pos < Dim; ++Pos)
        EXPECT_NEAR(X.Val[Pos], XFresh.Val[Pos], 1e-9)
            << "round " << Round << " position " << Pos;

      const ScatteredVector Cost = sparseRhs(R, Dim);
      ScatteredVector Y = Cost;
      Lu.btran(Y);
      EXPECT_LE(btranResidual(B, Y, Cost), 1e-9) << "round " << Round;
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine differential: random LPs
//===----------------------------------------------------------------------===//

TEST(SparseSimplex, DifferentialAgainstDenseOnRandomLps) {
  // ~200 random bounded LPs across two independent streams: both
  // engines must agree on every feasibility verdict and on every
  // optimal objective to 1e-6.
  int Optimal = 0, Infeasible = 0;
  for (uint64_t Seed : {uint64_t(20260806), uint64_t(4242)}) {
    Rng R(Seed);
    for (int I = 0; I < 100; ++I) {
      Model M = randomModel(R);
      LpResult S = expectEnginesAgree(
          M, "seed " + std::to_string(Seed) + " model " +
                 std::to_string(I));
      if (S.Status == LpStatus::Optimal)
        ++Optimal;
      else if (S.Status == LpStatus::Infeasible)
        ++Infeasible;
    }
  }
  // The generator must exercise both verdicts for the differential to
  // mean anything.
  EXPECT_GE(Optimal, 100);
  EXPECT_GE(Infeasible, 10);
}

TEST(SparseSimplex, WarmStartChainsMatchDenseCold) {
  // The branch-and-bound resolve pattern under the sparse engine:
  // parent solve, then chains of bound tightenings warm-started from
  // the parent basis, each checked against a cold dense solve.
  Rng R(777);
  int Children = 0, WarmStarted = 0;
  for (int I = 0; I < 40; ++I) {
    Model M = randomModel(R);
    SolveContext Ctx;
    SimplexSolver Sparse;
    std::vector<double> Lower, Upper;
    M.getBounds(Lower, Upper);
    LpResult Parent = Sparse.solve(M, Lower, Upper, &Ctx);
    if (Parent.Status != LpStatus::Optimal || Parent.FinalBasis.empty())
      continue;
    Basis B = Parent.FinalBasis;
    std::vector<double> X = Parent.Values;
    for (int Level = 0; Level < 3; ++Level) {
      // Tighten one variable branch-style around its LP value.
      int Var = -1;
      for (int V = 0; V < M.numVariables(); ++V) {
        double F = std::floor(X[V]);
        if (F < Upper[V] && F >= Lower[V]) {
          Var = V;
          Upper[V] = F;
          break;
        }
      }
      if (Var < 0)
        break;
      ++Children;
      LpResult WarmChild = Sparse.solve(M, Lower, Upper, &Ctx, &B);
      LpResult ColdChild = test::DenseSimplex().solve(M, Lower, Upper);
      ASSERT_EQ(WarmChild.Status, ColdChild.Status)
          << "sparse-warm vs dense-cold disagree at model " << I
          << " level " << Level << "\n"
          << M.toString();
      if (WarmChild.WarmStarted)
        ++WarmStarted;
      if (WarmChild.Status != LpStatus::Optimal)
        break;
      EXPECT_NEAR(WarmChild.Objective, ColdChild.Objective, 1e-6)
          << M.toString();
      if (WarmChild.FinalBasis.empty())
        break;
      B = WarmChild.FinalBasis;
      X = WarmChild.Values;
    }
  }
  EXPECT_GE(Children, 30) << "generator produced too few children";
  EXPECT_GE(WarmStarted, Children / 2)
      << "sparse warm starts fell back to cold too often";
}

TEST(SparseSimplex, BealeCyclingLpTerminatesUnderBland) {
  // Beale's classic cycling example, with its second row divided by 4 so
  // that the max-|alpha| ratio-test tie-break picks the same leaving row
  // as the textbook: Dantzig pricing then cycles at the degenerate origin
  // forever. The sparse engine prices partially until 32 degenerate
  // pivots in a row, which walks off Beale's cycle, so a separate chain
  // s_0 <= s_1 <= ... <= s_39 <= 0 of more attractive columns, listed
  // first, absorbs that stretch before Dantzig pricing reaches Beale's
  // block. SimplexSolver and the dense oracle must both cycle past
  // lp::DegenerateLimit, switch to Bland's rule, and reach the true
  // optimum -1/20.
  constexpr int ChainLength = 40;
  for (bool Oracle : {true, false}) {
    Model M;
    std::vector<int> Chain;
    for (int I = 0; I < ChainLength; ++I)
      Chain.push_back(M.addVariable("s" + std::to_string(I), 0,
                                    infinity(), -10.0));
    int X = M.addVariable("x", 0, infinity(), -0.75);
    int Y = M.addVariable("y", 0, infinity(), 150.0);
    int Z = M.addVariable("z", 0, infinity(), -0.02);
    int W = M.addVariable("w", 0, infinity(), 6.0);
    M.addConstraint({{X, 0.25}, {Y, -60.0}, {Z, -0.04}, {W, 9.0}},
                    ConstraintSense::LE, 0.0);
    M.addConstraint({{X, 0.125}, {Y, -22.5}, {Z, -0.005}, {W, 0.75}},
                    ConstraintSense::LE, 0.0);
    M.addConstraint({{Z, 1.0}}, ConstraintSense::LE, 1.0);
    for (int I = 0; I + 1 < ChainLength; ++I)
      M.addConstraint({{Chain[I], 1.0}, {Chain[I + 1], -1.0}},
                      ConstraintSense::LE, 0.0);
    M.addConstraint({{Chain.back(), 1.0}}, ConstraintSense::LE, 0.0);

    SimplexOptions Opts;
    Opts.MaxIterations = 10000;
    LpResult R = Oracle ? test::DenseSimplex(Opts).solve(M)
                        : SimplexSolver(Opts).solve(M);
    const char *Which = Oracle ? "dense oracle" : "SimplexSolver";
    ASSERT_EQ(R.Status, LpStatus::Optimal) << Which;
    EXPECT_NEAR(R.Objective, -0.05, 1e-9) << Which;
    // The default pricing really cycled into the fallback; the chain
    // alone accounts for fewer than ChainLength degenerate pivots.
    EXPECT_GT(R.DegeneratePivots, lp::DegenerateLimit) << Which;
  }
}

TEST(SparseSimplex, ContextDeadlineObserved) {
  // The sparse engine must poll the per-attempt context: an
  // already-expired deadline reports IterationLimit.
  Model M;
  int X = M.addVariable("x", 0, infinity(), -1.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  SolveContext Ctx;
  Ctx.tightenDeadline(-1.0);
  EXPECT_EQ(SimplexSolver().solve(M, Lower, Upper, &Ctx).Status,
            LpStatus::IterationLimit);
}

TEST(SparseSimplex, ReportsFactorizationTelemetry) {
  // A solve must report at least one LU factorization.
  Model M;
  int X = M.addVariable("x", 0, infinity(), -3.0);
  int Y = M.addVariable("y", 0, infinity(), -5.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  M.addConstraint({{Y, 2.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 18.0);
  LpResult Sparse = SimplexSolver().solve(M);
  ASSERT_EQ(Sparse.Status, LpStatus::Optimal);
  EXPECT_GE(Sparse.Refactorizations, 1);

  // Every factorization counts under exactly one cause. The MinReg
  // search of livermore1-hydro on cydraLike (68 nodes) takes a cold
  // start, warm rebuilds and refactorizations at both eta-file limits.
  const char *Causes[] = {"cold", "warm", "eta_count", "eta_fill",
                          "eta_pivot"};
  auto Counter = [](const std::string &Name) {
    telemetry::Counter *C = telemetry::findCounter("lp/factor." + Name);
    EXPECT_NE(C, nullptr) << Name;
    return C ? C->value() : 0;
  };
  auto Snapshot = [&] {
    std::vector<int64_t> V{Counter("refactorizations")};
    for (const char *Cause : Causes)
      V.push_back(Counter(std::string("refactor_") + Cause));
    return V;
  };
  const std::vector<int64_t> Before = Snapshot();
  const MachineModel Cydra = MachineModel::cydraLike();
  SchedulerOptions Opts;
  Opts.Formulation.Obj = Objective::MinReg;
  Opts.NodeLimit = 2000;
  Opts.TimeLimitSeconds = 3600.0;
  EXPECT_TRUE(
      OptimalModuloScheduler(Cydra, Opts).schedule(livermore1(Cydra)).Found);
  const std::vector<int64_t> After = Snapshot();
  int64_t Sum = 0;
  for (size_t I = 1; I < After.size(); ++I) {
    Sum += After[I] - Before[I];
    if (I <= 4) {
      EXPECT_GT(After[I], Before[I]) << Causes[I - 1];
    }
  }
  EXPECT_EQ(Sum, After[0] - Before[0]);
}

//===----------------------------------------------------------------------===//
// Engine differential: Formulation-built scheduling models
//===----------------------------------------------------------------------===//

TEST(SparseSimplex, DifferentialOnFormulationModels) {
  // Every kernel's structured and traditional LP relaxation at MII:
  // these are the exact matrices the branch-and-bound nodes solve, and
  // SimplexSolver and the dense oracle must price them identically.
  MachineModel M = MachineModel::cydraLike();
  for (const DependenceGraph &G : allKernels(M)) {
    int Mii = mii(G, M);
    for (DependenceStyle Dep :
         {DependenceStyle::Structured, DependenceStyle::Traditional}) {
      FormulationOptions FOpts;
      FOpts.Obj = Objective::MinReg;
      FOpts.DepStyle = Dep;
      Formulation F(G, M, Mii, FOpts);
      if (!F.valid())
        continue;
      expectEnginesAgree(F.model(),
                         G.name() + (Dep == DependenceStyle::Structured
                                         ? " structured"
                                         : " traditional"));
    }
  }
}

TEST(SparseSimplex, PinnedSolverEffortOnCydra) {
  // Exact B&B and LP effort of the sparse engine on a few kernels: the
  // node LPs' floating-point arithmetic order steers pivoting, and with
  // it the search tree, so any change to that order (LU solves, eta
  // application, pricing) moves these counts. complex-multiply runs
  // into the node budget; the others are decided within it.
  struct Pin {
    DependenceGraph (*Kernel)(const MachineModel &);
    Objective Obj;
    int64_t Nodes, Iterations, Refactorizations, EtaNonzeros;
  };
  const Pin Pins[] = {
      {livermore1, Objective::MinReg, 68, 2457, 59, 265116},
      {livermore1, Objective::MinLife, 42, 508, 26, 43126},
      {complexMultiply, Objective::MinReg, 200, 10401, 210, 1032088},
      {complexMultiply, Objective::MinLife, 200, 3833, 112, 595623},
      {secondOrderRecurrence, Objective::MinReg, 54, 1735, 40, 146813},
      {secondOrderRecurrence, Objective::MinLife, 2, 147, 4, 10030},
      {livermore3Unrolled2, Objective::MinReg, 50, 890, 30, 46900},
      {livermore3Unrolled2, Objective::MinLife, 12, 264, 10, 12704},
      {backSubstitution, Objective::MinReg, 40, 758, 26, 41868},
      {backSubstitution, Objective::MinLife, 22, 253, 14, 14503},
  };
  MachineModel M = MachineModel::cydraLike();
  for (const Pin &P : Pins) {
    const DependenceGraph G = P.Kernel(M);
    SchedulerOptions Opts;
    Opts.Backend = SchedulerBackend::Ilp;
    Opts.Formulation.Obj = P.Obj;
    Opts.Formulation.DepStyle = DependenceStyle::Structured;
    Opts.NodeLimit = 200;
    Opts.TimeLimitSeconds = 60.0;
    Opts.Explain = false;
    Opts.Cache = false;
    ScheduleResult R = OptimalModuloScheduler(M, Opts).schedule(G);
    const std::string What =
        G.name() + (P.Obj == Objective::MinReg ? " MinReg" : " MinLife");
    ASSERT_FALSE(R.TimedOut) << What;
    EXPECT_EQ(R.Found, !R.NodeLimitHit) << What;
    EXPECT_EQ(R.Nodes, P.Nodes) << What;
    EXPECT_EQ(R.SimplexIterations, P.Iterations) << What;
    EXPECT_EQ(R.LpRefactorizations, P.Refactorizations) << What;
    EXPECT_EQ(R.LpEtaNonzeros, P.EtaNonzeros) << What;
  }
}
