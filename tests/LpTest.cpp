//===- tests/LpTest.cpp - simplex solver tests ----------------------------===//

#include "lp/Model.h"
#include "lp/Simplex.h"
#include "lp/SolveContext.h"

#include <gtest/gtest.h>

using namespace modsched;
using namespace modsched::lp;

namespace {

/// The Simplex.* cases run once per engine: the production sparse
/// engine and the dense reference engine the differential tests trust.
class Simplex : public ::testing::TestWithParam<SimplexEngine> {
protected:
  SimplexSolver solver(SimplexOptions Opts = {}) const {
    Opts.Engine = GetParam();
    return SimplexSolver(Opts);
  }
  LpResult solveModel(const Model &M) const { return solver().solve(M); }
};

} // namespace

TEST(Model, CanonicalizesTerms) {
  Model M;
  int X = M.addVariable("x", 0, 10);
  int Y = M.addVariable("y", 0, 10);
  M.addConstraint({{X, 1.0}, {X, 2.0}, {Y, 0.5}, {Y, -0.5}}, ConstraintSense::LE,
                  5.0);
  const Constraint &C = M.constraint(0);
  ASSERT_EQ(C.Terms.size(), 1u); // y dropped, x merged.
  EXPECT_EQ(C.Terms[0].first, X);
  EXPECT_DOUBLE_EQ(C.Terms[0].second, 3.0);
}

TEST(Model, CanonicalizationDropsAllZeroConstraintsTerms) {
  // Hygiene contract both simplex engines rely on (the sparse engine
  // compiles the canonical terms verbatim into its CSC/CSR matrix, see
  // tests/SparseSimplexTest.cpp): duplicates merge, exact-zero
  // coefficients drop, and a term that cancels to zero vanishes.
  Model M;
  int X = M.addVariable("x", 0, 10);
  int Y = M.addVariable("y", 0, 10);
  int Z = M.addVariable("z", 0, 10);
  M.addConstraint({{Z, 0.0}, {X, -1.0}, {Y, 2.0}, {X, 1.0}, {Y, 1.0}},
                  ConstraintSense::GE, 1.0);
  const Constraint &C = M.constraint(0);
  ASSERT_EQ(C.Terms.size(), 1u); // x cancelled, z zero, y merged.
  EXPECT_EQ(C.Terms[0].first, Y);
  EXPECT_DOUBLE_EQ(C.Terms[0].second, 3.0);
  // Terms arrive sorted by variable index (map order), which the CSR
  // compilation asserts on.
  Model M2;
  int A = M2.addVariable("a", 0, 1);
  int B = M2.addVariable("b", 0, 1);
  M2.addConstraint({{B, 1.0}, {A, 1.0}}, ConstraintSense::LE, 1.0);
  const Constraint &C2 = M2.constraint(0);
  ASSERT_EQ(C2.Terms.size(), 2u);
  EXPECT_LT(C2.Terms[0].first, C2.Terms[1].first);
}

TEST(Model, ZeroOneStructureCheck) {
  Model M;
  int X = M.addVariable("x", 0, 1);
  int Y = M.addVariable("y", 0, 1);
  M.addConstraint({{X, 1.0}, {Y, -1.0}}, ConstraintSense::LE, 0.0);
  EXPECT_TRUE(M.isZeroOneStructured());
  M.addConstraint({{X, 2.0}}, ConstraintSense::LE, 2.0);
  EXPECT_FALSE(M.isZeroOneStructured());
}

TEST_P(Simplex, UnconstrainedBoundsOnly) {
  // minimize -x with x in [0, 7]: optimum at the upper bound.
  Model M;
  M.addVariable("x", 0, 7, -1.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_DOUBLE_EQ(R.Objective, -7.0);
  EXPECT_DOUBLE_EQ(R.Values[0], 7.0);
}

TEST_P(Simplex, ClassicTwoVariable) {
  // maximize 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 (Dantzig's example).
  // As minimization of -3x-5y; optimum (2, 6) value -36.
  Model M;
  int X = M.addVariable("x", 0, infinity(), -3.0);
  int Y = M.addVariable("y", 0, infinity(), -5.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  M.addConstraint({{Y, 2.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 18.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -36.0, 1e-6);
  EXPECT_NEAR(R.Values[X], 2.0, 1e-6);
  EXPECT_NEAR(R.Values[Y], 6.0, 1e-6);
}

TEST_P(Simplex, EqualityConstraintNeedsPhase1) {
  // minimize x + y st x + y = 10, x - y >= 2; optimum (6,4) -> 10.
  Model M;
  int X = M.addVariable("x", 0, infinity(), 1.0);
  int Y = M.addVariable("y", 0, infinity(), 1.0);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::EQ, 10.0);
  M.addConstraint({{X, 1.0}, {Y, -1.0}}, ConstraintSense::GE, 2.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 10.0, 1e-6);
  EXPECT_NEAR(R.Values[X] + R.Values[Y], 10.0, 1e-6);
  EXPECT_GE(R.Values[X] - R.Values[Y], 2.0 - 1e-6);
}

TEST_P(Simplex, DetectsInfeasibility) {
  Model M;
  int X = M.addVariable("x", 0, 5);
  M.addConstraint({{X, 1.0}}, ConstraintSense::GE, 6.0);
  EXPECT_EQ(solveModel(M).Status, LpStatus::Infeasible);
}

TEST_P(Simplex, DetectsInfeasibleEqualitySystem) {
  Model M;
  int X = M.addVariable("x", 0, infinity());
  int Y = M.addVariable("y", 0, infinity());
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::EQ, 1.0);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::EQ, 2.0);
  EXPECT_EQ(solveModel(M).Status, LpStatus::Infeasible);
}

TEST_P(Simplex, DetectsUnbounded) {
  Model M;
  int X = M.addVariable("x", 0, infinity(), -1.0);
  int Y = M.addVariable("y", 0, infinity(), 0.0);
  M.addConstraint({{X, 1.0}, {Y, -1.0}}, ConstraintSense::LE, 1.0);
  EXPECT_EQ(solveModel(M).Status, LpStatus::Unbounded);
}

TEST_P(Simplex, NegativeLowerBounds) {
  // minimize x st x >= -3 (bound), x >= -10 (constraint).
  Model M;
  int X = M.addVariable("x", -3.0, infinity(), 1.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::GE, -10.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Values[X], -3.0, 1e-6);
}

TEST_P(Simplex, FreeVariable) {
  // minimize x st x >= -17.5 via constraint; x free.
  Model M;
  int X = M.addVariable("x", -infinity(), infinity(), 1.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::GE, -17.5);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Values[X], -17.5, 1e-6);
}

TEST_P(Simplex, BoundFlipPath) {
  // maximize x + y with x,y in [0,1] and x + y <= 1.5: optimum 1.5.
  Model M;
  int X = M.addVariable("x", 0, 1, -1.0);
  int Y = M.addVariable("y", 0, 1, -1.0);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::LE, 1.5);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -1.5, 1e-6);
}

TEST_P(Simplex, DegenerateVertexTerminates) {
  // A classic degenerate LP; must terminate (Bland fallback).
  Model M;
  int X = M.addVariable("x", 0, infinity(), -0.75);
  int Y = M.addVariable("y", 0, infinity(), 150.0);
  int Z = M.addVariable("z", 0, infinity(), -0.02);
  int W = M.addVariable("w", 0, infinity(), 6.0);
  M.addConstraint({{X, 0.25}, {Y, -60.0}, {Z, -0.04}, {W, 9.0}},
                  ConstraintSense::LE, 0.0);
  M.addConstraint({{X, 0.5}, {Y, -90.0}, {Z, -0.02}, {W, 3.0}},
                  ConstraintSense::LE, 0.0);
  M.addConstraint({{Z, 1.0}}, ConstraintSense::LE, 1.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -0.05, 1e-6); // Beale's example optimum -1/20.
}

TEST_P(Simplex, SolveWithOverriddenBounds) {
  Model M;
  int X = M.addVariable("x", 0, 10, -1.0);
  SimplexSolver S = solver();
  LpResult R = S.solve(M, {2.0}, {5.0});
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Values[X], 5.0, 1e-6);
  // Inverted override bounds -> infeasible node.
  EXPECT_EQ(S.solve(M, {6.0}, {5.0}).Status, LpStatus::Infeasible);
}

TEST_P(Simplex, EqualityWithNegativeRhs) {
  // minimize y st -x - y = -4, x <= 1 => y >= 3.
  Model M;
  int X = M.addVariable("x", 0, 1, 0.0);
  int Y = M.addVariable("y", 0, infinity(), 1.0);
  M.addConstraint({{X, -1.0}, {Y, -1.0}}, ConstraintSense::EQ, -4.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 3.0, 1e-6);
}

TEST_P(Simplex, ZeroConstraintModel) {
  Model M;
  M.addVariable("x", 1.0, 4.0, 2.0);
  M.addVariable("y", -2.0, 2.0, -3.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 2.0 * 1.0 - 3.0 * 2.0, 1e-9);
}

TEST_P(Simplex, ReportsIterations) {
  Model M;
  int X = M.addVariable("x", 0, infinity(), -3.0);
  int Y = M.addVariable("y", 0, infinity(), -5.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  M.addConstraint({{Y, 2.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 18.0);
  LpResult R = solveModel(M);
  EXPECT_GT(R.Iterations, 0);
}

TEST_P(Simplex, IterationLimitReported) {
  SimplexOptions Opts;
  Opts.MaxIterations = 1;
  SimplexSolver S = solver(Opts);
  Model M;
  int X = M.addVariable("x", 0, infinity(), -3.0);
  int Y = M.addVariable("y", 0, infinity(), -5.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  M.addConstraint({{Y, 2.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 18.0);
  EXPECT_EQ(S.solve(M).Status, LpStatus::IterationLimit);
}

TEST_P(Simplex, DeadlineReportsLimit) {
  // A budget that has already run out, folded into the context the way
  // MipSolver folds its TimeLimitSeconds: deterministic.
  Model M;
  int X = M.addVariable("x", 0, infinity(), -1.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  SolveContext Ctx;
  DeadlineScope Budget(Ctx, -1.0);
  EXPECT_EQ(solver().solve(M, Lower, Upper, &Ctx).Status,
            LpStatus::IterationLimit);
}

TEST_P(Simplex, ContextDeadlineAndCancellationReportLimit) {
  Model M;
  int X = M.addVariable("x", 0, infinity(), -1.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  SolveContext Expired;
  Expired.DeadlineSeconds = -1.0;
  EXPECT_EQ(solver().solve(M, Lower, Upper, &Expired).Status,
            LpStatus::IterationLimit);
  CancellationSource Source;
  SolveContext Cancelled;
  Cancelled.Cancel = Source.token();
  Source.cancel();
  EXPECT_EQ(solver().solve(M, Lower, Upper, &Cancelled).Status,
            LpStatus::IterationLimit);
}

TEST(LpNames, StatusAndEngine) {
  EXPECT_STREQ(toString(LpStatus::Optimal), "optimal");
  EXPECT_STREQ(toString(LpStatus::Infeasible), "infeasible");
  EXPECT_STREQ(toString(LpStatus::Unbounded), "unbounded");
  EXPECT_STREQ(toString(LpStatus::IterationLimit), "iteration-limit");
  EXPECT_STREQ(toString(SimplexEngine::Dense), "dense");
  EXPECT_STREQ(toString(SimplexEngine::SparseRevised), "sparse_revised");
}

TEST(DenseSimplex, NeverWarmStartsOrExportsABasis) {
  // The dense engine is a cold-only oracle: handed a context and a
  // valid start basis (the sparse engine's optimum of the same model),
  // it still solves cold and exports nothing.
  Model M;
  int X = M.addVariable("x", 0, 10, -1.0);
  int Y = M.addVariable("y", 0, 10, -2.0);
  M.addConstraint({{X, 1.0}, {Y, 2.0}}, ConstraintSense::LE, 13.0);
  M.addConstraint({{X, 1.0}, {Y, -1.0}}, ConstraintSense::LE, 4.0);
  std::vector<double> Lower, Upper;
  M.getBounds(Lower, Upper);
  SolveContext Ctx;
  LpResult Parent = SimplexSolver().solve(M, Lower, Upper, &Ctx);
  ASSERT_EQ(Parent.Status, LpStatus::Optimal);
  ASSERT_FALSE(Parent.FinalBasis.empty());

  SimplexOptions Opts;
  Opts.Engine = SimplexEngine::Dense;
  Upper[Y] = 3.0;
  LpResult Child =
      SimplexSolver(Opts).solve(M, Lower, Upper, &Ctx, &Parent.FinalBasis);
  ASSERT_EQ(Child.Status, LpStatus::Optimal);
  EXPECT_FALSE(Child.WarmStarted);
  EXPECT_EQ(Child.DualIterations, 0);
  EXPECT_TRUE(Child.FinalBasis.empty());
  EXPECT_NEAR(Child.Objective, -13.0, 1e-9); // x = 7, y = 3.
}

TEST(Model, ToStringRendersEverything) {
  Model M;
  int X = M.addVariable("x", 0, 4, 2.0, VarKind::Integer);
  M.addConstraint({{X, 1.0}}, ConstraintSense::GE, 1.0, "lowbound");
  std::string S = M.toString();
  EXPECT_NE(S.find("minimize"), std::string::npos);
  EXPECT_NE(S.find("lowbound"), std::string::npos);
  EXPECT_NE(S.find("integer"), std::string::npos);
}

TEST(Model, InfeasibilityReasonsAreDescriptive) {
  Model M;
  int X = M.addVariable("x", 0, 4, 0.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 2.0, "cap");
  std::string Why;
  EXPECT_FALSE(M.isFeasible({9.0}, 1e-6, &Why));
  EXPECT_NE(Why.find("outside"), std::string::npos);
  Why.clear();
  EXPECT_FALSE(M.isFeasible({3.0}, 1e-6, &Why));
  EXPECT_NE(Why.find("cap"), std::string::npos);
}

TEST_P(Simplex, ManyDegenerateEqualities) {
  // A chain of equalities sharing a value: stress phase 1 + degeneracy.
  Model M;
  const int N = 30;
  std::vector<int> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(M.addVariable("x" + std::to_string(I), 0, 10, 1.0));
  for (int I = 0; I + 1 < N; ++I)
    M.addConstraint({{Vars[I], 1.0}, {Vars[I + 1], -1.0}},
                    ConstraintSense::EQ, 0.0);
  M.addConstraint({{Vars[0], 1.0}}, ConstraintSense::GE, 3.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 3.0 * N, 1e-6);
}

TEST_P(Simplex, FeasibilityCheckerAgrees) {
  Model M;
  int X = M.addVariable("x", 0, infinity(), -3.0);
  int Y = M.addVariable("y", 0, infinity(), -5.0);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 4.0);
  M.addConstraint({{Y, 2.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 18.0);
  LpResult R = solveModel(M);
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  std::string Why;
  EXPECT_TRUE(M.isFeasible(R.Values, 1e-6, &Why)) << Why;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, Simplex,
    ::testing::Values(SimplexEngine::SparseRevised, SimplexEngine::Dense),
    [](const ::testing::TestParamInfo<SimplexEngine> &Info) {
      return std::string(Info.param == SimplexEngine::Dense ? "Dense"
                                                            : "Sparse");
    });
