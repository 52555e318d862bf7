//===- tests/PresolveTest.cpp - bound propagation tests --------------------===//

#include "ilp/Presolve.h"

#include "ilp/BranchAndBound.h"
#include "ilpsched/Formulation.h"
#include "support/Rng.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

using namespace modsched;
using namespace modsched::ilp;
using namespace modsched::lp;

namespace {

std::pair<std::vector<double>, std::vector<double>> boundsOf(const Model &M) {
  std::vector<double> Lo, Up;
  for (const Variable &V : M.variables()) {
    Lo.push_back(V.Lower);
    Up.push_back(V.Upper);
  }
  return {Lo, Up};
}

} // namespace

TEST(Presolve, TightensSimpleLe) {
  // x + y <= 3 with y >= 2 forces x <= 1.
  Model M;
  int X = M.addVariable("x", 0, 10, 0, VarKind::Integer);
  int Y = M.addVariable("y", 2, 10, 0, VarKind::Integer);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::LE, 3.0);
  auto [Lo, Up] = boundsOf(M);
  ASSERT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Feasible);
  EXPECT_DOUBLE_EQ(Up[X], 1.0);
  EXPECT_DOUBLE_EQ(Up[Y], 3.0);
}

TEST(Presolve, RoundsIntegerBounds) {
  // 2x <= 5 -> x <= 2 for integer x (2.5 rounded down).
  Model M;
  int X = M.addVariable("x", 0, 10, 0, VarKind::Integer);
  M.addConstraint({{X, 2.0}}, ConstraintSense::LE, 5.0);
  auto [Lo, Up] = boundsOf(M);
  ASSERT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Feasible);
  EXPECT_DOUBLE_EQ(Up[X], 2.0);
}

TEST(Presolve, KeepsContinuousFractional) {
  Model M;
  int X = M.addVariable("x", 0, 10, 0);
  M.addConstraint({{X, 2.0}}, ConstraintSense::LE, 5.0);
  auto [Lo, Up] = boundsOf(M);
  ASSERT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Feasible);
  EXPECT_NEAR(Up[X], 2.5, 1e-9);
}

TEST(Presolve, PropagatesGe) {
  // x + y >= 8, x <= 3 -> y >= 5.
  Model M;
  int X = M.addVariable("x", 0, 3, 0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 10, 0, VarKind::Integer);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::GE, 8.0);
  auto [Lo, Up] = boundsOf(M);
  ASSERT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Feasible);
  EXPECT_DOUBLE_EQ(Lo[Y], 5.0);
  (void)X;
}

TEST(Presolve, EqualityPropagatesBothWays) {
  // x + y = 4 with x in [1,3] -> y in [1,3].
  Model M;
  int X = M.addVariable("x", 1, 3, 0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 10, 0, VarKind::Integer);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::EQ, 4.0);
  auto [Lo, Up] = boundsOf(M);
  ASSERT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Feasible);
  EXPECT_DOUBLE_EQ(Lo[Y], 1.0);
  EXPECT_DOUBLE_EQ(Up[Y], 3.0);
  (void)X;
}

TEST(Presolve, DetectsInfeasibleActivity) {
  // x + y <= 1 with x,y >= 1: min activity 2 > 1.
  Model M;
  int X = M.addVariable("x", 1, 5, 0);
  int Y = M.addVariable("y", 1, 5, 0);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::LE, 1.0);
  auto [Lo, Up] = boundsOf(M);
  EXPECT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Infeasible);
}

TEST(Presolve, ChainsAcrossConstraints) {
  // x <= 1; x >= y; y >= z ... fixpoint across constraints.
  Model M;
  int X = M.addVariable("x", 0, 9, 0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 9, 0, VarKind::Integer);
  int Z = M.addVariable("z", 0, 9, 0, VarKind::Integer);
  M.addConstraint({{X, 1.0}}, ConstraintSense::LE, 1.0);
  M.addConstraint({{Y, 1.0}, {X, -1.0}}, ConstraintSense::LE, 0.0);
  M.addConstraint({{Z, 1.0}, {Y, -1.0}}, ConstraintSense::LE, 0.0);
  auto [Lo, Up] = boundsOf(M);
  ASSERT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Feasible);
  EXPECT_DOUBLE_EQ(Up[Z], 1.0);
}

TEST(Presolve, HandlesInfiniteBoundsGracefully) {
  Model M;
  int X = M.addVariable("x", -infinity(), infinity(), 0);
  int Y = M.addVariable("y", 0, 5, 0);
  M.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::LE, 3.0);
  auto [Lo, Up] = boundsOf(M);
  // X's contribution is unbounded below: no sound tightening of Y, and
  // no crash/NaN.
  ASSERT_EQ(propagateBounds(M, Lo, Up), PropagationResult::Feasible);
  EXPECT_DOUBLE_EQ(Up[Y], 5.0);
  (void)X;
}

TEST(Presolve, MipOptimaUnchangedByPresolve) {
  // Node presolve runs at every branch-and-bound node; on a real
  // formulation the optimum stays the known MinReg value.
  MachineModel Machine = MachineModel::example3();
  DependenceGraph G = paperExample1(Machine);
  FormulationOptions FOpts;
  FOpts.Obj = Objective::MinReg;
  Formulation F(G, Machine, 2, FOpts);
  ASSERT_TRUE(F.valid());
  MipResult R = MipSolver().solve(F.model());
  EXPECT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, 7.0, 1e-6);
}

class PresolveRandomMip : public ::testing::TestWithParam<uint64_t> {};

namespace {

/// Branch-and-bound, node presolve included, must agree with enumeration
/// of the whole 5^4 integer box of \p M (four variables in [0, 4]).
void expectMatchesEnumeration(const Model &M) {
  const int N = 4;
  bool Feasible = false;
  double Best = 0.0;
  std::vector<double> X(N);
  for (int Point = 0; Point < 5 * 5 * 5 * 5; ++Point) {
    for (int I = 0, Rest = Point; I < N; ++I, Rest /= 5)
      X[I] = Rest % 5;
    if (!M.isFeasible(X, 1e-9))
      continue;
    double Obj = M.evaluateObjective(X);
    if (!Feasible || Obj < Best)
      Best = Obj;
    Feasible = true;
  }
  MipResult Mip = MipSolver().solve(M);
  ASSERT_EQ(Mip.Status,
            Feasible ? MipStatus::Optimal : MipStatus::Infeasible)
      << M.toString();
  if (Feasible) {
    EXPECT_NEAR(Mip.Objective, Best, 1e-6) << M.toString();
  }
}

} // namespace

TEST_P(PresolveRandomMip, PreservesOptimum) {
  Rng R(GetParam() * 3 + 2);
  const int N = 4;
  {
    // Mixed signs everywhere.
    Model M;
    for (int I = 0; I < N; ++I)
      M.addVariable("x" + std::to_string(I), 0, 4,
                    double(R.nextInRange(-4, 4)), VarKind::Integer);
    for (int C = 0; C < 3; ++C) {
      std::vector<Term> Terms;
      for (int I = 0; I < N; ++I)
        Terms.push_back({I, double(R.nextInRange(-3, 3))});
      M.addConstraint(Terms,
                      R.nextBool(0.5) ? ConstraintSense::LE
                                      : ConstraintSense::GE,
                      double(R.nextInRange(-6, 10)));
    }
    expectMatchesEnumeration(M);
  }
  {
    // Covering rows (GE, nonnegative coefficients) under a positive
    // objective: presolve raises integer lower bounds, and the optimum
    // sits on them, so a bound rounded one too high changes the answer.
    Model M;
    for (int I = 0; I < N; ++I)
      M.addVariable("x" + std::to_string(I), 0, 4,
                    double(R.nextInRange(1, 4)), VarKind::Integer);
    for (int C = 0; C < 3; ++C) {
      std::vector<Term> Terms;
      for (int I = 0; I < N; ++I)
        Terms.push_back({I, double(R.nextInRange(0, 3))});
      M.addConstraint(Terms, ConstraintSense::GE,
                      double(R.nextInRange(4, 14)));
    }
    expectMatchesEnumeration(M);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMips, PresolveRandomMip,
                         ::testing::Range<uint64_t>(0, 30));
