//===- tests/IlpTest.cpp - branch-and-bound MIP tests ----------------------===//

#include "ilp/BranchAndBound.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace modsched;
using namespace modsched::ilp;
using namespace modsched::lp;

TEST(Mip, IntegralRootCountsZeroNodes) {
  // LP relaxation is already integral: x in [0,3], min -x -> x=3.
  Model M;
  M.addVariable("x", 0, 3, -1.0, VarKind::Integer);
  MipSolver S;
  MipResult R = S.solve(M);
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_EQ(R.Nodes, 0);
  EXPECT_DOUBLE_EQ(R.Objective, -3.0);
  EXPECT_DOUBLE_EQ(R.Values[0], 3.0);
}

TEST(Mip, SimpleBranching) {
  // maximize x + y st 2x + 3y <= 12, 3x + 2y <= 12, x,y integer.
  // LP optimum (2.4, 2.4); integer optimum value 4 (e.g. (2,2) or (3,1)).
  Model M;
  int X = M.addVariable("x", 0, 10, -1.0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 10, -1.0, VarKind::Integer);
  M.addConstraint({{X, 2.0}, {Y, 3.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 12.0);
  MipSolver S;
  MipResult R = S.solve(M);
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, -4.0, 1e-6);
  EXPECT_GT(R.Nodes, 0);
}

TEST(Mip, Knapsack) {
  // 0/1 knapsack: values {10,13,7,11}, weights {5,7,4,6}, cap 13.
  // Optimum: items 1+3 (13+11=24, weight 13).
  Model M;
  double Values[] = {10, 13, 7, 11};
  double Weights[] = {5, 7, 4, 6};
  std::vector<Term> Cap;
  for (int I = 0; I < 4; ++I) {
    int V = M.addBinaryVariable("item" + std::to_string(I), -Values[I]);
    Cap.push_back({V, Weights[I]});
  }
  M.addConstraint(Cap, ConstraintSense::LE, 13.0);
  MipSolver S;
  MipResult R = S.solve(M);
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, -24.0, 1e-6);
  EXPECT_NEAR(R.Values[1], 1.0, 1e-6);
  EXPECT_NEAR(R.Values[3], 1.0, 1e-6);
}

TEST(Mip, ProvesInfeasibility) {
  // x + y = 1 with x,y even-ish: 2x + 2y = 3 has no integer solution;
  // model: 2x + 2y = 3, x,y integer >= 0.
  Model M;
  int X = M.addVariable("x", 0, 10, 0.0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 10, 0.0, VarKind::Integer);
  M.addConstraint({{X, 2.0}, {Y, 2.0}}, ConstraintSense::EQ, 3.0);
  MipSolver S;
  MipResult R = S.solve(M);
  EXPECT_EQ(R.Status, MipStatus::Infeasible);
  EXPECT_FALSE(R.HasSolution);
}

TEST(Mip, LpInfeasibleRoot) {
  Model M;
  int X = M.addVariable("x", 0, 1, 0.0, VarKind::Integer);
  M.addConstraint({{X, 1.0}}, ConstraintSense::GE, 2.0);
  MipResult R = MipSolver().solve(M);
  EXPECT_EQ(R.Status, MipStatus::Infeasible);
  EXPECT_EQ(R.Nodes, 0);
}

TEST(Mip, MixedIntegerContinuous) {
  // min -x - 10y, x continuous in [0, 2.5], y integer, x + 4y <= 8.
  // Best: y=2 -> x <= 0 -> x=0? x + 8 <= 8 -> x=0, obj -20.
  // y=1 -> x <= 2.5 -> obj -2.5 - 10 = -12.5. So optimum y=2, x=0.
  Model M;
  int X = M.addVariable("x", 0, 2.5, -1.0);
  int Y = M.addVariable("y", 0, 5, -10.0, VarKind::Integer);
  M.addConstraint({{X, 1.0}, {Y, 4.0}}, ConstraintSense::LE, 8.0);
  MipResult R = MipSolver().solve(M);
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, -20.0, 1e-6);
  EXPECT_NEAR(R.Values[Y], 2.0, 1e-6);
}

TEST(Mip, StopAtFirstSolution) {
  Model M;
  int X = M.addVariable("x", 0, 10, 0.0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 10, 0.0, VarKind::Integer);
  M.addConstraint({{X, 2.0}, {Y, 3.0}}, ConstraintSense::LE, 12.0);
  MipOptions Opts;
  Opts.StopAtFirstSolution = true;
  MipResult R = MipSolver(Opts).solve(M);
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_TRUE(R.HasSolution);
}

TEST(Mip, NodeLimitReported) {
  // A problem requiring branching must stop on either deterministic
  // effort budget, and report it as one: NodeLimit 0 stops before the
  // first node, MaxIterations 1 stops inside the root LP. Neither is a
  // time limit.
  Model M;
  int X = M.addVariable("x", 0, 10, -1.0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 10, -1.0, VarKind::Integer);
  M.addConstraint({{X, 2.0}, {Y, 3.0}}, ConstraintSense::LE, 11.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 11.0);
  MipOptions NoNodes;
  NoNodes.NodeLimit = 0;
  MipOptions OnePivot;
  OnePivot.Lp.MaxIterations = 1;
  for (const MipOptions &Opts : {NoNodes, OnePivot}) {
    MipResult R = MipSolver(Opts).solve(M);
    EXPECT_EQ(R.Status, MipStatus::Limit);
    EXPECT_TRUE(R.HitNodeLimit);
    EXPECT_FALSE(R.HitTimeLimit);
  }
}

TEST(Mip, KnapsackOptimumMatchesEnumeration) {
  Model M;
  double Values[] = {6, 5, 4, 3, 7};
  double Weights[] = {4, 3, 2, 2, 5};
  std::vector<Term> Cap;
  for (int I = 0; I < 5; ++I) {
    int V = M.addBinaryVariable("item" + std::to_string(I), -Values[I]);
    Cap.push_back({V, Weights[I]});
  }
  M.addConstraint(Cap, ConstraintSense::LE, 9.0);

  // Every one of the 2^5 packings; the best feasible one is the optimum.
  double Best = 0.0;
  for (int Mask = 0; Mask < 32; ++Mask) {
    double Value = 0.0, Weight = 0.0;
    for (int I = 0; I < 5; ++I)
      if (Mask & (1 << I)) {
        Value += Values[I];
        Weight += Weights[I];
      }
    if (Weight <= 9.0)
      Best = std::max(Best, Value);
  }
  ASSERT_EQ(Best, 15.0); // Items 0, 1 and 2, weight 9.
  MipResult R = MipSolver().solve(M);
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, -Best, 1e-6);
}

TEST(Mip, RoundIntegralValues) {
  std::vector<double> X = {0.9999999, 2.0000001, 0.5, -1.0000001};
  roundIntegralValues(X, 1e-5);
  EXPECT_DOUBLE_EQ(X[0], 1.0);
  EXPECT_DOUBLE_EQ(X[1], 2.0);
  EXPECT_DOUBLE_EQ(X[2], 0.5);
  EXPECT_DOUBLE_EQ(X[3], -1.0);
}

TEST(Mip, AccumulatesSimplexIterations) {
  Model M;
  int X = M.addVariable("x", 0, 10, -1.0, VarKind::Integer);
  int Y = M.addVariable("y", 0, 10, -1.0, VarKind::Integer);
  M.addConstraint({{X, 2.0}, {Y, 3.0}}, ConstraintSense::LE, 12.0);
  M.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LE, 12.0);
  MipResult R = MipSolver().solve(M);
  EXPECT_GT(R.SimplexIterations, 0);
}
