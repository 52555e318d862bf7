//===- tests/PropertyTest.cpp - randomized cross-validation ----------------===//
//
// Property tests over seeded random loops: the independent implementations
// in this repo (traditional ILP, structured ILP, IMS heuristic, schedule
// verifier, register-pressure computation) must agree with each other on
// every randomly generated instance.
//
//===----------------------------------------------------------------------===//

#include "heuristic/IterativeModuloScheduler.h"
#include "heuristic/StageScheduler.h"
#include "ilp/BranchAndBound.h"
#include "ilpsched/OptimalScheduler.h"
#include "sched/Mii.h"
#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

using namespace modsched;
using namespace modsched::ilp;

namespace {

SyntheticOptions smallLoopOptions() {
  SyntheticOptions Opts;
  Opts.MinOps = 3;
  Opts.MaxOps = 8;
  return Opts;
}

SchedulerOptions schedOpts(Objective Obj, DependenceStyle Dep) {
  SchedulerOptions Opts;
  Opts.Formulation.Obj = Obj;
  Opts.Formulation.DepStyle = Dep;
  Opts.TimeLimitSeconds = 20.0;
  return Opts;
}

} // namespace

class SeededLoopTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededLoopTest, FormulationsAgreeOnMinimumIi) {
  MachineModel M = MachineModel::example3();
  Rng R(GetParam());
  DependenceGraph G = generateLoop(M, R, smallLoopOptions());

  OptimalModuloScheduler Trad(
      M, schedOpts(Objective::None, DependenceStyle::Traditional));
  OptimalModuloScheduler Struct(
      M, schedOpts(Objective::None, DependenceStyle::Structured));
  ScheduleResult A = Trad.schedule(G);
  ScheduleResult B = Struct.schedule(G);
  ASSERT_TRUE(A.Found && B.Found) << G.toString();
  EXPECT_EQ(A.II, B.II) << G.toString();
  EXPECT_FALSE(verifySchedule(G, M, A.Schedule).has_value());
  EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value());
}

TEST_P(SeededLoopTest, MinRegAgreesAcrossStylesAndMatchesPressure) {
  MachineModel M = MachineModel::vliw2();
  Rng R(GetParam() * 977 + 5);
  SyntheticOptions LoopOpts = smallLoopOptions();
  LoopOpts.MaxOps = 6; // The traditional formulation is slow by design.
  DependenceGraph G = generateLoop(M, R, LoopOpts);

  // A node budget, not the wall clock, bounds both solves: the slowest
  // of the 25 seeds takes the traditional formulation 15 984 nodes, and
  // no seed is censored.
  SchedulerOptions TradOpts =
      schedOpts(Objective::MinReg, DependenceStyle::Traditional);
  SchedulerOptions StructOpts =
      schedOpts(Objective::MinReg, DependenceStyle::Structured);
  for (SchedulerOptions *O : {&TradOpts, &StructOpts}) {
    O->NodeLimit = 200000;
    O->TimeLimitSeconds = 3600.0;
  }
  ScheduleResult A = OptimalModuloScheduler(M, TradOpts).schedule(G);
  ScheduleResult B = OptimalModuloScheduler(M, StructOpts).schedule(G);
  ASSERT_FALSE(A.TimedOut || A.NodeLimitHit) << G.toString();
  ASSERT_FALSE(B.TimedOut || B.NodeLimitHit) << G.toString();
  ASSERT_TRUE(A.Found && B.Found) << G.toString();
  EXPECT_EQ(A.II, B.II);
  EXPECT_NEAR(A.SecondaryObjective, B.SecondaryObjective, 1e-6)
      << G.toString();
  // The ILP objective must equal the independently computed MaxLive of
  // the decoded schedule.
  EXPECT_EQ(computeRegisterPressure(G, A.Schedule).MaxLive,
            static_cast<int>(A.SecondaryObjective + 0.5));
  EXPECT_EQ(computeRegisterPressure(G, B.Schedule).MaxLive,
            static_cast<int>(B.SecondaryObjective + 0.5));
}

TEST_P(SeededLoopTest, OptimalIiNeverWorseThanHeuristic) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 31 + 17);
  DependenceGraph G = generateLoop(M, R, smallLoopOptions());

  IterativeModuloScheduler Ims(M);
  ImsResult H = Ims.schedule(G);
  OptimalModuloScheduler Opt(
      M, schedOpts(Objective::None, DependenceStyle::Structured));
  ScheduleResult O = Opt.schedule(G);
  ASSERT_TRUE(O.Found) << G.toString();
  if (H.Found) {
    EXPECT_LE(O.II, H.II) << G.toString();
  }
  EXPECT_GE(O.II, O.Mii);
}

TEST_P(SeededLoopTest, MinRegNeverAboveHeuristicPressure) {
  MachineModel M = MachineModel::example3();
  Rng R(GetParam() * 131 + 1);
  DependenceGraph G = generateLoop(M, R, smallLoopOptions());

  IterativeModuloScheduler Ims(M);
  ImsResult H = Ims.schedule(G);
  OptimalModuloScheduler Opt(
      M, schedOpts(Objective::MinReg, DependenceStyle::Structured));
  ScheduleResult O = Opt.schedule(G);
  ASSERT_TRUE(O.Found) << G.toString();
  if (!H.Found || H.II != O.II)
    return; // Register comparison only meaningful at equal II.
  EXPECT_LE(computeRegisterPressure(G, O.Schedule).MaxLive,
            computeRegisterPressure(G, H.Schedule).MaxLive)
      << G.toString();
}

TEST_P(SeededLoopTest, StageSchedulingPreservesValidity) {
  MachineModel M = MachineModel::vliw2();
  Rng R(GetParam() * 7919 + 3);
  DependenceGraph G = generateLoop(M, R, smallLoopOptions());
  IterativeModuloScheduler Ims(M);
  ImsResult H = Ims.schedule(G);
  if (!H.Found)
    return;
  ModuloSchedule Improved = stageSchedule(G, H.Schedule);
  EXPECT_FALSE(verifySchedule(G, M, Improved).has_value()) << G.toString();
  EXPECT_LE(computeRegisterPressure(G, Improved).TotalLifetime,
            computeRegisterPressure(G, H.Schedule).TotalLifetime);
}

TEST_P(SeededLoopTest, LooseStructuredAgreesWithStructured) {
  MachineModel M = MachineModel::example3();
  Rng R(GetParam() * 271 + 9);
  DependenceGraph G = generateLoop(M, R, smallLoopOptions());
  OptimalModuloScheduler A(
      M, schedOpts(Objective::None, DependenceStyle::Structured));
  OptimalModuloScheduler B(
      M, schedOpts(Objective::None, DependenceStyle::StructuredLoose));
  ScheduleResult RA = A.schedule(G);
  ScheduleResult RB = B.schedule(G);
  ASSERT_TRUE(RA.Found && RB.Found);
  EXPECT_EQ(RA.II, RB.II) << G.toString();
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, SeededLoopTest,
                         ::testing::Range<uint64_t>(0, 25));

// --- Random MIPs cross-checked against brute force -----------------------

class SeededMipTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededMipTest, BranchAndBoundMatchesBruteForce) {
  Rng R(GetParam() * 5 + 1);
  // Random small integer program: 4 vars in [0,3], 3 random LE
  // constraints, random objective.
  lp::Model M;
  const int N = 4, Range = 3;
  for (int I = 0; I < N; ++I)
    M.addVariable("x" + std::to_string(I), 0, Range,
                  double(R.nextInRange(-5, 5)), lp::VarKind::Integer);
  for (int C = 0; C < 3; ++C) {
    std::vector<lp::Term> Terms;
    for (int I = 0; I < N; ++I)
      Terms.push_back({I, double(R.nextInRange(-3, 4))});
    M.addConstraint(Terms, lp::ConstraintSense::LE,
                    double(R.nextInRange(0, 12)));
  }

  // Brute force over (Range+1)^N points.
  double Best = 1e300;
  bool AnyFeasible = false;
  int Total = 1;
  for (int I = 0; I < N; ++I)
    Total *= Range + 1;
  for (int Point = 0; Point < Total; ++Point) {
    std::vector<double> X(N);
    int P = Point;
    for (int I = 0; I < N; ++I) {
      X[I] = P % (Range + 1);
      P /= Range + 1;
    }
    if (!M.isFeasible(X))
      continue;
    AnyFeasible = true;
    Best = std::min(Best, M.evaluateObjective(X));
  }

  MipResult Result = MipSolver().solve(M);
  if (!AnyFeasible) {
    EXPECT_EQ(Result.Status, MipStatus::Infeasible);
    return;
  }
  ASSERT_EQ(Result.Status, MipStatus::Optimal) << M.toString();
  EXPECT_NEAR(Result.Objective, Best, 1e-6) << M.toString();
}

INSTANTIATE_TEST_SUITE_P(RandomMips, SeededMipTest,
                         ::testing::Range<uint64_t>(0, 40));
