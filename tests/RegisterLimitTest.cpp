//===- tests/RegisterLimitTest.cpp - register-constrained scheduling -------===//
//
// Tests of FormulationOptions::RegisterLimit: scheduling with a hard
// register-file budget (per-row live count <= K), the dual question to
// the paper's MinReg objective.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/OptimalScheduler.h"

#include "TestVariant.h"

#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"
#include "support/Rng.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

using namespace modsched;

namespace {

ScheduleResult scheduleWithLimit(const MachineModel &M,
                                 const DependenceGraph &G, int Limit,
                                 Objective Obj = Objective::None) {
  SchedulerOptions Opts = test::variantOptions();
  Opts.Formulation.Obj = Obj;
  Opts.Formulation.RegisterLimit = Limit;
  Opts.TimeLimitSeconds = 30.0;
  Opts.MaxIiIncrease = 16;
  OptimalModuloScheduler Sched(M, Opts);
  return Sched.schedule(G);
}

} // namespace

TEST(RegisterLimit, GenerousLimitKeepsMinimumIi) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  ScheduleResult R = scheduleWithLimit(M, G, 7); // Exactly MinReg at II=2.
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.II, 2);
  EXPECT_LE(computeRegisterPressure(G, R.Schedule).MaxLive, 7);
}

TEST(RegisterLimit, TightLimitRaisesIi) {
  // The paper's example needs 7 registers at II=2; with only 6 the II
  // must rise (or the loop becomes unschedulable in the window).
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  ScheduleResult R = scheduleWithLimit(M, G, 6);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.II, 2);
  EXPECT_LE(computeRegisterPressure(G, R.Schedule).MaxLive, 6);
  EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
}

TEST(RegisterLimit, MonotoneInBudget) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = livermore1(M);
  int LastII = 0;
  for (int Limit : {12, 9, 7, 5}) {
    ScheduleResult R = scheduleWithLimit(M, G, Limit);
    if (!R.Found)
      break; // Tighter budgets may become unschedulable: fine.
    if (LastII > 0) {
      EXPECT_GE(R.II, LastII) << "limit " << Limit;
    }
    LastII = R.II;
    EXPECT_LE(computeRegisterPressure(G, R.Schedule).MaxLive, Limit);
  }
}

TEST(RegisterLimit, ZeroBudgetUnschedulable) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  ScheduleResult R = scheduleWithLimit(M, G, 0);
  EXPECT_FALSE(R.Found); // Any register is live for >= 1 cycle.
}

TEST(RegisterLimit, ComposesWithMinSl) {
  // Minimize schedule length among schedules fitting the budget.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  ScheduleResult R = scheduleWithLimit(M, G, 7, Objective::MinSL);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.II, 2);
  EXPECT_LE(computeRegisterPressure(G, R.Schedule).MaxLive, 7);
  EXPECT_NEAR(R.SecondaryObjective, R.Schedule.scheduleLength(), 1e-6);
}

TEST(RegisterLimit, AgreesWithMinRegOptimum) {
  // Budget == the MinReg optimum keeps the same II; budget one below
  // forces a worse II (or failure).
  MachineModel M = MachineModel::vliw2();
  Rng Rand(777);
  SyntheticOptions Opts;
  Opts.MinOps = 4;
  Opts.MaxOps = 7;
  for (int Trial = 0; Trial < 5; ++Trial) {
    DependenceGraph G = generateLoop(M, Rand, Opts);
    SchedulerOptions MinRegOpts = test::variantOptions();
    MinRegOpts.Formulation.Obj = Objective::MinReg;
    MinRegOpts.TimeLimitSeconds = 20.0;
    ScheduleResult Best = OptimalModuloScheduler(M, MinRegOpts).schedule(G);
    if (!Best.Found)
      continue;
    int KStar = static_cast<int>(Best.SecondaryObjective + 0.5);

    ScheduleResult AtK = scheduleWithLimit(M, G, KStar);
    ASSERT_TRUE(AtK.Found) << G.toString();
    EXPECT_EQ(AtK.II, Best.II) << G.toString();

    if (KStar > 1) {
      ScheduleResult BelowK = scheduleWithLimit(M, G, KStar - 1);
      if (BelowK.Found) {
        EXPECT_GT(BelowK.II, Best.II) << G.toString();
        EXPECT_LE(computeRegisterPressure(G, BelowK.Schedule).MaxLive,
                  KStar - 1);
      }
    }
  }
}

TEST(RegisterLimit, StructuredModelStaysZeroOne) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  FormulationOptions Opts;
  Opts.RegisterLimit = 7;
  Formulation F(G, M, 2, Opts);
  ASSERT_TRUE(F.valid());
  EXPECT_TRUE(F.model().isZeroOneStructured());
}
