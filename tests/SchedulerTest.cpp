//===- tests/SchedulerTest.cpp - optimal scheduler driver tests ------------===//

#include "ilpsched/OptimalScheduler.h"

#include "TestVariant.h"

#include "sched/Mii.h"
#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

using namespace modsched;

namespace {

SchedulerOptions makeOpts(Objective Obj, DependenceStyle Dep) {
  SchedulerOptions Opts = test::variantOptions();
  Opts.Formulation.Obj = Obj;
  Opts.Formulation.DepStyle = Dep;
  Opts.TimeLimitSeconds = 30.0;
  return Opts;
}

} // namespace

TEST(OptimalScheduler, PaperExample1NoObj) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  OptimalModuloScheduler Sched(
      M, makeOpts(Objective::None, DependenceStyle::Structured));
  ScheduleResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Mii, 2);
  EXPECT_EQ(R.II, 2);
  EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
  EXPECT_GT(R.Variables, 0);
  EXPECT_GT(R.Constraints, 0);
}

TEST(OptimalScheduler, PaperExample1MinRegIs7) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  for (DependenceStyle Dep :
       {DependenceStyle::Structured, DependenceStyle::Traditional}) {
    OptimalModuloScheduler Sched(M, makeOpts(Objective::MinReg, Dep));
    ScheduleResult R = Sched.schedule(G);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.II, 2);
    EXPECT_NEAR(R.SecondaryObjective, 7.0, 1e-6);
    EXPECT_EQ(computeRegisterPressure(G, R.Schedule).MaxLive, 7);
  }
}

TEST(OptimalScheduler, AllKernelsScheduleOnAllMachines) {
  for (MachineModel M : {MachineModel::example3(), MachineModel::vliw2(),
                         MachineModel::cydraLike()}) {
    for (const DependenceGraph &G : allKernels(M)) {
      OptimalModuloScheduler Sched(
          M, makeOpts(Objective::None, DependenceStyle::Structured));
      ScheduleResult R = Sched.schedule(G);
      if (R.TimedOut || R.NodeLimitHit)
        continue; // Censored under slow builds (TSan, loaded CI) — the
                  // convention is to skip budget-censored solves.
      ASSERT_TRUE(R.Found) << M.name() << "/" << G.name();
      EXPECT_GE(R.II, R.Mii);
      EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value())
          << M.name() << "/" << G.name();
    }
  }
}

TEST(OptimalScheduler, IiSearchSkipsInfeasibleMii) {
  // A loop whose MII is infeasible: two muls feeding each other with a
  // recurrence of latency 8 distance 2 gives RecMII 4, but cydra's fmul
  // initiates only every other cycle (FMul used at cycles 0 and 1), so
  // ResMII = 2 per mul... craft instead: II must rise above MII due to
  // interference. We settle for checking the driver tries multiple IIs
  // and terminates with a verified schedule.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = secondOrderRecurrence(M);
  OptimalModuloScheduler Sched(
      M, makeOpts(Objective::None, DependenceStyle::Structured));
  ScheduleResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_GE(R.II, R.Mii);
  EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
}

TEST(OptimalScheduler, MinRegNeverWorseThanNoObj) {
  MachineModel M = MachineModel::example3();
  for (const DependenceGraph &G : allKernels(M)) {
    OptimalModuloScheduler NoObj(
        M, makeOpts(Objective::None, DependenceStyle::Structured));
    OptimalModuloScheduler MinReg(
        M, makeOpts(Objective::MinReg, DependenceStyle::Structured));
    ScheduleResult A = NoObj.schedule(G);
    ScheduleResult B = MinReg.schedule(G);
    if (A.TimedOut || B.TimedOut)
      continue; // Large kernels may exceed the test budget.
    ASSERT_TRUE(A.Found && B.Found) << G.name();
    EXPECT_EQ(A.II, B.II) << G.name(); // Same minimum II.
    EXPECT_LE(computeRegisterPressure(G, B.Schedule).MaxLive,
              computeRegisterPressure(G, A.Schedule).MaxLive)
        << G.name();
  }
}

TEST(OptimalScheduler, NodeBudgetCensorsSearch) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = complexMultiply(M);
  SchedulerOptions Opts = makeOpts(Objective::MinReg,
                                   DependenceStyle::Traditional);
  Opts.NodeLimit = 1; // Absurdly small: must censor or finish at root.
  OptimalModuloScheduler Sched(M, Opts);
  ScheduleResult R = Sched.schedule(G);
  // Node censoring is now attributed to its own flag, distinct from the
  // wall-clock timeout.
  EXPECT_TRUE(R.Found || R.NodeLimitHit);
  if (!R.Found)
    EXPECT_FALSE(R.TimedOut); // 30s budget cannot plausibly expire here.
}

TEST(OptimalScheduler, ReportsMiiEvenWhenBudgetExpires) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = complexMultiply(M);
  SchedulerOptions Opts = makeOpts(Objective::MinReg,
                                   DependenceStyle::Structured);
  Opts.TimeLimitSeconds = 0.0; // Expire immediately.
  OptimalModuloScheduler Sched(M, Opts);
  ScheduleResult R = Sched.schedule(G);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_GE(R.Mii, 1);
}
