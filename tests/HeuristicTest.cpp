//===- tests/HeuristicTest.cpp - IMS + stage scheduling tests --------------===//

#include "heuristic/IterativeModuloScheduler.h"
#include "heuristic/StageScheduler.h"

#include "sched/Mii.h"
#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

using namespace modsched;

TEST(Ims, SchedulesPaperExample1AtMii) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  IterativeModuloScheduler Sched(M);
  ImsResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Mii, 2);
  EXPECT_EQ(R.II, 2);
  EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
}

TEST(Ims, AllKernelsAllMachines) {
  for (MachineModel M : {MachineModel::example3(), MachineModel::vliw2(),
                         MachineModel::cydraLike()}) {
    for (const DependenceGraph &G : allKernels(M)) {
      IterativeModuloScheduler Sched(M);
      ImsResult R = Sched.schedule(G);
      ASSERT_TRUE(R.Found) << M.name() << "/" << G.name();
      EXPECT_GE(R.II, R.Mii);
      EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value())
          << M.name() << "/" << G.name();
    }
  }
}

TEST(Ims, RespectsRecurrences) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = secondOrderRecurrence(M);
  IterativeModuloScheduler Sched(M);
  ImsResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  // x[i] = a*x[i-1] + ...: cycle mul(4) -> add(1) -> add(1) back to mul,
  // distance 1 => RecMII = 6.
  EXPECT_GE(R.II, 6);
  EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
}

TEST(StageScheduler, NeverWorsensAndKeepsRows) {
  MachineModel M = MachineModel::example3();
  for (const DependenceGraph &G : allKernels(M)) {
    IterativeModuloScheduler Sched(M);
    ImsResult R = Sched.schedule(G);
    ASSERT_TRUE(R.Found) << G.name();
    RegisterPressure Before = computeRegisterPressure(G, R.Schedule);
    ModuloSchedule Improved = stageSchedule(G, R.Schedule);
    RegisterPressure After = computeRegisterPressure(G, Improved);
    EXPECT_LE(After.TotalLifetime, Before.TotalLifetime) << G.name();
    EXPECT_FALSE(verifySchedule(G, M, Improved).has_value()) << G.name();
    for (int Op = 0; Op < G.numOperations(); ++Op)
      EXPECT_EQ(Improved.row(Op), R.Schedule.row(Op));
  }
}

TEST(StageScheduler, MaxLiveMetricHelps) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = livermore1(M);
  IterativeModuloScheduler Sched(M);
  ImsResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  StageSchedulerOptions Opts;
  Opts.Metric = StageMetric::MaxLive;
  ModuloSchedule Improved = stageSchedule(G, R.Schedule, Opts);
  EXPECT_LE(computeRegisterPressure(G, Improved).MaxLive,
            computeRegisterPressure(G, R.Schedule).MaxLive);
  EXPECT_FALSE(verifySchedule(G, M, Improved).has_value());
}

TEST(Ims, EvictionPathOnTightMachine) {
  // A single-FU machine forces resource conflicts: the scheduler must
  // exercise forced placement + eviction and still terminate with a
  // valid schedule (or fail cleanly within budget).
  MachineModel M;
  M.setName("one-fu");
  int Fu = M.addResource("fu", 1);
  M.addOpClass(opclasses::Load, 2, {{Fu, 0}});
  M.addOpClass(opclasses::Store, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Add, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Sub, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Mul, 3, {{Fu, 0}});
  M.addOpClass(opclasses::Div, 6, {{Fu, 0}});
  M.addOpClass(opclasses::Copy, 1, {{Fu, 0}});
  M.addOpClass(opclasses::Branch, 1, {{Fu, 0}});

  DependenceGraph G = paperExample1(M);
  IterativeModuloScheduler Sched(M);
  ImsResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_GE(R.II, 5); // 5 ops on 1 FU.
  EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
}

TEST(Ims, BudgetZeroFailsCleanly) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  ImsOptions Opts;
  Opts.BudgetRatio = 0; // Budget = N steps: barely enough or not.
  Opts.MaxIiIncrease = 0;
  IterativeModuloScheduler Sched(M, Opts);
  ImsResult R = Sched.schedule(G);
  if (R.Found) {
    EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
  }
}

TEST(StageScheduler, FixpointIsStable) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = stencil3(M);
  IterativeModuloScheduler Sched(M);
  ImsResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  ModuloSchedule Once = stageSchedule(G, R.Schedule);
  ModuloSchedule Twice = stageSchedule(G, Once);
  EXPECT_EQ(computeRegisterPressure(G, Once).TotalLifetime,
            computeRegisterPressure(G, Twice).TotalLifetime);
}
