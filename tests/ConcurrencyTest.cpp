//===- tests/ConcurrencyTest.cpp - reentrant solve pipeline tests ----------===//
//
// Tests for the concurrency layer introduced with SolveContext: cross-
// thread cancellation of a running branch-and-bound search, deadline /
// node-budget attribution, telemetry shard merging across a ThreadPool,
// and a differential of the ParallelRace II search against the
// Sequential baseline (same II, same secondary objective, same
// verdicts — the race must be an implementation detail, never a
// semantic change).
//
//===----------------------------------------------------------------------===//

#include "TestVariant.h"

#include "ilp/BranchAndBound.h"
#include "ilpsched/IiSearch.h"
#include "ilpsched/OptimalScheduler.h"
#include "lp/SolveContext.h"
#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"
#include "support/Cancellation.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace modsched;
using namespace modsched::ilp;

namespace {

/// A deterministically infeasible market-split style 0-1 program whose
/// LP relaxation is feasible: every coefficient is even while every
/// right-hand side is odd, so no integral point exists, but interval
/// propagation and LP bounds cannot see the parity argument — the
/// branch-and-bound search has to grind through an exponential tree.
/// Perfect fodder for cancellation tests: it runs "forever" yet every
/// node is cheap, so the search polls its budgets constantly.
lp::Model hardParityModel(int NumVars, int NumCons) {
  lp::Model M;
  Rng R(0xC0FFEE);
  for (int V = 0; V < NumVars; ++V)
    M.addVariable("x" + std::to_string(V), 0.0, 1.0,
                  /*Objective=*/1.0, lp::VarKind::Integer);
  for (int C = 0; C < NumCons; ++C) {
    std::vector<lp::Term> Terms;
    int64_t Sum = 0;
    for (int V = 0; V < NumVars; ++V) {
      int64_t Coeff = 2 * R.nextInRange(5, 49); // Always even.
      Terms.push_back({V, static_cast<double>(Coeff)});
      Sum += Coeff;
    }
    int64_t Rhs = Sum / 2;
    if (Rhs % 2 == 0)
      ++Rhs; // Always odd: even * {0,1} can never sum to it.
    M.addConstraint(std::move(Terms), lp::ConstraintSense::EQ,
                    static_cast<double>(Rhs));
  }
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cross-thread cancellation of a running MIP solve
//===----------------------------------------------------------------------===//

TEST(Concurrency, CancellationStopsBranchAndBoundMidSearch) {
  lp::Model M = hardParityModel(/*NumVars=*/28, /*NumCons=*/4);

  std::atomic<int64_t> NodesSeen{0};
  MipOptions Opts; // No budgets: only cancellation can stop this.
  Opts.Observer = [&NodesSeen](const BbEventInfo &Info) {
    NodesSeen.store(Info.Node, std::memory_order_relaxed);
  };
  MipSolver Solver(Opts);

  CancellationSource Source;
  lp::SolveContext Ctx;
  Ctx.Cancel = Source.token();

  MipResult R;
  std::atomic<bool> Done{false};
  std::thread Worker([&]() {
    telemetry::ThreadShardScope Shard; // Every non-main solver thread.
    R = Solver.solve(M, Ctx);
    Done.store(true, std::memory_order_release);
  });

  // Wait until the search is demonstrably inside the tree, then pull
  // the plug from this (different) thread.
  while (NodesSeen.load(std::memory_order_relaxed) < 8 &&
         !Done.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Source.cancel();
  Worker.join();

  ASSERT_TRUE(Done.load());
  // The instance is infeasible by parity, so no solver outcome other
  // than Cancelled is acceptable within any realistic test runtime.
  EXPECT_EQ(R.Status, MipStatus::Cancelled);
  EXPECT_TRUE(R.Cancelled);
  EXPECT_FALSE(R.HasSolution);
  EXPECT_FALSE(R.HitNodeLimit);
  EXPECT_GE(R.Nodes, 1);
}

TEST(Concurrency, ExpiredContextDeadlineReportsTimeLimit) {
  lp::Model M = hardParityModel(/*NumVars=*/20, /*NumCons=*/3);
  lp::SolveContext Ctx;
  Ctx.DeadlineSeconds = monotonicSeconds() - 1.0; // Already in the past.
  MipResult R = MipSolver().solve(M, Ctx);
  EXPECT_EQ(R.Status, MipStatus::Limit);
  EXPECT_TRUE(R.HitTimeLimit);
  EXPECT_FALSE(R.HitNodeLimit);
  EXPECT_FALSE(R.Cancelled);
  EXPECT_EQ(R.Nodes, 0);
}

TEST(Concurrency, NodeBudgetIsAttributedToHitNodeLimit) {
  lp::Model M = hardParityModel(/*NumVars=*/20, /*NumCons=*/3);
  MipOptions Opts;
  Opts.NodeLimit = 16;
  MipResult R = MipSolver(Opts).solve(M);
  EXPECT_EQ(R.Status, MipStatus::Limit);
  EXPECT_TRUE(R.HitNodeLimit);
  EXPECT_FALSE(R.HitTimeLimit);
  EXPECT_FALSE(R.Cancelled);
  EXPECT_EQ(R.Nodes, 16);
}

//===----------------------------------------------------------------------===//
// Telemetry shard merging
//===----------------------------------------------------------------------===//

namespace {
telemetry::Counter StatTestAdds("tests", "concurrency.adds",
                                "ConcurrencyTest shard-merge counter");
} // namespace

TEST(Concurrency, TelemetryShardsMergeAcrossThreadPool) {
  const int64_t Before = StatTestAdds.value();
  {
    ThreadPool Pool(4);
    for (int I = 0; I < 64; ++I)
      Pool.submit([]() { StatTestAdds += 1; });
    Pool.wait();
    // Mid-life flush: deltas become visible without ending the thread.
    for (int I = 0; I < 4; ++I)
      Pool.submit([]() {
        StatTestAdds += 1;
        telemetry::flushThreadShard();
      });
    Pool.wait();
  } // Pool destruction merges every remaining worker shard.
  EXPECT_EQ(StatTestAdds.value() - Before, 68);
}

//===----------------------------------------------------------------------===//
// ParallelRace vs Sequential differential
//===----------------------------------------------------------------------===//

namespace {

SchedulerOptions raceOpts(Objective Obj, IiSearchKind Kind, int Jobs) {
  SchedulerOptions Opts = test::variantOptions();
  Opts.Formulation.Obj = Obj;
  Opts.Formulation.DepStyle = DependenceStyle::Structured;
  Opts.TimeLimitSeconds = 30.0;
  Opts.Search = Kind;
  Opts.SearchJobs = Jobs;
  return Opts;
}

} // namespace

class RaceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaceDifferentialTest, MatchesSequentialVerdicts) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 7919 + 13);
  SyntheticOptions SOpts;
  SOpts.MinOps = 3;
  SOpts.MaxOps = 9;
  DependenceGraph G = generateLoop(M, R, SOpts);

  OptimalModuloScheduler Seq(
      M, raceOpts(Objective::MinReg, IiSearchKind::Sequential, 1));
  OptimalModuloScheduler Race(
      M, raceOpts(Objective::MinReg, IiSearchKind::ParallelRace, 3));
  ScheduleResult A = Seq.schedule(G);
  ScheduleResult B = Race.schedule(G);
  if (A.TimedOut || B.TimedOut || A.NodeLimitHit || B.NodeLimitHit)
    GTEST_SKIP() << "censored run; verdict comparison is meaningless";

  EXPECT_EQ(A.Found, B.Found) << G.toString();
  EXPECT_EQ(A.Mii, B.Mii);
  if (A.Found && B.Found) {
    EXPECT_EQ(A.II, B.II) << G.toString();
    EXPECT_NEAR(A.SecondaryObjective, B.SecondaryObjective, 1e-6)
        << G.toString();
    EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value());
    EXPECT_EQ(computeRegisterPressure(G, B.Schedule).MaxLive,
              computeRegisterPressure(G, A.Schedule).MaxLive);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaceDifferentialTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(Concurrency, ParallelRaceCancelsLosersCleanly) {
  // secondOrderRecurrence on the cydra-like machine needs II > MII, so
  // a 4-wide race genuinely overlaps feasible and infeasible IIs and a
  // winner genuinely cancels higher-II siblings.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = secondOrderRecurrence(M);

  OptimalModuloScheduler Seq(
      M, raceOpts(Objective::None, IiSearchKind::Sequential, 1));
  OptimalModuloScheduler Race(
      M, raceOpts(Objective::None, IiSearchKind::ParallelRace, 4));
  ScheduleResult A = Seq.schedule(G);
  ScheduleResult B = Race.schedule(G);

  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_EQ(A.II, B.II);
  EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value());

  for (const IiAttempt &Attempt : B.Attempts) {
    if (Attempt.II < B.II) {
      // Everything below the committed II was genuinely refuted, never
      // cancelled (cancellation only ever targets higher IIs).
      EXPECT_FALSE(Attempt.Scheduled);
      EXPECT_FALSE(Attempt.Cancelled);
    }
    if (Attempt.Cancelled) {
      EXPECT_GT(Attempt.II, B.II);
      // A cancelled attempt never half-delivers: no schedule, no
      // infeasibility verdict.
      EXPECT_FALSE(Attempt.Scheduled);
      EXPECT_EQ(Attempt.Status, MipStatus::Cancelled);
    }
  }
}

TEST(Concurrency, RaceFactoryDegeneratesToSequential) {
  EXPECT_STREQ(
      makeIiSearchStrategy(IiSearchKind::ParallelRace, 1)->name(),
      "sequential");
  EXPECT_STREQ(
      makeIiSearchStrategy(IiSearchKind::ParallelRace, 2)->name(),
      "parallel-race");
  EXPECT_STREQ(makeIiSearchStrategy(IiSearchKind::Sequential, 8)->name(),
               "sequential");
}
