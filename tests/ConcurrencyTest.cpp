//===- tests/ConcurrencyTest.cpp - reentrant solve pipeline tests ----------===//
//
// Tests for the concurrency layer introduced with SolveContext: cross-
// thread cancellation of a running branch-and-bound search, deadline /
// node-budget attribution, and telemetry shard merging across a
// ThreadPool.
//
//===----------------------------------------------------------------------===//

#include "ilp/BranchAndBound.h"
#include "lp/SolveContext.h"
#include "support/Cancellation.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

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
