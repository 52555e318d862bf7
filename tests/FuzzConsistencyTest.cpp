//===- tests/FuzzConsistencyTest.cpp - verifier/simulator agreement --------===//
//
// Mutation fuzzing: start from a valid schedule, randomly perturb start
// times, and require the static verifier and the dynamic pipeline
// simulator to AGREE on validity. The two checkers share no code (one
// folds constraints onto the MRT, the other executes cycles), so
// agreement on thousands of mutants is strong evidence both are right.
//
// A second differential leg fuzzes the two exact BACKENDS against each
// other: on random loops the branch-and-bound ILP and the CDCL
// pseudo-Boolean engine must agree on the feasible-II verdict, the
// achieved II, and the optimal objective value — they share no solver
// code, only the formulation's mathematics. The backend legs run on a
// deterministic node budget (B&B nodes plus CDCL conflicts) and assert
// every solve decided.
//
//===----------------------------------------------------------------------===//

#include "heuristic/IterativeModuloScheduler.h"
#include "ilpsched/OptimalScheduler.h"
#include "sched/PipelineSimulator.h"
#include "sched/Verifier.h"
#include "support/Rng.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <string>

using namespace modsched;

namespace {

/// Iterations needed so every steady-state overlap (and thus every MRT
/// conflict) materializes dynamically.
int enoughIterations(const ModuloSchedule &S) {
  return S.numStages() + 24;
}

/// Node budget of every backend-leg solve, about ten times the largest
/// spend (1 904 B&B nodes, an ILP MinBuff descent in the PB leg).
constexpr int64_t LegNodeLimit = 20000;

/// Options for one backend leg: a deterministic node budget, with the
/// wall clock only as a distant safety net.
SchedulerOptions legOpts(SchedulerBackend Backend, Objective Obj) {
  SchedulerOptions Opts;
  Opts.Backend = Backend;
  Opts.Formulation.Obj = Obj;
  Opts.NodeLimit = LegNodeLimit;
  Opts.TimeLimitSeconds = 3600.0;
  return Opts;
}

/// A backend-leg solve must be decided within its budget.
void expectDecided(const ScheduleResult &R, const char *Leg,
                   const std::string &What) {
  EXPECT_FALSE(R.TimedOut) << Leg << " " << What;
  EXPECT_FALSE(R.NodeLimitHit) << Leg << " spent " << R.budgetNodes() << " "
                               << What;
}

} // namespace

class FuzzConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzConsistencyTest, VerifierAndSimulatorAgree) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 101 + 41);
  SyntheticOptions Opts;
  Opts.MinOps = 3;
  Opts.MaxOps = 10;
  DependenceGraph G = generateLoop(M, R, Opts);
  IterativeModuloScheduler Ims(M);
  ImsResult H = Ims.schedule(G);
  if (!H.Found)
    GTEST_SKIP();

  // The pristine schedule passes both checkers.
  ASSERT_FALSE(verifySchedule(G, M, H.Schedule).has_value());
  ASSERT_FALSE(simulateSchedule(G, M, H.Schedule,
                                enoughIterations(H.Schedule))
                   .Violation.has_value());

  int MaxTime = H.Schedule.scheduleLength() + 2 * H.Schedule.ii();
  for (int Mutant = 0; Mutant < 40; ++Mutant) {
    ModuloSchedule S = H.Schedule;
    // Perturb 1-2 operations.
    int NumMutations = 1 + (R.nextBool(0.4) ? 1 : 0);
    for (int K = 0; K < NumMutations; ++K) {
      int Op = static_cast<int>(R.nextBelow(G.numOperations()));
      S.times()[Op] = static_cast<int>(R.nextInRange(0, MaxTime));
    }
    bool StaticOk = !verifySchedule(G, M, S).has_value();
    SimulationReport Sim = simulateSchedule(G, M, S, enoughIterations(S));
    bool DynamicOk = !Sim.Violation.has_value();
    EXPECT_EQ(StaticOk, DynamicOk)
        << "static=" << StaticOk << " dynamic="
        << (Sim.Violation ? *Sim.Violation : std::string("ok")) << "\n"
        << G.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConsistencyTest,
                         ::testing::Range<uint64_t>(0, 25));

//===----------------------------------------------------------------------===//
// PB-vs-ILP backend differential fuzz
//===----------------------------------------------------------------------===//

class BackendDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendDifferentialTest, PbAndIlpAgree) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 131 + 7);
  SyntheticOptions Gen;
  Gen.MinOps = 3;
  Gen.MaxOps = 10;

  // Four loops per seed x 25 seeds = 100 random loops through both
  // exact engines. Loop 0 of each seed additionally runs the MinBuff
  // descent so optimal objective VALUES (not just verdicts) differ-test.
  for (int LoopIdx = 0; LoopIdx < 4; ++LoopIdx) {
    DependenceGraph G = generateLoop(M, R, Gen);
    for (Objective Obj : {Objective::None, Objective::MinBuff}) {
      if (Obj == Objective::MinBuff && LoopIdx != 0)
        continue;
      const std::string What = std::string(toString(Obj)) + " loop " +
                               std::to_string(LoopIdx) + "\n" + G.toString();
      ScheduleResult A =
          OptimalModuloScheduler(M, legOpts(SchedulerBackend::Ilp, Obj))
              .schedule(G);
      ScheduleResult B =
          OptimalModuloScheduler(M, legOpts(SchedulerBackend::Pb, Obj))
              .schedule(G);
      expectDecided(A, "ilp", What);
      expectDecided(B, "pb", What);
      ASSERT_EQ(A.Found, B.Found) << What;
      if (!A.Found)
        continue;
      EXPECT_EQ(A.II, B.II) << What;
      EXPECT_NEAR(A.SecondaryObjective, B.SecondaryObjective, 1e-6)
          << What;
      // The PB schedule passes both independent checkers.
      EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value())
          << G.toString();
      EXPECT_FALSE(simulateSchedule(G, M, B.Schedule,
                                    enoughIterations(B.Schedule))
                       .Violation.has_value())
          << G.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendDifferentialTest,
                         ::testing::Range<uint64_t>(0, 25));

//===----------------------------------------------------------------------===//
// Portfolio-vs-ILP differential fuzz
//===----------------------------------------------------------------------===//

class PortfolioDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PortfolioDifferentialTest, PortfolioAndIlpAgree) {
  // The portfolio backend decides each II with the engine its objective
  // picks (PB for both objectives here); its verdicts must equal the
  // ILP's. Two loops per seed x 10 seeds; loop 0 additionally runs the
  // MinBuff descent so objective values are fuzzed, not just
  // feasibility.
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 197 + 3);
  SyntheticOptions Gen;
  Gen.MinOps = 3;
  Gen.MaxOps = 10;
  for (int LoopIdx = 0; LoopIdx < 2; ++LoopIdx) {
    DependenceGraph G = generateLoop(M, R, Gen);
    for (Objective Obj : {Objective::None, Objective::MinBuff}) {
      if (Obj == Objective::MinBuff && LoopIdx != 0)
        continue;
      const std::string What = std::string(toString(Obj)) + " loop " +
                               std::to_string(LoopIdx) + "\n" + G.toString();
      ScheduleResult A =
          OptimalModuloScheduler(M, legOpts(SchedulerBackend::Ilp, Obj))
              .schedule(G);
      ScheduleResult B =
          OptimalModuloScheduler(M, legOpts(SchedulerBackend::Portfolio, Obj))
              .schedule(G);
      expectDecided(A, "ilp", What);
      expectDecided(B, "portfolio", What);
      ASSERT_EQ(A.Found, B.Found) << What;
      if (!A.Found)
        continue;
      EXPECT_EQ(A.II, B.II) << What;
      EXPECT_NEAR(A.SecondaryObjective, B.SecondaryObjective, 1e-6)
          << What;
      // The portfolio schedule passes both independent checkers.
      EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value())
          << G.toString();
      EXPECT_FALSE(simulateSchedule(G, M, B.Schedule,
                                    enoughIterations(B.Schedule))
                       .Violation.has_value())
          << G.toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioDifferentialTest,
                         ::testing::Range<uint64_t>(0, 10));
