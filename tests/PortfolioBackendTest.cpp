//===- tests/PortfolioBackendTest.cpp - portfolio race differential --------===//
//
// The portfolio backend races the ILP branch-and-bound and the CDCL
// pseudo-Boolean engine per II attempt, with cross-engine incumbent
// exchange. Its committed verdicts must be bit-exact with the
// sequential single-engine backends regardless of race timing — these
// tests enforce that differential three ways (portfolio vs ILP vs PB),
// plus the race invariants themselves: loser cancellation, winner
// bookkeeping, bound-exchange soundness (a shared incumbent must never
// cut off the true optimum), and the ParallelRace composition.
//
// Budgets stay small: on a single-core host the race time-slices, so a
// portfolio attempt costs roughly the sum of what its engines burn
// until the winner finishes. Censored runs skip, per repo convention.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/OptimalScheduler.h"
#include "sched/PipelineSimulator.h"
#include "sched/Verifier.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

using namespace modsched;

namespace {

SchedulerOptions backendOpts(SchedulerBackend Backend, Objective Obj) {
  SchedulerOptions Opts;
  Opts.Backend = Backend;
  Opts.Formulation.Obj = Obj;
  Opts.TimeLimitSeconds = 30.0;
  return Opts;
}

/// Race-invariant checks every portfolio result must satisfy,
/// independent of the verdict: winners only on conclusive attempts,
/// never on cancelled ones, and the race's accounting is populated.
void checkRaceInvariants(const ScheduleResult &R) {
  for (const IiAttempt &A : R.Attempts) {
    EXPECT_TRUE(A.Winner.empty() || A.Winner == "ilp" || A.Winner == "pb")
        << "unknown winner '" << A.Winner << "' at II=" << A.II;
    if (A.Cancelled)
      EXPECT_TRUE(A.Winner.empty())
          << "cancelled attempt claims winner at II=" << A.II;
    if (A.Scheduled)
      EXPECT_FALSE(A.Winner.empty())
          << "scheduled attempt has no winner at II=" << A.II;
    EXPECT_GE(A.BoundExchanges, 0);
  }
}

/// Runs the portfolio and both sequential single-engine backends on
/// (M, G, Obj) and checks the three-way differential: identical Found
/// verdict, II, and objective value, plus an independently verified and
/// simulated portfolio schedule. Censored runs (any backend) prove
/// nothing and are skipped. Returns false when censored.
bool expectPortfolioAgrees(const MachineModel &M, const DependenceGraph &G,
                           Objective Obj) {
  ScheduleResult Ilp =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Ilp, Obj))
          .schedule(G);
  ScheduleResult Pb =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Pb, Obj))
          .schedule(G);
  ScheduleResult Port =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Portfolio, Obj))
          .schedule(G);
  if (Ilp.TimedOut || Ilp.NodeLimitHit || Pb.TimedOut || Pb.NodeLimitHit ||
      Port.TimedOut || Port.NodeLimitHit)
    return false;
  checkRaceInvariants(Port);
  EXPECT_EQ(Ilp.Found, Port.Found) << M.name() << "/" << G.name();
  EXPECT_EQ(Pb.Found, Port.Found) << M.name() << "/" << G.name();
  if (!Ilp.Found || !Port.Found)
    return true;
  EXPECT_EQ(Ilp.II, Port.II) << M.name() << "/" << G.name();
  EXPECT_EQ(Ilp.Mii, Port.Mii) << M.name() << "/" << G.name();
  EXPECT_NEAR(Ilp.SecondaryObjective, Port.SecondaryObjective, 1e-6)
      << M.name() << "/" << G.name();
  EXPECT_NEAR(Pb.SecondaryObjective, Port.SecondaryObjective, 1e-6)
      << M.name() << "/" << G.name();
  EXPECT_FALSE(verifySchedule(G, M, Port.Schedule).has_value())
      << M.name() << "/" << G.name();
  EXPECT_FALSE(simulateSchedule(G, M, Port.Schedule,
                                Port.Schedule.numStages() + 24)
                   .Violation.has_value())
      << M.name() << "/" << G.name();
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel-library differential
//===----------------------------------------------------------------------===//

TEST(PortfolioBackend, KernelNoObjAgreesWithBothEngines) {
  MachineModel M = MachineModel::example3();
  for (const DependenceGraph &G : allKernels(M))
    expectPortfolioAgrees(M, G, Objective::None);
}

TEST(PortfolioBackend, KernelMinBuffAgreesWithBothEngines) {
  MachineModel M = MachineModel::example3();
  for (const DependenceGraph &G :
       {paperExample1(M), livermore5(M), livermore11(M), dotProduct(M),
        daxpy(M)})
    expectPortfolioAgrees(M, G, Objective::MinBuff);
}

TEST(PortfolioBackend, PaperExample1MinRegIs7) {
  // Figure 1e's headline register number survives the race: with both
  // engines descending the MinReg objective and exchanging incumbents,
  // the committed optimum is still exactly 7 at II=2.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  ScheduleResult R =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Portfolio,
                                            Objective::MinReg))
          .schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.II, 2);
  EXPECT_NEAR(R.SecondaryObjective, 7.0, 1e-6);
  checkRaceInvariants(R);
}

//===----------------------------------------------------------------------===//
// Synthetic differential (12-seed suite)
//===----------------------------------------------------------------------===//

class PortfolioSyntheticTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PortfolioSyntheticTest, AgreesWithBothEngines) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 6151 + 29);
  SyntheticOptions Opts;
  Opts.MinOps = 3;
  Opts.MaxOps = 10;
  DependenceGraph G = generateLoop(M, R, Opts);
  expectPortfolioAgrees(M, G, Objective::None);
  // Objective-value differential (engines exchange incumbents while
  // descending) on the same loop.
  expectPortfolioAgrees(M, G, Objective::MinBuff);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioSyntheticTest,
                         ::testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===//
// Bound-exchange correctness
//===----------------------------------------------------------------------===//

TEST(PortfolioBackend, BoundExchangeNeverCutsTheOptimum) {
  // Objective descent is where the shared incumbent actually bites: an
  // engine that accepts a foreign bound k and then refutes "obj <= k-1"
  // commits k as optimal. If the injected bound were ever wrong (cut
  // the true optimum), the committed objective would exceed the
  // sequential ILP's — so exact objective equality on descent-heavy
  // kernels is the correctness proof of the exchange protocol.
  MachineModel M = MachineModel::vliw2();
  for (const DependenceGraph &G :
       {paperExample1(M), livermore5(M), dotProduct(M)}) {
    ScheduleResult Seq =
        OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Ilp,
                                              Objective::MinReg))
            .schedule(G);
    ScheduleResult Port =
        OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Portfolio,
                                              Objective::MinReg))
            .schedule(G);
    if (Seq.TimedOut || Seq.NodeLimitHit || Port.TimedOut ||
        Port.NodeLimitHit)
      continue;
    ASSERT_EQ(Seq.Found, Port.Found) << G.name();
    if (!Seq.Found)
      continue;
    EXPECT_EQ(Seq.II, Port.II) << G.name();
    EXPECT_NEAR(Seq.SecondaryObjective, Port.SecondaryObjective, 1e-6)
        << G.name();
    EXPECT_FALSE(verifySchedule(G, M, Port.Schedule).has_value())
        << G.name();
    checkRaceInvariants(Port);
  }
}

TEST(PortfolioBackend, SharedIncumbentBeatsIlpOwnIncumbent) {
  // Regression: the ILP worker can exhaust its tree holding an
  // incumbent WORSE than the shared cell (the PB side published a
  // better schedule, and the ILP pruned the subtree containing it
  // against that very bound). Committing the ILP's own incumbent as
  // optimal is then wrong — the proof only covers "nothing better than
  // min(own, shared)". First seen on the bench suite's synthetic5
  // under MinLife/Traditional, where the race intermittently reported
  // 17 against the true optimum 16; repeated trials keep the
  // race-timing window covered.
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite =
      generateSuite(M, 25, 20260705, /*IncludeKernels=*/true, 32);
  size_t NumKernels = Suite.size() - 25;
  const DependenceGraph &G = Suite[NumKernels + 5];

  SchedulerOptions IlpOpts = backendOpts(SchedulerBackend::Ilp,
                                         Objective::MinLife);
  IlpOpts.Formulation.DepStyle = DependenceStyle::Traditional;
  ScheduleResult Seq = OptimalModuloScheduler(M, IlpOpts).schedule(G);
  ASSERT_TRUE(Seq.Found);

  for (int Trial = 0; Trial < 20; ++Trial) {
    SchedulerOptions PortOpts = IlpOpts;
    PortOpts.Backend = SchedulerBackend::Portfolio;
    ScheduleResult Port = OptimalModuloScheduler(M, PortOpts).schedule(G);
    if (Port.TimedOut || Port.NodeLimitHit)
      continue;
    ASSERT_TRUE(Port.Found) << "trial " << Trial;
    EXPECT_EQ(Seq.II, Port.II) << "trial " << Trial;
    ASSERT_NEAR(Seq.SecondaryObjective, Port.SecondaryObjective, 1e-6)
        << "trial " << Trial;
    checkRaceInvariants(Port);
  }
}

//===----------------------------------------------------------------------===//
// Eligibility sit-outs
//===----------------------------------------------------------------------===//

TEST(PortfolioBackend, MinLifeCoeffGuardSitsPbOut) {
  // Forcing the wide-coefficient guard (limit 0 makes every MinLife II
  // ineligible) must route the whole ladder through the inline ILP: the
  // verdict matches the sequential ILP and the PB engine never runs.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  SchedulerOptions Opts = backendOpts(SchedulerBackend::Portfolio,
                                      Objective::MinLife);
  Opts.PortfolioPbCoeffLimit = 0;
  ScheduleResult Port = OptimalModuloScheduler(M, Opts).schedule(G);
  ScheduleResult Seq =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Ilp,
                                            Objective::MinLife))
          .schedule(G);
  ASSERT_TRUE(Seq.Found && Port.Found);
  EXPECT_EQ(Seq.II, Port.II);
  EXPECT_NEAR(Seq.SecondaryObjective, Port.SecondaryObjective, 1e-6);
  EXPECT_EQ(Port.PbConflicts, 0);
  EXPECT_EQ(Port.PbPropagations, 0);
  for (const IiAttempt &A : Port.Attempts)
    if (!A.Winner.empty())
      EXPECT_EQ(A.Winner, "ilp");
}

TEST(PortfolioBackend, TinyNoObjEncodingSitsIlpOut) {
  // A feasibility attempt whose PB encoding is below the threshold runs
  // the PB engine inline (no race, no B&B nodes); an enormous threshold
  // forces that path for the whole ladder.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  SchedulerOptions Opts = backendOpts(SchedulerBackend::Portfolio,
                                      Objective::None);
  Opts.PortfolioIlpMinPbVars = 1 << 20;
  ScheduleResult Port = OptimalModuloScheduler(M, Opts).schedule(G);
  ScheduleResult Seq =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Ilp,
                                            Objective::None))
          .schedule(G);
  ASSERT_TRUE(Seq.Found && Port.Found);
  EXPECT_EQ(Seq.II, Port.II);
  EXPECT_EQ(Port.Nodes, 0);
  EXPECT_GT(Port.PbPropagations, 0);
  for (const IiAttempt &A : Port.Attempts)
    if (!A.Winner.empty())
      EXPECT_EQ(A.Winner, "pb");
  EXPECT_FALSE(verifySchedule(G, M, Port.Schedule).has_value());
}

//===----------------------------------------------------------------------===//
// ParallelRace composition
//===----------------------------------------------------------------------===//

TEST(PortfolioBackend, ParallelRaceMatchesSequential) {
  // The II race on top of the engine race: per-slot race pools are
  // reused across waves and the commit scan stays deterministic, so the
  // committed II/objective must match the sequential portfolio search.
  MachineModel M = MachineModel::cydraLike();
  for (const DependenceGraph &G : {secondOrderRecurrence(M), stencil3(M)}) {
    SchedulerOptions Seq = backendOpts(SchedulerBackend::Portfolio,
                                       Objective::None);
    SchedulerOptions Race = Seq;
    Race.Search = IiSearchKind::ParallelRace;
    Race.SearchJobs = 2;
    ScheduleResult A = OptimalModuloScheduler(M, Seq).schedule(G);
    ScheduleResult B = OptimalModuloScheduler(M, Race).schedule(G);
    if (A.TimedOut || B.TimedOut)
      continue;
    ASSERT_TRUE(A.Found && B.Found) << G.name();
    EXPECT_EQ(A.II, B.II) << G.name();
    EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value()) << G.name();
    checkRaceInvariants(A);
    checkRaceInvariants(B);
  }
}

//===----------------------------------------------------------------------===//
// Seam behavior and telemetry
//===----------------------------------------------------------------------===//

TEST(PortfolioBackend, BackendNameRoundTrips) {
  EXPECT_STREQ(toString(SchedulerBackend::Portfolio), "portfolio");
}

TEST(PortfolioBackend, RaceTelemetryIsPopulated) {
  // A raced MinBuff ladder must bump the portfolio counters: races
  // launched and a winner tallied on the conclusive attempts.
  int64_t RacesBefore = 0, WinsBefore = 0;
  if (const telemetry::Counter *C =
          telemetry::findCounter("ilpsched/portfolio.races"))
    RacesBefore = C->value();
  const telemetry::Counter *WIlp =
      telemetry::findCounter("ilpsched/portfolio.winner_ilp");
  const telemetry::Counter *WPb =
      telemetry::findCounter("ilpsched/portfolio.winner_pb");
  if (WIlp && WPb)
    WinsBefore = WIlp->value() + WPb->value();

  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = secondOrderRecurrence(M);
  ScheduleResult R =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Portfolio,
                                            Objective::MinBuff))
          .schedule(G);
  ASSERT_TRUE(R.Found);
  checkRaceInvariants(R);

  const telemetry::Counter *Races =
      telemetry::findCounter("ilpsched/portfolio.races");
  ASSERT_NE(Races, nullptr);
  ASSERT_NE(WIlp, nullptr);
  ASSERT_NE(WPb, nullptr);
  EXPECT_GT(Races->value(), RacesBefore);
  EXPECT_GT(WIlp->value() + WPb->value(), WinsBefore);
}
