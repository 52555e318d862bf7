//===- tests/PortfolioBackendTest.cpp - portfolio engine choice ------------===//
//
// The portfolio backend decides each II attempt with one engine, picked
// from the formulation: the CDCL pseudo-Boolean engine when
// PbFormulation::supports it and the objective is not MinLife, the LP
// branch-and-bound otherwise. The picked engine runs on the caller's
// thread exactly as its own backend does, so these tests pin that a
// portfolio solve is the picked backend's solve — the same nodes,
// conflicts, attempts, II, objective and schedule — and keep the
// three-way verdict differential (portfolio vs ILP vs PB).
//
// Budgets are deterministic: a node budget (B&B nodes plus CDCL
// conflicts), with the wall clock only as a distant safety net. The
// differential cases are asserted decided; the kernel-by-objective
// sweep lists the cases its budget censors by name.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/OptimalScheduler.h"
#include "ilpsched/PbFormulation.h"
#include "sched/PipelineSimulator.h"
#include "sched/Verifier.h"
#include "support/Rng.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace modsched;

namespace {

SchedulerOptions backendOpts(SchedulerBackend Backend, Objective Obj,
                             int64_t NodeLimit = 200000) {
  SchedulerOptions Opts;
  Opts.Backend = Backend;
  Opts.Formulation.Obj = Obj;
  Opts.NodeLimit = NodeLimit;
  Opts.TimeLimitSeconds = 3600.0;
  return Opts;
}

/// The engine the portfolio picks for \p F.
SchedulerBackend pickedEngine(const FormulationOptions &F) {
  return PbFormulation::supports(F) && F.Obj != Objective::MinLife
             ? SchedulerBackend::Pb
             : SchedulerBackend::Ilp;
}

/// A case asserted decided: a censored run is a failure, not a skip.
void expectDecided(const ScheduleResult &R, const std::string &What) {
  EXPECT_FALSE(R.TimedOut) << What;
  EXPECT_FALSE(R.NodeLimitHit) << What << " (budget " << R.budgetNodes()
                               << ")";
}

/// Every conclusive portfolio attempt names \p Engine; censored,
/// cancelled and window-infeasible attempts name none.
void expectWinners(const ScheduleResult &R, SchedulerBackend Engine,
                   const std::string &What) {
  for (const IiAttempt &A : R.Attempts) {
    const bool Conclusive =
        !A.WindowInfeasible && !A.Cancelled &&
        (A.Scheduled || A.Status == ilp::MipStatus::Infeasible);
    EXPECT_EQ(A.Winner, Conclusive ? toString(Engine) : "")
        << What << " II=" << A.II;
  }
}

/// Runs the portfolio and the backend its rule picks on (M, G, Obj)
/// under \p NodeLimit and expects the same solve, effort included.
/// Returns true when the solve was censored.
bool expectSameSolveAsPickedEngine(const MachineModel &M,
                                   const DependenceGraph &G, Objective Obj,
                                   int64_t NodeLimit) {
  SchedulerOptions PortOpts =
      backendOpts(SchedulerBackend::Portfolio, Obj, NodeLimit);
  const SchedulerBackend Engine = pickedEngine(PortOpts.Formulation);
  SchedulerOptions EngineOpts = PortOpts;
  EngineOpts.Backend = Engine;
  ScheduleResult Port = OptimalModuloScheduler(M, PortOpts).schedule(G);
  ScheduleResult Alone = OptimalModuloScheduler(M, EngineOpts).schedule(G);
  const std::string What = M.name() + "/" + G.name() + " " + toString(Obj) +
                           " vs " + toString(Engine);

  EXPECT_EQ(Port.Found, Alone.Found) << What;
  EXPECT_EQ(Port.TimedOut, Alone.TimedOut) << What;
  EXPECT_EQ(Port.NodeLimitHit, Alone.NodeLimitHit) << What;
  EXPECT_EQ(Port.II, Alone.II) << What;
  EXPECT_EQ(Port.SecondaryObjective, Alone.SecondaryObjective) << What;
  EXPECT_EQ(Port.Schedule.times(), Alone.Schedule.times()) << What;
  EXPECT_EQ(Port.Nodes, Alone.Nodes) << What;
  EXPECT_EQ(Port.SimplexIterations, Alone.SimplexIterations) << What;
  EXPECT_EQ(Port.LpRefactorizations, Alone.LpRefactorizations) << What;
  EXPECT_EQ(Port.PbConflicts, Alone.PbConflicts) << What;
  EXPECT_EQ(Port.PbPropagations, Alone.PbPropagations) << What;
  EXPECT_EQ(Port.PbRestarts, Alone.PbRestarts) << What;
  EXPECT_EQ(Port.PbLearned, Alone.PbLearned) << What;
  EXPECT_EQ(Port.Variables, Alone.Variables) << What;
  EXPECT_EQ(Port.Constraints, Alone.Constraints) << What;
  EXPECT_EQ(Port.Attempts.size(), Alone.Attempts.size()) << What;
  for (size_t I = 0; I < Port.Attempts.size() && I < Alone.Attempts.size();
       ++I) {
    const IiAttempt &P = Port.Attempts[I], &A = Alone.Attempts[I];
    EXPECT_EQ(P.II, A.II) << What;
    EXPECT_EQ(P.Status, A.Status) << What << " II=" << P.II;
    EXPECT_EQ(P.Nodes, A.Nodes) << What << " II=" << P.II;
    EXPECT_EQ(P.PbConflicts, A.PbConflicts) << What << " II=" << P.II;
    EXPECT_TRUE(A.Winner.empty()) << What << " II=" << A.II;
  }
  expectWinners(Port, Engine, What);
  return Port.TimedOut || Port.NodeLimitHit;
}

/// Runs the portfolio and both single-engine backends on (M, G, Obj) and
/// checks the three-way differential: each run decided, identical Found
/// verdict, II and objective value, plus an independently verified and
/// simulated portfolio schedule.
void expectPortfolioAgrees(const MachineModel &M, const DependenceGraph &G,
                           Objective Obj) {
  ScheduleResult Ilp =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Ilp, Obj))
          .schedule(G);
  ScheduleResult Pb =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Pb, Obj))
          .schedule(G);
  SchedulerOptions PortOpts = backendOpts(SchedulerBackend::Portfolio, Obj);
  ScheduleResult Port = OptimalModuloScheduler(M, PortOpts).schedule(G);
  const std::string What =
      M.name() + "/" + G.name() + " " + toString(Obj) + " ";
  expectDecided(Ilp, What + "ilp");
  expectDecided(Pb, What + "pb");
  expectDecided(Port, What + "portfolio");
  expectWinners(Port, pickedEngine(PortOpts.Formulation), What);
  EXPECT_EQ(Ilp.Found, Port.Found) << What;
  EXPECT_EQ(Pb.Found, Port.Found) << What;
  if (!Ilp.Found || !Port.Found)
    return;
  EXPECT_EQ(Ilp.II, Port.II) << What;
  EXPECT_EQ(Ilp.Mii, Port.Mii) << What;
  EXPECT_NEAR(Ilp.SecondaryObjective, Port.SecondaryObjective, 1e-6) << What;
  EXPECT_NEAR(Pb.SecondaryObjective, Port.SecondaryObjective, 1e-6) << What;
  EXPECT_FALSE(verifySchedule(G, M, Port.Schedule).has_value()) << What;
  EXPECT_FALSE(simulateSchedule(G, M, Port.Schedule,
                                Port.Schedule.numStages() + 24)
                   .Violation.has_value())
      << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// The portfolio's solve is the picked engine's solve
//===----------------------------------------------------------------------===//

TEST(PortfolioBackend, EveryKernelAndObjectiveMatchesThePickedEngine) {
  // Every kernel x objective on cydraLike, under node budgets small
  // enough to censor some: a censored portfolio solve must be censored
  // exactly as the picked engine's (same spend, same flags), and the
  // censored set is pinned by name. MinLife, decided by the ILP, gets
  // the smaller budget: livermore7-eos's node LPs cost about 50 ms each.
  MachineModel M = MachineModel::cydraLike();
  std::set<std::string> Censored;
  for (const DependenceGraph &G : allKernels(M))
    for (Objective Obj : {Objective::None, Objective::MinReg,
                          Objective::MinBuff, Objective::MinLife}) {
      const int64_t NodeLimit = Obj == Objective::MinLife ? 40 : 20000;
      if (expectSameSolveAsPickedEngine(M, G, Obj, NodeLimit))
        Censored.insert(G.name() + " " + toString(Obj));
    }
  EXPECT_EQ(Censored, (std::set<std::string>{
                          "complex-multiply MinLife",
                          "complex-multiply MinReg",
                          "fir4 MinLife",
                          "fir4 MinReg",
                          "hydro2d-fragment MinLife",
                          "hydro2d-fragment MinReg",
                          "livermore1-hydro MinLife",
                          "livermore7-eos MinLife",
                          "livermore7-eos MinReg",
                          "stencil3 MinLife",
                      }));
}

TEST(PortfolioBackend, UnsupportedFormulationPicksIlp) {
  // MinSL and instance mapping have no PB encoding: the portfolio
  // decides them with the ILP, silently (the PB backend's fallback
  // warning is its own), and spends no conflicts.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  SchedulerOptions MinSl =
      backendOpts(SchedulerBackend::Portfolio, Objective::MinSL);
  SchedulerOptions Mapped =
      backendOpts(SchedulerBackend::Portfolio, Objective::MinReg);
  Mapped.Formulation.InstanceMapped = true;
  for (const SchedulerOptions &Opts : {MinSl, Mapped}) {
    ASSERT_EQ(pickedEngine(Opts.Formulation), SchedulerBackend::Ilp);
    ::testing::internal::CaptureStderr();
    ScheduleResult R = OptimalModuloScheduler(M, Opts).schedule(G);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    ASSERT_TRUE(R.Found);
    EXPECT_GT(R.Nodes + R.SimplexIterations, 0);
    EXPECT_EQ(R.PbConflicts, 0);
    EXPECT_EQ(R.PbPropagations, 0);
    expectWinners(R, SchedulerBackend::Ilp, "paper-example1");
  }
}

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

TEST(PortfolioBackend, KernelMinLifeAgreesWithBothEngines) {
  MachineModel M = MachineModel::example3();
  for (const DependenceGraph &G :
       {paperExample1(M), livermore5(M), dotProduct(M), daxpy(M)})
    expectPortfolioAgrees(M, G, Objective::MinLife);
}

TEST(PortfolioBackend, PaperExample1MinRegIs7) {
  // Figure 1e's headline register number: the portfolio decides MinReg
  // with the PB descent and commits exactly 7 at II=2.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  ScheduleResult R =
      OptimalModuloScheduler(M, backendOpts(SchedulerBackend::Portfolio,
                                            Objective::MinReg))
          .schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.II, 2);
  EXPECT_NEAR(R.SecondaryObjective, 7.0, 1e-6);
  expectWinners(R, SchedulerBackend::Pb, "paper-example1");
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
  expectPortfolioAgrees(M, G, Objective::MinBuff);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioSyntheticTest,
                         ::testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===//
// Seam behavior
//===----------------------------------------------------------------------===//

TEST(PortfolioBackend, BackendNameRoundTrips) {
  EXPECT_STREQ(toString(SchedulerBackend::Portfolio), "portfolio");
  EXPECT_EQ(parseSchedulerBackend("portfolio"), SchedulerBackend::Portfolio);
}
