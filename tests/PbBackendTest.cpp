//===- tests/PbBackendTest.cpp - PB-vs-ILP backend differential ------------===//
//
// The CDCL pseudo-Boolean backend and the branch-and-bound ILP backend
// encode the same feasible set per II (both read their windows and
// budgets from one sched/AttemptFrame, and PbFormulation mirrors
// Formulation's rows), so on every loop they must
// agree on the feasible-II verdict, the achieved II, and the optimal
// secondary objective value. These tests enforce that differential over
// the full kernel library and a synthetic suite, and exercise the
// backend seam itself (env default, fallback, budgets).
//
//===----------------------------------------------------------------------===//

#include "ilpsched/OptimalScheduler.h"
#include "ilpsched/PbFormulation.h"
#include "sched/PipelineSimulator.h"
#include "sched/RegisterPressure.h"
#include "sched/Verifier.h"
#include "support/Rng.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

using namespace modsched;

namespace {

/// Deterministic effort budget of every solve in this file (B&B nodes
/// plus CDCL conflicts over the whole II search); the wall clock is only
/// a far-away safety net. Every differential case below is decided
/// within it: the largest spends 2 930 conflicts (vliw2 paper-example1
/// MinLife on the PB engine).
constexpr int64_t NodeBudget = 200000;
constexpr double SafetyNetSeconds = 3600.0;

SchedulerOptions backendOpts(SchedulerBackend Backend, Objective Obj) {
  SchedulerOptions Opts;
  Opts.Backend = Backend;
  Opts.Formulation.Obj = Obj;
  Opts.NodeLimit = NodeBudget;
  Opts.TimeLimitSeconds = SafetyNetSeconds;
  return Opts;
}

/// No differential case in this file is censored: a run that exhausts
/// its budget is a failure, not a skip.
void expectDecided(const ScheduleResult &R, const std::string &What) {
  EXPECT_FALSE(R.TimedOut) << What << ": the safety net fired";
  EXPECT_FALSE(R.NodeLimitHit) << What << " (budget " << R.budgetNodes()
                               << ")";
}

/// Runs both backends on (M, G, Obj) and checks the differential: both
/// decided, identical Found verdict, identical II, identical objective
/// value, and an independently verified + simulated PB schedule.
void expectBackendsAgree(const MachineModel &M, const DependenceGraph &G,
                         Objective Obj) {
  OptimalModuloScheduler IlpSched(M, backendOpts(SchedulerBackend::Ilp, Obj));
  OptimalModuloScheduler PbSched(M, backendOpts(SchedulerBackend::Pb, Obj));
  ScheduleResult A = IlpSched.schedule(G);
  ScheduleResult B = PbSched.schedule(G);
  const std::string What =
      M.name() + "/" + G.name() + " " + toString(Obj);
  expectDecided(A, What + " ilp");
  expectDecided(B, What + " pb");
  EXPECT_EQ(A.Found, B.Found) << M.name() << "/" << G.name();
  if (!A.Found || !B.Found)
    return;
  EXPECT_EQ(A.II, B.II) << M.name() << "/" << G.name();
  EXPECT_EQ(A.Mii, B.Mii) << M.name() << "/" << G.name();
  EXPECT_NEAR(A.SecondaryObjective, B.SecondaryObjective, 1e-6)
      << M.name() << "/" << G.name();
  EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value())
      << M.name() << "/" << G.name();
  EXPECT_FALSE(simulateSchedule(G, M, B.Schedule,
                                B.Schedule.numStages() + 24)
                   .Violation.has_value())
      << M.name() << "/" << G.name();
  // The PB run must actually have run the PB engine.
  EXPECT_GT(B.PbPropagations, 0) << M.name() << "/" << G.name();
  EXPECT_EQ(B.Nodes, 0) << M.name() << "/" << G.name();
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel-library differential
//===----------------------------------------------------------------------===//

TEST(PbBackend, KernelLibraryNoObjAgreesWithIlp) {
  for (MachineModel M : {MachineModel::example3(), MachineModel::vliw2(),
                         MachineModel::cydraLike()})
    for (const DependenceGraph &G : allKernels(M))
      expectBackendsAgree(M, G, Objective::None);
}

TEST(PbBackend, KernelLibraryMinBuffAgreesWithIlp) {
  MachineModel M = MachineModel::example3();
  for (const DependenceGraph &G : allKernels(M))
    expectBackendsAgree(M, G, Objective::MinBuff);
}

TEST(PbBackend, KernelLibraryMinLifeAgreesWithIlp) {
  // The lifetime objectives are the expensive ones on both backends;
  // keep this differential to small kernels so the test stays budgeted
  // (the fuzz leg covers MinBuff broadly, E11 measures the rest).
  MachineModel M = MachineModel::vliw2();
  for (const DependenceGraph &G :
       {paperExample1(M), livermore5(M), livermore11(M), dotProduct(M)})
    expectBackendsAgree(M, G, Objective::MinLife);
}

TEST(PbBackend, PaperExample1MinRegIs7) {
  // Figure 1e: minimum MaxLive at II=2 is exactly 7 — the PB backend
  // reproduces the paper's headline register number.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  OptimalModuloScheduler Sched(M,
                               backendOpts(SchedulerBackend::Pb,
                                           Objective::MinReg));
  ScheduleResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.II, 2);
  EXPECT_NEAR(R.SecondaryObjective, 7.0, 1e-6);
  EXPECT_EQ(computeRegisterPressure(G, R.Schedule).MaxLive, 7);
  EXPECT_GT(R.PbConflicts + R.PbPropagations, 0);
}

TEST(PbBackend, MinRegAgreesOnKernels) {
  MachineModel M = MachineModel::example3();
  for (const DependenceGraph &G :
       {paperExample1(M), livermore5(M), livermore11(M), dotProduct(M),
        daxpy(M)})
    expectBackendsAgree(M, G, Objective::MinReg);
}

TEST(PbBackend, TraditionalDependenceStyleAgrees) {
  // Ineq. (4) becomes a general PB row (coefficients r and II) — the
  // same slow-by-design ablation the ILP offers; keep it to one small
  // kernel, which both engines decide within the node budget.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  SchedulerOptions IlpOpts = backendOpts(SchedulerBackend::Ilp,
                                         Objective::None);
  SchedulerOptions PbOpts = backendOpts(SchedulerBackend::Pb,
                                        Objective::None);
  IlpOpts.Formulation.DepStyle = DependenceStyle::Traditional;
  PbOpts.Formulation.DepStyle = DependenceStyle::Traditional;
  ScheduleResult A = OptimalModuloScheduler(M, IlpOpts).schedule(G);
  ScheduleResult B = OptimalModuloScheduler(M, PbOpts).schedule(G);
  expectDecided(A, "traditional ilp");
  expectDecided(B, "traditional pb");
  ASSERT_TRUE(A.Found && B.Found);
  EXPECT_EQ(A.II, B.II);
  EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value());
}

TEST(PbBackend, RegisterLimitAgreesWithIlp) {
  // Register-constrained scheduling: a hard per-row cap forces II above
  // MII identically under both backends.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  for (int Limit : {7, 6, 5}) {
    SchedulerOptions IlpOpts = backendOpts(SchedulerBackend::Ilp,
                                           Objective::None);
    SchedulerOptions PbOpts = backendOpts(SchedulerBackend::Pb,
                                          Objective::None);
    IlpOpts.Formulation.RegisterLimit = Limit;
    PbOpts.Formulation.RegisterLimit = Limit;
    ScheduleResult A = OptimalModuloScheduler(M, IlpOpts).schedule(G);
    ScheduleResult B = OptimalModuloScheduler(M, PbOpts).schedule(G);
    const std::string What = "limit=" + std::to_string(Limit);
    expectDecided(A, What + " ilp");
    expectDecided(B, What + " pb");
    ASSERT_EQ(A.Found, B.Found) << "limit=" << Limit;
    if (!A.Found)
      continue;
    EXPECT_EQ(A.II, B.II) << "limit=" << Limit;
    EXPECT_FALSE(verifySchedule(G, M, B.Schedule).has_value());
    EXPECT_LE(computeRegisterPressure(G, B.Schedule).MaxLive, Limit);
  }
}

//===----------------------------------------------------------------------===//
// Synthetic differential (12-seed suite)
//===----------------------------------------------------------------------===//

class PbBackendSyntheticTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PbBackendSyntheticTest, AgreesWithIlp) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(GetParam() * 7919 + 13);
  SyntheticOptions Opts;
  Opts.MinOps = 3;
  Opts.MaxOps = 12;
  DependenceGraph G = generateLoop(M, R, Opts);
  expectBackendsAgree(M, G, Objective::None);
  // Objective-value differential on the same loop.
  expectBackendsAgree(M, G, Objective::MinBuff);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbBackendSyntheticTest,
                         ::testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===//
// Backend seam behavior
//===----------------------------------------------------------------------===//

TEST(PbBackend, SupportsMatrix) {
  FormulationOptions O;
  EXPECT_TRUE(PbFormulation::supports(O));
  O.DepStyle = DependenceStyle::Traditional;
  EXPECT_TRUE(PbFormulation::supports(O));
  O = {};
  O.InstanceMapped = true;
  EXPECT_FALSE(PbFormulation::supports(O));
  O = {};
  O.Obj = Objective::MinSL;
  EXPECT_FALSE(PbFormulation::supports(O));
  O = {};
  O.Obj = Objective::MinBuff;
  O.ObjStyle = ObjectiveStyle::Traditional;
  EXPECT_FALSE(PbFormulation::supports(O));
  O.ObjStyle = ObjectiveStyle::Structured;
  EXPECT_TRUE(PbFormulation::supports(O));
}

TEST(PbBackend, UnsupportedFormulationFallsBackToIlp) {
  // MinSL is not PB-encodable; the scheduler must warn (once) and decide
  // the loop with the ILP rather than fail.
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  SchedulerOptions Opts = backendOpts(SchedulerBackend::Pb,
                                      Objective::MinSL);
  ScheduleResult R = OptimalModuloScheduler(M, Opts).schedule(G);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.SimplexIterations, 0); // The ILP ran...
  EXPECT_EQ(R.PbConflicts, 0);       // ...and the PB engine never did.
  EXPECT_EQ(R.PbPropagations, 0);
  EXPECT_FALSE(verifySchedule(G, M, R.Schedule).has_value());
}

TEST(PbBackend, ConflictBudgetCensorsSearch) {
  // The shared node budget counts CDCL conflicts under the PB backend;
  // an absurdly small budget must censor (or finish within it) and be
  // attributed to NodeLimitHit, never TimedOut.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = complexMultiply(M);
  SchedulerOptions Opts = backendOpts(SchedulerBackend::Pb,
                                      Objective::MinReg);
  Opts.NodeLimit = 1;
  ScheduleResult R = OptimalModuloScheduler(M, Opts).schedule(G);
  EXPECT_TRUE(R.Found || R.NodeLimitHit);
  if (!R.Found) {
    EXPECT_FALSE(R.TimedOut);
    EXPECT_LE(R.budgetNodes(), 2); // Stopped essentially immediately.
  }
}

TEST(PbBackend, AttemptTelemetryTellsTheStory) {
  // secondOrderRecurrence has MII below its feasible II on cydraLike, so
  // the attempts vector must show infeasible verdicts below the achieved
  // II and PB effort fields populated on decided attempts.
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = secondOrderRecurrence(M);
  SchedulerOptions Opts = backendOpts(SchedulerBackend::Pb,
                                      Objective::None);
  ScheduleResult R = OptimalModuloScheduler(M, Opts).schedule(G);
  ASSERT_TRUE(R.Found);
  ASSERT_FALSE(R.Attempts.empty());
  const IiAttempt &Last = R.Attempts.back();
  EXPECT_EQ(Last.II, R.II);
  EXPECT_TRUE(Last.Scheduled);
  EXPECT_GT(Last.Variables, 0);
  EXPECT_GT(Last.Constraints, 0);
  EXPECT_EQ(Last.Nodes, 0);
  EXPECT_GT(Last.PbPropagations, 0);
  for (const IiAttempt &A : R.Attempts) {
    EXPECT_GE(A.II, R.Mii);
    EXPECT_LE(A.II, R.II);
    if (A.II < R.II) {
      EXPECT_FALSE(A.Scheduled);
    }
  }
}

TEST(PbBackend, BackendNamesRoundTrip) {
  EXPECT_STREQ(toString(SchedulerBackend::Ilp), "ilp");
  EXPECT_STREQ(toString(SchedulerBackend::Pb), "pb");
}

TEST(PbBackend, PinnedEffortOnKernels) {
  // Exact model shape and CDCL effort of the PB backend on a few
  // kernels under every objective. Each attempt builds its PB model
  // into a private solver, so the counts depend only on the encoding
  // (variable and row order) and the solver's search; a change to
  // either moves them. The conflict budget keeps censored entries
  // deterministic too (the model shape is only reported for a solved
  // loop, so censored entries pin it as 0).
  struct Pin {
    DependenceGraph (*Kernel)(const MachineModel &);
    Objective Obj;
    int Variables, Constraints;
    int64_t Conflicts, Propagations;
  };
  const Pin Pins[] = {
      {livermore1, Objective::None, 84, 117, 8, 297},
      {livermore1, Objective::MinReg, 201, 295, 3668, 87387},
      {livermore1, Objective::MinBuff, 117, 190, 128, 2107},
      {livermore1, Objective::MinLife, 0, 0, 20002, 497399},
      {livermore5, Objective::None, 50, 83, 8, 164},
      {livermore5, Objective::MinReg, 107, 185, 7, 175},
      {livermore5, Objective::MinBuff, 65, 129, 5, 150},
      {livermore5, Objective::MinLife, 98, 170, 3717, 56518},
      {stencil3, Objective::None, 66, 89, 2, 100},
      {stencil3, Objective::MinReg, 171, 227, 3802, 84524},
      {stencil3, Objective::MinBuff, 106, 147, 237, 3506},
      {stencil3, Objective::MinLife, 0, 0, 20000, 465033},
      {secondOrderRecurrence, Objective::None, 62, 107, 6, 114},
      {secondOrderRecurrence, Objective::MinReg, 131, 249, 1703, 25435},
      {secondOrderRecurrence, Objective::MinBuff, 76, 177, 7, 130},
      {secondOrderRecurrence, Objective::MinLife, 122, 231, 9015, 128112},
      {backSubstitution, Objective::None, 60, 90, 6, 145},
      {backSubstitution, Objective::MinReg, 148, 224, 3446, 57088},
      {backSubstitution, Objective::MinBuff, 82, 143, 9, 207},
      {backSubstitution, Objective::MinLife, 0, 0, 20001, 338966},
  };
  MachineModel M = MachineModel::cydraLike();
  for (const Pin &P : Pins) {
    const DependenceGraph G = P.Kernel(M);
    SchedulerOptions Opts = backendOpts(SchedulerBackend::Pb, P.Obj);
    Opts.NodeLimit = 20000;
    Opts.TimeLimitSeconds = 60.0;
    Opts.Explain = false;
    Opts.Cache = false;
    ScheduleResult R = OptimalModuloScheduler(M, Opts).schedule(G);
    const std::string What = G.name() + " " + toString(P.Obj);
    ASSERT_FALSE(R.TimedOut) << What;
    EXPECT_EQ(R.Found, !R.NodeLimitHit) << What;
    EXPECT_EQ(R.Variables, P.Variables) << What;
    EXPECT_EQ(R.Constraints, P.Constraints) << What;
    EXPECT_EQ(R.PbConflicts, P.Conflicts) << What;
    EXPECT_EQ(R.PbPropagations, P.Propagations) << What;
  }
}
