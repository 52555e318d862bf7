//===- tests/OracleDifferentialTest.cpp - engines vs exhaustive search -----===//
//
// Checks the scheduler's optimality claims against an oracle that shares
// nothing with the ILP or PB formulations: bench/e2e/BruteForce's
// exhaustive enumerator, compiled into this binary from its own source.
// On seeded 3-6-operation loops on two machines, for four objectives and
// both dependence styles, every solve must be decided within its node
// budget and its (II, objective) must be exactly the least feasible II
// and the least objective at that II.
//
// The suite runs under every scheduler variant (--backend=pb|portfolio,
// --cache; tests/CMakeLists.txt), so each engine's claims are checked.
//
//===----------------------------------------------------------------------===//

#include "TestVariant.h"

#include "e2e/BruteForce.h"
#include "support/Rng.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <string>

using namespace modsched;

namespace {

/// Loops per machine; each runs 4 objectives x 2 dependence styles.
constexpr int LoopsPerMachine = 24;

void checkAgainstOracle(const MachineModel &M, uint64_t Seed) {
  Rng R(Seed);
  SyntheticOptions Gen;
  Gen.MinOps = 3;
  Gen.MaxOps = 6;
  int Checked = 0;
  for (int Loop = 0; Loop < LoopsPerMachine; ++Loop) {
    DependenceGraph G = generateLoop(M, R, Gen);
    for (DependenceStyle Style :
         {DependenceStyle::Structured, DependenceStyle::Traditional})
      for (Objective Obj : {Objective::None, Objective::MinReg,
                            Objective::MinBuff, Objective::MinLife}) {
        SchedulerOptions Opts = test::variantOptions();
        Opts.Formulation.Obj = Obj;
        Opts.Formulation.DepStyle = Style;
        Opts.NodeLimit = 200000;
        Opts.TimeLimitSeconds = 3600.0; // Safety net; the budget decides.
        ScheduleResult S = OptimalModuloScheduler(M, Opts).schedule(G);
        const std::string What = M.name() + " loop " + std::to_string(Loop) +
                                 " " + toString(Obj) + "/" + toString(Style) +
                                 "\n" + G.toString();
        ASSERT_FALSE(S.TimedOut) << What;
        ASSERT_FALSE(S.NodeLimitHit) << What;
        ASSERT_TRUE(S.Found) << What;
        e2e::BruteVerdict B =
            e2e::bruteForceCheck(G, M, Obj, S.II, S.SecondaryObjective,
                                 Opts.Formulation.ScheduleLengthSlack);
        EXPECT_TRUE(B.Conclusive) << What << B.Detail;
        EXPECT_TRUE(B.Match) << "II " << S.II << ", objective "
                             << S.SecondaryObjective << ": " << B.Detail
                             << "\n" << What;
        ++Checked;
      }
  }
  EXPECT_EQ(Checked, LoopsPerMachine * 8);
}

} // namespace

TEST(OracleDifferential, CydraLikeLoopsAreOptimal) {
  checkAgainstOracle(MachineModel::cydraLike(), 20261020);
}

TEST(OracleDifferential, Example3LoopsAreOptimal) {
  checkAgainstOracle(MachineModel::example3(), 20261021);
}
