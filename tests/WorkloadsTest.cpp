//===- tests/WorkloadsTest.cpp - kernel library + generator tests ---------===//

#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include "graph/GraphAlgorithms.h"
#include "sched/Mii.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

using namespace modsched;

TEST(KernelLibrary, AllKernelsValidate) {
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Kernels = allKernels(M);
  EXPECT_GE(Kernels.size(), 10u);
  for (const DependenceGraph &G : Kernels) {
    EXPECT_FALSE(G.validate().has_value()) << G.name();
    EXPECT_FALSE(hasZeroDistanceCycle(G)) << G.name();
    EXPECT_FALSE(G.name().empty());
  }
}

TEST(KernelLibrary, RecMiiOfRecurrentKernels) {
  MachineModel M = MachineModel::example3();
  // livermore5 cycle: sub(1) -> mul(4) -> sub, distance 1 => RecMII 5.
  EXPECT_EQ(recMii(livermore5(M)), 5);
  // livermore11/dotProduct: latency-1 accumulator self-loop => RecMII 1.
  EXPECT_EQ(recMii(livermore11(M)), 1);
  EXPECT_EQ(recMii(dotProduct(M)), 1);
  // x[i] = a*x[i-1]+...: mul(4)+add(1)+add(1) over distance 1 => 6.
  EXPECT_EQ(recMii(secondOrderRecurrence(M)), 6);
  EXPECT_EQ(recMii(livermore1(M)), 1); // No recurrence.
}

TEST(KernelLibrary, PaperExample1HasFourRegisters) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = paperExample1(M);
  EXPECT_EQ(G.numOperations(), 5);
  EXPECT_EQ(G.numRegisters(), 4); // vr0..vr3 in Figure 1.
}

TEST(Synthetic, DeterministicForSeed) {
  MachineModel M = MachineModel::cydraLike();
  Rng A(42), B(42);
  DependenceGraph G1 = generateLoop(M, A);
  DependenceGraph G2 = generateLoop(M, B);
  EXPECT_EQ(G1.toString(), G2.toString());
}

TEST(Synthetic, AlwaysValidAndSchedulable) {
  MachineModel M = MachineModel::cydraLike();
  Rng R(7);
  for (int I = 0; I < 200; ++I) {
    DependenceGraph G = generateLoop(M, R);
    ASSERT_FALSE(G.validate().has_value());
    ASSERT_FALSE(hasZeroDistanceCycle(G));
    EXPECT_GE(mii(G, M), 1);
  }
}

TEST(Synthetic, RespectsSizeBounds) {
  MachineModel M = MachineModel::example3();
  Rng R(11);
  SyntheticOptions Opts;
  Opts.MinOps = 5;
  Opts.MaxOps = 9;
  for (int I = 0; I < 50; ++I) {
    DependenceGraph G = generateLoop(M, R, Opts);
    EXPECT_GE(G.numOperations(), 5);
    EXPECT_LE(G.numOperations(), 9);
  }
}

TEST(Synthetic, SuiteShapeMatchesCalibration) {
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite =
      generateSuite(M, 300, /*Seed=*/2024, /*IncludeKernels=*/false);
  ASSERT_EQ(Suite.size(), 300u);
  SummaryStats Sizes;
  for (const DependenceGraph &G : Suite)
    Sizes.add(G.numOperations());
  // Paper Table 1: median ~9, average above median, long tail.
  EXPECT_GE(Sizes.median(), 4.0);
  EXPECT_LE(Sizes.median(), 14.0);
  EXPECT_GT(Sizes.average(), Sizes.median() * 0.9);
  EXPECT_GE(Sizes.max(), 25.0);
}

TEST(Synthetic, SuiteIncludesKernelsWhenAsked) {
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite =
      generateSuite(M, 5, 1, /*IncludeKernels=*/true);
  EXPECT_GT(Suite.size(), 5u);
  EXPECT_EQ(Suite.front().name(), "paper-example1");
}

TEST(Synthetic, DistinctSeedsDiffer) {
  MachineModel M = MachineModel::example3();
  Rng A(1), B(2);
  DependenceGraph G1 = generateLoop(M, A);
  DependenceGraph G2 = generateLoop(M, B);
  EXPECT_NE(G1.toString(), G2.toString());
}

namespace {

/// FNV-1a over the textual form of every loop in \p Suite.
uint64_t suiteFingerprint(const std::vector<DependenceGraph> &Suite) {
  uint64_t H = 1469598103934665603ull;
  for (const DependenceGraph &G : Suite)
    for (char C : G.toString()) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ull;
    }
  return H;
}

} // namespace

TEST(Synthetic, SuiteDrawPinnedAtLargeCap40) {
  // The size bands (3-10, 10-22, 22-LargeCap) must keep drawing exactly
  // these loops: benchmarks and recorded baselines depend on the suite.
  // Loop 18 comes from the large band at the cap.
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite =
      generateSuite(M, 24, /*Seed=*/2024, /*IncludeKernels=*/false,
                    /*LargeCap=*/40);
  const int Ops[] = {8,  10, 11, 20, 7,  19, 5, 21, 10, 6,  22, 4,
                     3,  12, 17, 18, 7,  4,  40, 22, 6, 18, 5,  20};
  ASSERT_EQ(Suite.size(), std::size(Ops));
  for (size_t I = 0; I < Suite.size(); ++I)
    EXPECT_EQ(Suite[I].numOperations(), Ops[I]) << "loop " << I;
  EXPECT_EQ(suiteFingerprint(Suite), 0xdc22df5948b00e68ull);
}

TEST(Synthetic, SuiteHonorsSmallLargeCap) {
  // A cap below the medium band's upper end clamps every band to it
  // instead of handing the generator an inverted range.
  MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Suite =
      generateSuite(M, 200, /*Seed=*/2024, /*IncludeKernels=*/false,
                    /*LargeCap=*/16);
  ASSERT_EQ(Suite.size(), 200u);
  int AtCap = 0;
  for (const DependenceGraph &G : Suite) {
    EXPECT_GE(G.numOperations(), 3) << G.name();
    EXPECT_LE(G.numOperations(), 16) << G.name();
    EXPECT_FALSE(G.validate().has_value()) << G.name();
    AtCap += G.numOperations() == 16;
  }
  // The large band (~10% of draws) lands on the cap.
  EXPECT_GE(AtCap, 10);
}
