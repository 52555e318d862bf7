//===- tests/ProblemHashTest.cpp - Canonical Problem hashing ---------------===//
//
// Property tests for the content-addressed Problem core (sched/Problem.h)
// and the SolutionCache built on it (ilpsched/SolutionCache.h):
//
//   * Relabeling invariance — rebuilding a random loop under a random
//     node permutation (with shuffled edge/register insertion order) and
//     renaming every machine unit and opclass must not change
//     canonicalHash() or canonicalForm().
//   * Near-miss discrimination — perturbing a single edge latency, a
//     single dependence distance, or a single resource count must
//     change the hash (the perturbed problem is genuinely different).
//   * Cache differential — a schedule served from the cache under a
//     relabeled Problem must be verifier-clean and II/objective-
//     identical to a fresh solve, for every backend.
//
//===----------------------------------------------------------------------===//

#include "TestVariant.h"

#include "graph/GraphAlgorithms.h"
#include "graph/Unroll.h"
#include "ilpsched/OptimalScheduler.h"
#include "ilpsched/SolutionCache.h"
#include "sched/Problem.h"
#include "sched/Verifier.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "workloads/KernelLibrary.h"
#include "workloads/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

using namespace modsched;

namespace {

/// Shuffles [0, N) with \p R (Fisher-Yates; deterministic per seed).
std::vector<int> randomPermutation(int N, Rng &R) {
  std::vector<int> Perm(static_cast<size_t>(N));
  std::iota(Perm.begin(), Perm.end(), 0);
  for (int I = N - 1; I > 0; --I)
    std::swap(Perm[size_t(I)], Perm[R.nextBelow(uint64_t(I) + 1)]);
  return Perm;
}

/// Rebuilds \p G with operation \p Op renumbered to Perm[Op], fresh
/// names, and randomly shuffled edge / register insertion order — an
/// isomorphic relabeling exercising every order-sensitivity the
/// canonical form must cancel. Optionally perturbs one sched edge
/// (\p TweakEdge >= 0) by \p DLat / \p DDist to build near-misses.
DependenceGraph relabelGraph(const DependenceGraph &G,
                             const std::vector<int> &Perm, Rng &R,
                             int TweakEdge = -1, int DLat = 0,
                             int DDist = 0) {
  const int N = G.numOperations();
  DependenceGraph Out;
  Out.setName(G.name() + "-relabeled");
  std::vector<int> Inverse(size_t(N), 0);
  for (int Op = 0; Op < N; ++Op)
    Inverse[size_t(Perm[size_t(Op)])] = Op;
  for (int NewId = 0; NewId < N; ++NewId) {
    int Old = Inverse[size_t(NewId)];
    Out.addOperation("n" + std::to_string(NewId),
                     G.operation(Old).OpClass);
  }

  // Flow dependences add a register use AND its matching sched edge, so
  // first match each register use to the sched edge addFlowDependence
  // created for it; the leftovers are pure scheduling edges.
  const std::vector<SchedEdge> &Edges = G.schedEdges();
  std::vector<bool> FromFlow(Edges.size(), false);
  struct Flow {
    int Def, Use, Latency, Distance;
  };
  std::vector<Flow> Flows;
  for (const VirtualRegister &Reg : G.registers())
    for (const RegisterUse &U : Reg.Uses) {
      int Matched = -1;
      for (size_t E = 0; E != Edges.size(); ++E)
        if (!FromFlow[E] && Edges[E].Src == Reg.Def &&
            Edges[E].Dst == U.Consumer && Edges[E].Distance == U.Distance) {
          Matched = int(E);
          break;
        }
      if (Matched < 0) {
        ADD_FAILURE() << "register use without its flow edge";
        continue;
      }
      FromFlow[size_t(Matched)] = true;
      Flows.push_back({Reg.Def, U.Consumer, Edges[size_t(Matched)].Latency,
                       U.Distance});
    }

  std::vector<int> PureEdges;
  for (size_t E = 0; E != Edges.size(); ++E)
    if (!FromFlow[E])
      PureEdges.push_back(int(E));

  // Random insertion order for everything order-insensitive.
  std::vector<int> FlowOrder = randomPermutation(int(Flows.size()), R);
  std::vector<int> PureOrder = randomPermutation(int(PureEdges.size()), R);

  for (int I : FlowOrder) {
    const Flow &F = Flows[size_t(I)];
    Out.addFlowDependence(Perm[size_t(F.Def)], Perm[size_t(F.Use)],
                          F.Latency, F.Distance);
  }
  for (int I : PureOrder) {
    const SchedEdge &E = Edges[size_t(PureEdges[size_t(I)])];
    int Lat = E.Latency, Dist = E.Distance;
    if (PureEdges[size_t(I)] == TweakEdge) {
      Lat += DLat;
      Dist += DDist;
    }
    Out.addSchedEdge(Perm[size_t(E.Src)], Perm[size_t(E.Dst)], Lat, Dist);
  }
  // Def-only registers (defined and stored, never consumed).
  for (const VirtualRegister &Reg : G.registers())
    if (Reg.Uses.empty())
      Out.ensureRegister(Perm[size_t(Reg.Def)]);

  // Edge tweaks that landed on a flow edge are applied afterwards via a
  // second pure edge; keep the helper honest by requiring pure targets.
  if (TweakEdge >= 0) {
    EXPECT_FALSE(FromFlow[size_t(TweakEdge)])
        << "near-miss tweak must target a pure scheduling edge";
  }
  return Out;
}

/// Structurally identical machine with every resource and opclass
/// renamed (same table order: canonical ids are rank-by-first-usage, so
/// renaming — the paper-world case of "same datapath, different unit
/// labels" — must not move the digest).
MachineModel renameMachine(const MachineModel &M) {
  MachineModel Out;
  Out.setName(M.name() + "-renamed");
  for (int R = 0; R < M.numResources(); ++R)
    Out.addResource("unit" + std::to_string(R), M.resource(R).Count);
  for (int C = 0; C < M.numOpClasses(); ++C) {
    const OpClass &Cls = M.opClass(C);
    Out.addOpClass("op" + std::to_string(C), Cls.Latency, Cls.Usages);
  }
  return Out;
}

/// A machine equal to \p M except resource \p Res has \p Delta more
/// instances.
MachineModel bumpResourceCount(const MachineModel &M, int Res, int Delta) {
  MachineModel Out;
  Out.setName(M.name());
  for (int R = 0; R < M.numResources(); ++R)
    Out.addResource(M.resource(R).Name,
                    M.resource(R).Count + (R == Res ? Delta : 0));
  for (int C = 0; C < M.numOpClasses(); ++C) {
    const OpClass &Cls = M.opClass(C);
    Out.addOpClass(Cls.Name, Cls.Latency, Cls.Usages);
  }
  return Out;
}

/// First pure (non-flow) scheduling edge of \p G, or -1.
int firstPureEdge(const DependenceGraph &G) {
  const std::vector<SchedEdge> &Edges = G.schedEdges();
  std::vector<bool> FromFlow(Edges.size(), false);
  for (const VirtualRegister &Reg : G.registers())
    for (const RegisterUse &U : Reg.Uses)
      for (size_t E = 0; E != Edges.size(); ++E)
        if (!FromFlow[E] && Edges[E].Src == Reg.Def &&
            Edges[E].Dst == U.Consumer && Edges[E].Distance == U.Distance) {
          FromFlow[E] = true;
          break;
        }
  for (size_t E = 0; E != Edges.size(); ++E)
    if (!FromFlow[E])
      return int(E);
  return -1;
}

DependenceGraph makeLoop(uint64_t Seed, const MachineModel &M,
                         int MaxOps = 14) {
  Rng R(Seed * 131 + 7);
  SyntheticOptions Opts;
  Opts.MinOps = 4;
  Opts.MaxOps = MaxOps;
  return generateLoop(M, R, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Relabeling invariance
//===----------------------------------------------------------------------===//

class ProblemHashInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProblemHashInvarianceTest, RelabelingPreservesHash) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = makeLoop(GetParam(), M);
  Rng R(GetParam() * 977 + 3);
  std::vector<int> Perm = randomPermutation(G.numOperations(), R);
  DependenceGraph G2 = relabelGraph(G, Perm, R);
  ASSERT_FALSE(G2.validate().has_value()) << *G2.validate();
  MachineModel M2 = renameMachine(M);

  FormulationOptions FOpts;
  FOpts.Obj = Objective::MinReg;
  Problem A(G, M, FOpts);
  Problem B(G2, M2, FOpts);

  ASSERT_TRUE(A.hashExact()) << "canonical labeling budget tripped";
  ASSERT_TRUE(B.hashExact()) << "canonical labeling budget tripped";
  EXPECT_EQ(A.canonicalHash(), B.canonicalHash());
  EXPECT_EQ(A.canonicalForm(), B.canonicalForm());

  // The canonical index really is a permutation mapping both graphs to
  // one canonical order.
  std::vector<int> SeenA(A.canonicalIndex().size(), 0);
  for (int P : A.canonicalIndex())
    ++SeenA[size_t(P)];
  for (int Count : SeenA)
    EXPECT_EQ(Count, 1);
}

TEST_P(ProblemHashInvarianceTest, OptionsChangeHash) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = makeLoop(GetParam(), M);
  FormulationOptions A, B;
  A.Obj = Objective::MinReg;
  B.Obj = Objective::MinBuff;
  Problem PA(G, M, A), PB(G, M, B);
  EXPECT_NE(PA.canonicalHash(), PB.canonicalHash());
  EXPECT_NE(PA.canonicalForm(), PB.canonicalForm());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProblemHashInvarianceTest,
                         ::testing::Range<uint64_t>(0, 12));

//===----------------------------------------------------------------------===//
// Near-miss discrimination
//===----------------------------------------------------------------------===//

TEST(ProblemHashTest, SingleLatencyPerturbationChangesHash) {
  MachineModel M = MachineModel::cydraLike();
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    DependenceGraph G = makeLoop(Seed, M);
    int Edge = firstPureEdge(G);
    if (Edge < 0)
      continue; // All edges are flow edges in this draw.
    Rng R(Seed);
    std::vector<int> Identity(size_t(G.numOperations()));
    std::iota(Identity.begin(), Identity.end(), 0);
    DependenceGraph G2 = relabelGraph(G, Identity, R, Edge, /*DLat=*/1,
                                      /*DDist=*/0);
    FormulationOptions FOpts;
    Problem A(G, M, FOpts), B(G2, M, FOpts);
    EXPECT_NE(A.canonicalForm(), B.canonicalForm()) << "seed " << Seed;
    EXPECT_NE(A.canonicalHash(), B.canonicalHash()) << "seed " << Seed;
  }
}

TEST(ProblemHashTest, SingleDistancePerturbationChangesHash) {
  MachineModel M = MachineModel::cydraLike();
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    DependenceGraph G = makeLoop(Seed, M);
    int Edge = firstPureEdge(G);
    if (Edge < 0)
      continue;
    Rng R(Seed);
    std::vector<int> Identity(size_t(G.numOperations()));
    std::iota(Identity.begin(), Identity.end(), 0);
    DependenceGraph G2 = relabelGraph(G, Identity, R, Edge, /*DLat=*/0,
                                      /*DDist=*/1);
    FormulationOptions FOpts;
    Problem A(G, M, FOpts), B(G2, M, FOpts);
    EXPECT_NE(A.canonicalForm(), B.canonicalForm()) << "seed " << Seed;
    EXPECT_NE(A.canonicalHash(), B.canonicalHash()) << "seed " << Seed;
  }
}

TEST(ProblemHashTest, SingleResourceCountPerturbationChangesHash) {
  MachineModel M = MachineModel::cydraLike();
  DependenceGraph G = makeLoop(5, M);
  MachineModel M2 = bumpResourceCount(M, 0, 1);
  FormulationOptions FOpts;
  Problem A(G, M, FOpts), B(G, M2, FOpts);
  EXPECT_NE(A.canonicalForm(), B.canonicalForm());
  EXPECT_NE(A.canonicalHash(), B.canonicalHash());
}

//===----------------------------------------------------------------------===//
// Pinned canonical outputs
//===----------------------------------------------------------------------===//

namespace {

template <typename Range> uint64_t foldAll(uint64_t Acc, const Range &Words) {
  Acc = hashCombine(Acc, uint64_t(Words.size()));
  for (auto W : Words)
    Acc = hashCombine(Acc, static_cast<uint64_t>(W));
  return Acc;
}

} // namespace

TEST(ProblemHashTest, PinnedCanonicalOutputs) {
  // Every output of the canonical layer, folded over a seeded corpus
  // into one word. A rewrite of the labeling search may make it cheaper
  // but must not move any of these values: cache entries written by
  // one build are looked up by the next.
  uint64_t Fold = hashMix(0x70696e73u); // "pins"
  int Problems = 0, Graphs = 0;

  // Generator loops of up to 14 ops, each under 4 relabelings.
  for (const MachineModel &M : {MachineModel::cydraLike(),
                                MachineModel::vliw2()}) {
    for (uint64_t Seed = 0; Seed < 24; ++Seed) {
      DependenceGraph G = makeLoop(Seed, M);
      Rng R(Seed * 977 + 5);
      for (int Relabel = 0; Relabel < 4; ++Relabel) {
        DependenceGraph G2 =
            relabelGraph(G, randomPermutation(G.numOperations(), R), R);
        FormulationOptions FOpts;
        FOpts.Obj = static_cast<Objective>(Relabel);
        Problem P(G2, M, FOpts);
        ASSERT_TRUE(P.hashExact()) << M.name() << " seed " << Seed;
        Fold = hashCombine(Fold, P.canonicalHash());
        Fold = hashCombine(Fold, P.hashExact());
        Fold = foldAll(Fold, P.canonicalIndex());
        Fold = foldAll(Fold, P.canonicalForm());
        ++Problems;
      }
    }
  }

  // Random colored multigraphs (self-loops and parallel edges allowed)
  // under the default step budget. The contract pins exact labelings
  // only, so every draw has at least N edges: nine or more isolated
  // twins could come back inexact from an older search, and those are
  // the symmetric-loop tests' business.
  for (uint64_t Seed = 0; Seed < 400; ++Seed) {
    Rng R(Seed * 7919 + 3);
    int N = 1 + int(R.nextBelow(12));
    int NodeColorCount = 1 + int(R.nextBelow(3));
    std::vector<uint64_t> Colors(size_t(N), 0);
    for (uint64_t &C : Colors)
      C = R.nextBelow(uint64_t(NodeColorCount));
    std::vector<CanonicalEdge> Edges(size_t(N) +
                                     R.nextBelow(uint64_t(N + 1)));
    for (CanonicalEdge &E : Edges) {
      E.Src = int(R.nextBelow(uint64_t(N)));
      E.Dst = int(R.nextBelow(uint64_t(N)));
      E.Color = 1 + R.nextBelow(2);
    }
    CanonicalLabeling L = canonicalLabeling(N, Colors, Edges);
    ASSERT_TRUE(L.Exact) << "multigraph seed " << Seed;
    Fold = hashCombine(Fold, L.InvariantHash);
    Fold = hashCombine(Fold, L.Exact);
    Fold = foldAll(Fold, L.CanonicalIndex);
    ++Graphs;
  }

  EXPECT_EQ(Problems, 192);
  EXPECT_EQ(Graphs, 400);
  EXPECT_EQ(Fold, 0x022d63b10fba36a9ull) << std::hex << "fold 0x" << Fold;
}

//===----------------------------------------------------------------------===//
// Symmetric loops
//===----------------------------------------------------------------------===//

namespace {

/// \p Count independent copies of one op of class \p Class.
DependenceGraph identicalOps(const MachineModel &M, int Count,
                             const char *Class = opclasses::Add) {
  DependenceGraph G;
  G.setName("identical-ops");
  for (int I = 0; I < Count; ++I)
    G.addOperation("a" + std::to_string(I), *M.findOpClass(Class));
  return G;
}

/// \p Count independent load -> add -> store chains.
DependenceGraph identicalChains(const MachineModel &M, int Count) {
  DependenceGraph G;
  G.setName("identical-chains");
  for (int I = 0; I < Count; ++I) {
    std::string S = std::to_string(I);
    int Ld = G.addOperation("ld" + S, *M.findOpClass(opclasses::Load));
    int Add = G.addOperation("add" + S, *M.findOpClass(opclasses::Add));
    int St = G.addOperation("st" + S, *M.findOpClass(opclasses::Store));
    G.addFlowDependence(Ld, Add, M.opClass(G.operation(Ld).OpClass).Latency,
                        0);
    G.addFlowDependence(Add, St,
                        M.opClass(G.operation(Add).OpClass).Latency, 0);
  }
  return G;
}

/// Every relabeling of \p G must hash exactly to one value.
void expectRelabelingsHashEqual(const DependenceGraph &G,
                                const MachineModel &M, uint64_t Seed) {
  FormulationOptions FOpts;
  Problem Base(G, M, FOpts);
  ASSERT_TRUE(Base.hashExact()) << G.name();
  Rng R(Seed);
  for (int Relabel = 0; Relabel < 4; ++Relabel) {
    DependenceGraph G2 =
        relabelGraph(G, randomPermutation(G.numOperations(), R), R);
    Problem P(G2, M, FOpts);
    ASSERT_TRUE(P.hashExact()) << G.name() << " relabeling " << Relabel;
    EXPECT_EQ(P.canonicalHash(), Base.canonicalHash()) << G.name();
    EXPECT_EQ(P.canonicalForm(), Base.canonicalForm()) << G.name();
  }
}

} // namespace

TEST(ProblemHashTest, SymmetricLoopsHashExactlyAcrossRelabelings) {
  MachineModel M = MachineModel::cydraLike();
  expectRelabelingsHashEqual(identicalOps(M, 12), M, 1);
  expectRelabelingsHashEqual(identicalChains(M, 6), M, 2);
  expectRelabelingsHashEqual(unrollLoop(daxpy(M), 4), M, 3);
}

//===----------------------------------------------------------------------===//
// SolutionCache differential
//===----------------------------------------------------------------------===//

namespace {

/// Fresh-solves \p G, inserts the result into a private cache, then
/// looks it up under a RELABELED problem and checks the replayed
/// schedule is verifier-clean with identical II and objective.
void cacheDifferential(SchedulerBackend Backend, uint64_t Seed) {
  MachineModel M = MachineModel::vliw2();
  // Small loops: every MinReg solve here is decided (the largest spends
  // 825 PB conflicts), far inside the node budget; the wall clock is
  // only a safety net.
  DependenceGraph G = makeLoop(Seed, M, /*MaxOps=*/8);
  SCOPED_TRACE("seed " + std::to_string(Seed));

  SchedulerOptions Opts;
  Opts.Backend = Backend;
  Opts.Formulation.Obj = Objective::MinReg;
  Opts.NodeLimit = 200000;
  Opts.TimeLimitSeconds = 3600.0;
  Opts.Cache = false; // Fresh solve; the cache is exercised by hand.
  OptimalModuloScheduler Sched(M, Opts);
  ScheduleResult Fresh = Sched.schedule(G);
  ASSERT_TRUE(Fresh.Found);
  ASSERT_FALSE(Fresh.NodeLimitHit);
  ASSERT_FALSE(Fresh.TimedOut);

  Problem Original(G, M, Opts.Formulation);
  const uint64_t Key = SolutionCache::requestKey(Opts);
  SolutionCache Cache(/*MaxEntries=*/8);
  Cache.insert(Original, Key, Fresh);
  ASSERT_EQ(Cache.size(), 1u);

  Rng R(Seed * 31 + 1);
  std::vector<int> Perm = randomPermutation(G.numOperations(), R);
  DependenceGraph G2 = relabelGraph(G, Perm, R);
  MachineModel M2 = renameMachine(M);
  Problem Relabeled(G2, M2, Opts.Formulation);

  std::optional<SolutionCache::Hit> Hit = Cache.lookup(Relabeled, Key);
  ASSERT_TRUE(Hit.has_value()) << "isomorphic problem missed the cache";
  EXPECT_EQ(Hit->II, Fresh.II);
  EXPECT_NEAR(Hit->SecondaryObjective, Fresh.SecondaryObjective, 1e-6);
  // lookup() verifies internally (and would abort); double-check here
  // against the relabeled graph anyway so the test stands alone.
  EXPECT_FALSE(verifySchedule(G2, M2, Hit->Schedule).has_value());

  // Differential: a fresh solve of the relabeled problem agrees with
  // the cache-served verdict.
  OptimalModuloScheduler Sched2(M2, Opts);
  ScheduleResult Fresh2 = Sched2.schedule(G2);
  ASSERT_TRUE(Fresh2.Found);
  ASSERT_FALSE(Fresh2.NodeLimitHit);
  EXPECT_EQ(Fresh2.II, Hit->II);
  // Objectives agree up to solver arithmetic noise; verdict equality is
  // what the cache promises, not bit-identical floating point.
  EXPECT_NEAR(Fresh2.SecondaryObjective, Hit->SecondaryObjective, 1e-6);

  // Wrong request key must miss.
  EXPECT_FALSE(Cache.lookup(Relabeled, Key + 1).has_value());
}

} // namespace

TEST(SolutionCacheTest, DifferentialIlp) {
  for (uint64_t Seed : {2u, 3u, 7u})
    cacheDifferential(SchedulerBackend::Ilp, Seed);
}

TEST(SolutionCacheTest, DifferentialPb) {
  for (uint64_t Seed : {2u, 3u, 7u})
    cacheDifferential(SchedulerBackend::Pb, Seed);
}

TEST(SolutionCacheTest, DifferentialPortfolio) {
  for (uint64_t Seed : {2u, 3u, 7u})
    cacheDifferential(SchedulerBackend::Portfolio, Seed);
}

TEST(SolutionCacheTest, EndToEndSecondRunHits) {
  // A repeated sweep in one process: every loop the first run solves
  // cleanly must be replayed from the cache on the second, for an
  // objective-free and a secondary-objective sweep. Censoring is by
  // node budget only (the wall clock is a safety net), and no loop is
  // censored: the largest MinBuff solve takes 134 nodes.
  MachineModel M = MachineModel::vliw2();
  std::vector<DependenceGraph> Loops;
  for (uint64_t Seed : {11u, 12u, 13u, 14u, 15u, 16u})
    Loops.push_back(makeLoop(Seed, M));
  telemetry::Counter *Hits = telemetry::findCounter("ilpsched/cache.hits");
  ASSERT_NE(Hits, nullptr);
  SolutionCache::global().clear();

  for (Objective Obj : {Objective::None, Objective::MinBuff}) {
    SCOPED_TRACE(toString(Obj));
    SchedulerOptions Opts;
    Opts.Formulation.Obj = Obj;
    Opts.Cache = true;
    Opts.NodeLimit = 5000;
    Opts.TimeLimitSeconds = 3600.0;
    OptimalModuloScheduler Sched(M, Opts);

    std::vector<ScheduleResult> First;
    for (const DependenceGraph &G : Loops) {
      First.push_back(Sched.schedule(G));
      EXPECT_FALSE(First.back().CacheHit);
    }
    const int64_t Hits0 = Hits->value();
    for (size_t I = 0; I < Loops.size(); ++I) {
      SCOPED_TRACE("loop " + std::to_string(I));
      ScheduleResult Second = Sched.schedule(Loops[I]);
      const ScheduleResult &A = First[I];
      ASSERT_TRUE(A.Found);
      ASSERT_FALSE(A.NodeLimitHit);
      ASSERT_FALSE(A.TimedOut);
      ASSERT_TRUE(Second.Found);
      EXPECT_TRUE(Second.CacheHit);
      EXPECT_EQ(Second.II, A.II);
      EXPECT_EQ(Second.SecondaryObjective, A.SecondaryObjective);
      EXPECT_TRUE(Second.Attempts.empty())
          << "cache hits must not synthesize solver attempts";
      EXPECT_EQ(Second.Nodes, 0);
      EXPECT_EQ(Second.SimplexIterations, 0);
      EXPECT_EQ(Second.PbConflicts, 0);
      EXPECT_EQ(Second.PbPropagations, 0);
      EXPECT_FALSE(verifySchedule(Loops[I], M, Second.Schedule).has_value());
    }
    EXPECT_EQ(Hits->value() - Hits0, std::int64_t(Loops.size()));
  }
  SolutionCache::global().clear();
}

TEST(SolutionCacheTest, CensoredResultsAreNotInserted) {
  MachineModel M = MachineModel::vliw2();
  DependenceGraph G = makeLoop(4, M);
  SolutionCache Cache;
  SchedulerOptions Opts;
  Problem P(G, M, Opts.Formulation);
  ScheduleResult R;
  R.Found = true;
  R.TimedOut = true; // Censored: must be refused.
  R.II = 3;
  R.Schedule = ModuloSchedule(3, std::vector<int>(
                                     size_t(G.numOperations()), 0));
  Cache.insert(P, SolutionCache::requestKey(Opts), R);
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(SolutionCacheTest, LruEvictsAtCapacity) {
  MachineModel M = MachineModel::vliw2();
  SchedulerOptions Opts = test::variantOptions();
  SolutionCache Cache(/*MaxEntries=*/2);
  const uint64_t Key = SolutionCache::requestKey(Opts);

  // Three distinct loops through a 2-entry cache: the first inserted
  // must be gone, the last two present.
  std::vector<DependenceGraph> Loops;
  for (uint64_t Seed : {21u, 22u, 23u})
    Loops.push_back(makeLoop(Seed, M));
  OptimalModuloScheduler Sched(M, Opts);
  for (const DependenceGraph &G : Loops) {
    ScheduleResult R = Sched.schedule(G);
    ASSERT_TRUE(R.Found);
    Problem P(G, M, Opts.Formulation);
    Cache.insert(P, Key, R);
  }
  EXPECT_EQ(Cache.size(), 2u);
  Problem P0(Loops[0], M, Opts.Formulation);
  Problem P2(Loops[2], M, Opts.Formulation);
  EXPECT_FALSE(Cache.lookup(P0, Key).has_value());
  EXPECT_TRUE(Cache.lookup(P2, Key).has_value());
}
