//===- tests/SolutionCacheTest.cpp - Concurrent cache hammer ---------------===//
//
// Thread-safety and accounting tests for ilpsched/SolutionCache beyond
// the single-threaded differential coverage in ProblemHashTest:
//
//   * Hammer — N threads issue overlapping lookups and inserts for
//     canonical-EQUAL problems (the same loop under different node
//     numberings). Every hit must replay verifier-clean with the
//     fresh-solve II / secondary objective, the cache must converge to
//     exactly ONE entry (no duplicate inserts for one canonical form),
//     and the telemetry counters must conserve: hits + misses equals
//     the number of lookups issued, inserts equals the number of clean
//     insert calls, and nothing is evicted below capacity.
//   * Insert hygiene — censored / unfound / cache-served results are
//     refused without touching the entry count.
//   * MII — a miss computes mii() before the II search; a hit reports
//     the entry's MII, which equals mii() of the requesting graph.
//   * Replay — a fixed service script's replies are pinned.
//
//===----------------------------------------------------------------------===//

#include "ilpsched/OptimalScheduler.h"
#include "ilpsched/SolutionCache.h"
#include "sched/Mii.h"
#include "sched/Problem.h"
#include "service/Server.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "textio/DdgFormat.h"
#include "textio/MachineFormat.h"
#include "workloads/KernelLibrary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace modsched;

namespace {

/// One fixed loop shape: a five-op flow chain with a distance-1
/// recurrence, rebuilt with operation I renumbered to Perm[I] and the
/// edge insertion order rotated by \p Rot. All variants are schedule-
/// isomorphic, so they must share one canonical form and one cache
/// entry.
DependenceGraph makeLoopVariant(const MachineModel &M,
                                const std::vector<int> &Perm, int Rot) {
  const int Classes[5] = {*M.findOpClass(opclasses::Load),
                          *M.findOpClass(opclasses::Mul),
                          *M.findOpClass(opclasses::Add),
                          *M.findOpClass(opclasses::Sub),
                          *M.findOpClass(opclasses::Store)};
  struct FlowEdge {
    int Def, Use, Latency, Distance;
  };
  const FlowEdge Edges[5] = {
      {0, 1, 1, 0}, {1, 2, 4, 0}, {2, 3, 1, 0}, {3, 4, 1, 0}, {3, 1, 1, 1}};

  const int N = 5;
  DependenceGraph G;
  G.setName("hammer-variant");
  std::vector<int> Inverse(static_cast<size_t>(N), 0);
  for (int Op = 0; Op < N; ++Op)
    Inverse[static_cast<size_t>(Perm[static_cast<size_t>(Op)])] = Op;
  for (int NewId = 0; NewId < N; ++NewId)
    G.addOperation("v" + std::to_string(NewId),
                   Classes[static_cast<size_t>(Inverse[size_t(NewId)])]);
  for (int I = 0; I < 5; ++I) {
    const FlowEdge &E = Edges[static_cast<size_t>((I + Rot) % 5)];
    G.addFlowDependence(Perm[static_cast<size_t>(E.Def)],
                        Perm[static_cast<size_t>(E.Use)], E.Latency,
                        E.Distance);
  }
  return G;
}

int64_t counterValue(const char *Name) {
  telemetry::Counter *C = telemetry::findCounter(Name);
  EXPECT_NE(C, nullptr) << Name;
  return C ? C->value() : 0;
}

TEST(SolutionCacheConcurrency, HammerConservesCountersAndEntries) {
  MachineModel M = MachineModel::example3();

  // All node numberings of the same loop (a handful is enough; these
  // are full permutations of [0,5), rotated edge order included).
  const std::vector<std::vector<int>> Perms = {
      {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {1, 0, 3, 2, 4},
      {2, 4, 0, 1, 3}, {3, 0, 4, 2, 1}, {1, 2, 3, 4, 0}};
  std::vector<DependenceGraph> Graphs;
  for (size_t V = 0; V != Perms.size(); ++V)
    Graphs.push_back(makeLoopVariant(M, Perms[V], static_cast<int>(V)));

  SchedulerOptions SOpts;
  SOpts.Cache = false; // Fresh reference solves, no global-cache help.
  SOpts.TimeLimitSeconds = 20.0;
  OptimalModuloScheduler Sched(M, SOpts);

  const FormulationOptions FOpts = SOpts.Formulation;
  std::vector<std::unique_ptr<Problem>> Problems;
  std::vector<ScheduleResult> Fresh;
  for (const DependenceGraph &G : Graphs) {
    Fresh.push_back(Sched.schedule(G));
    ASSERT_TRUE(Fresh.back().Found) << "reference solve failed";
    Problems.push_back(std::make_unique<Problem>(G, M, FOpts));
  }

  // The variants really are canonical-equal (and exactly labeled, or
  // the cache would sit them out and the test would measure nothing).
  for (size_t V = 0; V != Problems.size(); ++V) {
    ASSERT_TRUE(Problems[V]->hashExact());
    ASSERT_EQ(Problems[V]->canonicalHash(), Problems[0]->canonicalHash());
    ASSERT_EQ(Fresh[V].II, Fresh[0].II);
    ASSERT_EQ(Fresh[V].SecondaryObjective, Fresh[0].SecondaryObjective);
  }

  SolutionCache Cache(64);
  const uint64_t Key = SolutionCache::requestKey(SOpts);

  const int Threads = 8;
  const int Iters = 400;
  std::atomic<int64_t> Lookups{0}, InsertCalls{0}, Hits{0};
  std::atomic<int> Mismatches{0};

  const int64_t Hits0 = counterValue("ilpsched/cache.hits");
  const int64_t Misses0 = counterValue("ilpsched/cache.misses");
  const int64_t Inserts0 = counterValue("ilpsched/cache.inserts");
  const int64_t Evict0 = counterValue("ilpsched/cache.evictions");

  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      telemetry::ThreadShardScope Shard; // Non-main recording thread.
      Rng R(0x9e3779b9u + static_cast<uint64_t>(T));
      for (int I = 0; I < Iters; ++I) {
        size_t V = static_cast<size_t>(
            R.nextBelow(static_cast<uint64_t>(Problems.size())));
        if (R.nextBool(0.5)) {
          ++Lookups;
          if (std::optional<SolutionCache::Hit> H =
                  Cache.lookup(*Problems[V], Key)) {
            ++Hits;
            if (H->II != Fresh[V].II ||
                H->SecondaryObjective != Fresh[V].SecondaryObjective)
              ++Mismatches;
          }
        } else {
          ++InsertCalls;
          Cache.insert(*Problems[V], Key, Fresh[V]);
        }
      }
    });
  for (std::thread &T : Pool)
    T.join(); // Thread exit merges each shard into the counters.

  // One canonical form => exactly one entry, however many concurrent
  // inserts raced to create it.
  EXPECT_EQ(Cache.size(), 1u);

  // Accounting conservation: every lookup is a hit or a miss, every
  // clean insert call counted, nothing evicted below capacity.
  EXPECT_EQ(counterValue("ilpsched/cache.hits") - Hits0 +
                (counterValue("ilpsched/cache.misses") - Misses0),
            Lookups.load());
  EXPECT_EQ(counterValue("ilpsched/cache.inserts") - Inserts0,
            InsertCalls.load());
  EXPECT_EQ(counterValue("ilpsched/cache.evictions") - Evict0, 0);

  // Replay fidelity: every hit carried the fresh-solve verdict (the
  // verifier re-check inside lookup() would already have aborted on a
  // corrupt schedule).
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_GT(Hits.load(), 0) << "hammer never hit; mix is broken";
}

TEST(SolutionCacheConcurrency, InsertRefusesUncleanResults) {
  MachineModel M = MachineModel::example3();
  DependenceGraph G = makeLoopVariant(M, {0, 1, 2, 3, 4}, 0);

  SchedulerOptions SOpts;
  SOpts.Cache = false;
  SOpts.TimeLimitSeconds = 20.0;
  OptimalModuloScheduler Sched(M, SOpts);
  ScheduleResult R = Sched.schedule(G);
  ASSERT_TRUE(R.Found);

  Problem P(G, M, SOpts.Formulation);
  ASSERT_TRUE(P.hashExact());
  SolutionCache Cache(8);
  const uint64_t Key = SolutionCache::requestKey(SOpts);

  ScheduleResult Censored = R;
  Censored.TimedOut = true;
  Cache.insert(P, Key, Censored);
  EXPECT_EQ(Cache.size(), 0u) << "censored result entered the cache";

  ScheduleResult NodeCapped = R;
  NodeCapped.NodeLimitHit = true;
  Cache.insert(P, Key, NodeCapped);
  EXPECT_EQ(Cache.size(), 0u);

  ScheduleResult Unfound = R;
  Unfound.Found = false;
  Cache.insert(P, Key, Unfound);
  EXPECT_EQ(Cache.size(), 0u);

  ScheduleResult Served = R;
  Served.CacheHit = true;
  Cache.insert(P, Key, Served);
  EXPECT_EQ(Cache.size(), 0u) << "cache-served result re-inserted";

  Cache.insert(P, Key, R);
  EXPECT_EQ(Cache.size(), 1u);
  std::optional<SolutionCache::Hit> H = Cache.lookup(P, Key);
  ASSERT_TRUE(H.has_value());
  EXPECT_EQ(H->II, R.II);
}

/// Renumbers a loop printed by printDdg: its op lines in reverse order
/// (operation I becomes N-1-I) and its dependence lines in reverse
/// insertion order. The result is schedule-isomorphic to the input.
std::string relabelDdgText(const std::string &Ddg) {
  std::vector<std::string> Head, Ops, Deps;
  std::istringstream In(Ddg);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("op ", 0) == 0)
      Ops.push_back(Line);
    else if (Line.rfind("flow ", 0) == 0 || Line.rfind("edge ", 0) == 0)
      Deps.push_back(Line);
    else
      Head.push_back(Line);
  }
  std::string Out;
  for (const std::string &L : Head)
    Out += L + "\n";
  for (auto It = Ops.rbegin(); It != Ops.rend(); ++It)
    Out += *It + "\n";
  for (auto It = Deps.rbegin(); It != Deps.rend(); ++It)
    Out += *It + "\n";
  return Out;
}

int countLines(const std::string &Text) {
  return int(std::count(Text.begin(), Text.end(), '\n'));
}

/// A service reply with its wall-clock "seconds" field removed.
std::string withoutSeconds(const std::string &Line) {
  const std::string Key = "\"seconds\":";
  std::size_t At = Line.find(Key);
  if (At == std::string::npos)
    return Line;
  std::size_t End = Line.find_first_of(",}", At);
  if (End != std::string::npos && Line[End] == ',')
    ++End;
  return Line.substr(0, At) + Line.substr(End);
}

/// Two adds on cydraLike's one fadd unit with b exactly 4 cycles after
/// a: MII 4 (the recurrence), but a and b then collide on the unit, so
/// the II is 5. A stored MII that were really the II would show here.
DependenceGraph iiAboveMii(const MachineModel &M) {
  DependenceGraph G;
  G.setName("ii-above-mii");
  const int Add = *M.findOpClass(opclasses::Add);
  const int A = G.addOperation("a", Add);
  const int B = G.addOperation("b", Add);
  G.addSchedEdge(A, B, 4, 0);
  G.addSchedEdge(B, A, 4, 2);
  return G;
}

TEST(SolutionCacheMii, MissComputesMiiBeforeTheSearch) {
  // A miss has no stored MII: it computes mii() and starts the II
  // search there.
  SolutionCache::global().clear();
  const MachineModel M = MachineModel::cydraLike();
  SchedulerOptions Opts;
  Opts.Cache = true;
  Opts.TimeLimitSeconds = 20.0;
  OptimalModuloScheduler Sched(M, Opts);
  for (const DependenceGraph &G : allKernels(M)) {
    ScheduleResult R = Sched.schedule(G);
    ASSERT_TRUE(R.Found) << G.name();
    EXPECT_FALSE(R.CacheHit) << G.name();
    EXPECT_EQ(R.Mii, mii(G, M)) << G.name();
    ASSERT_FALSE(R.Attempts.empty()) << G.name();
    EXPECT_EQ(R.Attempts.front().II, R.Mii) << G.name();
  }
  SolutionCache::global().clear();
}

TEST(SolutionCacheMii, HitReportsTheRequestingGraphsMii) {
  // Every kernel x objective, plus a loop whose II exceeds its MII: an
  // entry is stored for the loop, then its relabeling is scheduled. The
  // hit reports the entry's MII, which must be mii() of the relabeled
  // graph. The stored schedule is the NoObj optimum for every
  // objective: only the MII is under test, and the lookup re-verifies
  // the schedule either way.
  SolutionCache::global().clear();
  const MachineModel M = MachineModel::cydraLike();
  std::vector<DependenceGraph> Loops = allKernels(M);
  Loops.push_back(iiAboveMii(M));
  bool SawIiAboveMii = false;
  SchedulerOptions Base;
  Base.Cache = false;
  Base.TimeLimitSeconds = 20.0;
  OptimalModuloScheduler Reference(M, Base);
  const Objective Objectives[] = {Objective::None, Objective::MinReg,
                                  Objective::MinBuff, Objective::MinLife};
  for (const DependenceGraph &G : Loops) {
    const ScheduleResult Stored = Reference.schedule(G);
    ASSERT_TRUE(Stored.Found) << G.name();
    SawIiAboveMii |= Stored.II > Stored.Mii;
    std::optional<DependenceGraph> Relabeled =
        parseDdg(relabelDdgText(printDdg(G, M)), M);
    ASSERT_TRUE(Relabeled.has_value()) << G.name();
    const int Want = mii(*Relabeled, M);
    for (Objective Obj : Objectives) {
      SchedulerOptions Opts = Base;
      Opts.Formulation.Obj = Obj;
      Opts.Cache = true;
      Problem P(G, M, Opts.Formulation);
      ASSERT_TRUE(P.hashExact()) << G.name();
      SolutionCache::global().insert(P, SolutionCache::requestKey(Opts),
                                     Stored);
      ScheduleResult R = OptimalModuloScheduler(M, Opts).schedule(*Relabeled);
      ASSERT_TRUE(R.CacheHit) << G.name() << " " << toString(Obj);
      EXPECT_EQ(R.Mii, Want) << G.name() << " " << toString(Obj);
      EXPECT_TRUE(R.Attempts.empty()) << G.name();
    }
  }
  EXPECT_TRUE(SawIiAboveMii) << "no loop tells the MII from the II";
  SolutionCache::global().clear();
}

TEST(SolutionCacheReplay, PinnedReplayScriptReplies) {
  // A fixed script through one service worker with the cache on: each
  // loop on an inline cydra-like machine, then its relabeling (a hit),
  // then the loop on the built-in machine=cydra (a hit: the inline text
  // prints the same machine). The replies, "seconds" aside, are pinned:
  // they include the MII a hit reports and the solver effort a miss
  // spends, so replaying must not change a byte of either.
  SolutionCache::global().clear();
  const MachineModel M = MachineModel::cydraLike();
  const std::string MachineText = printMachine(M);
  struct Step {
    DependenceGraph G;
    const char *Obj;
  };
  const Step Steps[] = {{dotProduct(M), "noobj"},
                        {secondOrderRecurrence(M), "minbuff"},
                        {fir4(M), "minlife"},
                        {livermore1(M), "minreg"}};
  std::string Script;
  int Id = 0;
  for (const Step &S : Steps) {
    const std::string Ddg = printDdg(S.G, M);
    const std::string Relabeled = relabelDdgText(Ddg);
    for (const std::string *Text : {&Ddg, &Relabeled, &Ddg}) {
      const bool Builtin = Id % 3 == 2; // The third send of each loop.
      Script += "SCHED id=q" + std::to_string(Id++) + " objective=" + S.Obj +
                (Builtin ? " machine=cydra\n"
                         : "\nMACHINE " +
                               std::to_string(countLines(MachineText)) +
                               "\n" + MachineText);
      Script += "DDG " + std::to_string(countLines(*Text)) + "\n" + *Text +
                "END\n";
    }
  }
  // One byte off the inline text: one memory port instead of two. A
  // different machine, so a miss with its own MII.
  std::string OnePort = MachineText;
  OnePort.replace(OnePort.find("memport x2"), 10, "memport x1");
  const std::string Dot = printDdg(dotProduct(M), M);
  Script += "SCHED id=q" + std::to_string(Id) + " objective=noobj\nMACHINE " +
            std::to_string(countLines(OnePort)) + "\n" + OnePort + "DDG " +
            std::to_string(countLines(Dot)) + "\n" + Dot + "END\n";
  service::ServerOptions O;
  O.Workers = 1;
  O.DefaultTimeLimitSeconds = 30.0;
  O.Backend = SchedulerBackend::Ilp;
  O.Cache = true;
  service::Server Srv(O);
  std::istringstream In(Script + "QUIT\n");
  std::ostringstream Out;
  Srv.serveStream(In, Out, "replay");

  std::vector<std::string> Got;
  std::istringstream Split(Out.str());
  std::string Line;
  while (std::getline(Split, Line))
    Got.push_back(withoutSeconds(Line));
  // Recorded before the service interned machines and the cache stored
  // the MII; only "seconds" may differ from those replies. A miss's
  // effort and schedule are a fresh in-process solve's (fir4 MinLife:
  // `msched --kernel=fir4 --objective=minlife` spends the same 818 nodes).
  const std::vector<std::string> Want = {
      "{\"proto\":1,\"id\":\"q0\",\"status\":\"ok\",\"loop\":\"dotproduct\","
      "\"ops\":4,\"objective\":\"NoObj\",\"mii\":3,\"cache_hit\":false,"
      "\"canonical_hash\":\"4df7606f9d0949ab\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":3,\"secondary\":0,\"schedule\":{\"ii\":3,\"times\":[0,0,6,10]}}",
      "{\"proto\":1,\"id\":\"q1\",\"status\":\"ok\",\"loop\":\"dotproduct\","
      "\"ops\":4,\"objective\":\"NoObj\",\"mii\":3,\"cache_hit\":true,"
      "\"canonical_hash\":\"4df7606f9d0949ab\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":3,\"secondary\":0,\"schedule\":{\"ii\":3,\"times\":[10,6,0,0]}}",
      "{\"proto\":1,\"id\":\"q2\",\"status\":\"ok\",\"loop\":\"dotproduct\","
      "\"ops\":4,\"objective\":\"NoObj\",\"mii\":3,\"cache_hit\":true,"
      "\"canonical_hash\":\"4df7606f9d0949ab\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":3,\"secondary\":0,\"schedule\":{\"ii\":3,\"times\":[0,0,6,10]}}",
      "{\"proto\":1,\"id\":\"q3\",\"status\":\"ok\","
      "\"loop\":\"second-order-recurrence\",\"ops\":5,"
      "\"objective\":\"MinBuff\",\"mii\":10,\"cache_hit\":false,"
      "\"canonical_hash\":\"8bb8670881337f09\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":10,\"secondary\":4,\"schedule\":{\"ii\":10,\"times\":[4,0,8,11,"
      "14]}}",
      "{\"proto\":1,\"id\":\"q4\",\"status\":\"ok\","
      "\"loop\":\"second-order-recurrence\",\"ops\":5,"
      "\"objective\":\"MinBuff\",\"mii\":10,\"cache_hit\":true,"
      "\"canonical_hash\":\"8bb8670881337f09\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":10,\"secondary\":4,\"schedule\":{\"ii\":10,\"times\":[14,11,8,"
      "0,4]}}",
      "{\"proto\":1,\"id\":\"q5\",\"status\":\"ok\","
      "\"loop\":\"second-order-recurrence\",\"ops\":5,"
      "\"objective\":\"MinBuff\",\"mii\":10,\"cache_hit\":true,"
      "\"canonical_hash\":\"8bb8670881337f09\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":10,\"secondary\":4,\"schedule\":{\"ii\":10,\"times\":[4,0,8,11,"
      "14]}}",
      "{\"proto\":1,\"id\":\"q6\",\"status\":\"ok\",\"loop\":\"fir4\","
      "\"ops\":12,\"objective\":\"MinLife\",\"mii\":8,\"cache_hit\":false,"
      "\"canonical_hash\":\"f089fc11d9b48c7e\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":818,\"pb_conflicts\":0,"
      "\"ii\":8,\"secondary\":69,\"schedule\":{\"ii\":8,\"times\":[8,6,4,1,"
      "14,12,10,8,18,14,21,24]}}",
      "{\"proto\":1,\"id\":\"q7\",\"status\":\"ok\",\"loop\":\"fir4\","
      "\"ops\":12,\"objective\":\"MinLife\",\"mii\":8,\"cache_hit\":true,"
      "\"canonical_hash\":\"f089fc11d9b48c7e\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":8,\"secondary\":69,\"schedule\":{\"ii\":8,\"times\":[24,21,18,"
      "14,14,12,10,8,8,6,4,1]}}",
      "{\"proto\":1,\"id\":\"q8\",\"status\":\"ok\",\"loop\":\"fir4\","
      "\"ops\":12,\"objective\":\"MinLife\",\"mii\":8,\"cache_hit\":true,"
      "\"canonical_hash\":\"f089fc11d9b48c7e\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":8,\"secondary\":69,\"schedule\":{\"ii\":8,\"times\":[8,6,4,1,"
      "14,12,10,8,18,14,21,24]}}",
      "{\"proto\":1,\"id\":\"q9\",\"status\":\"ok\","
      "\"loop\":\"livermore1-hydro\",\"ops\":9,\"objective\":\"MinReg\","
      "\"mii\":6,\"cache_hit\":false,\"canonical_hash\":\"82dd37edaddf7765\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":68,\"pb_conflicts\":0,"
      "\"ii\":6,\"secondary\":9,\"schedule\":{\"ii\":6,\"times\":[11,6,3,12,"
      "10,17,20,25,28]}}",
      "{\"proto\":1,\"id\":\"q10\",\"status\":\"ok\","
      "\"loop\":\"livermore1-hydro\",\"ops\":9,\"objective\":\"MinReg\","
      "\"mii\":6,\"cache_hit\":true,\"canonical_hash\":\"82dd37edaddf7765\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":6,\"secondary\":9,\"schedule\":{\"ii\":6,\"times\":[28,25,20,"
      "17,12,10,6,3,11]}}",
      "{\"proto\":1,\"id\":\"q11\",\"status\":\"ok\","
      "\"loop\":\"livermore1-hydro\",\"ops\":9,\"objective\":\"MinReg\","
      "\"mii\":6,\"cache_hit\":true,\"canonical_hash\":\"82dd37edaddf7765\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":6,\"secondary\":9,\"schedule\":{\"ii\":6,\"times\":[11,6,3,12,"
      "10,17,20,25,28]}}",
      "{\"proto\":1,\"id\":\"q12\",\"status\":\"ok\",\"loop\":\"dotproduct\","
      "\"ops\":4,\"objective\":\"NoObj\",\"mii\":4,\"cache_hit\":false,"
      "\"canonical_hash\":\"b164af13256f8a89\","
      "\"request_key\":\"ba90f1a47d6ce28a\",\"nodes\":0,\"pb_conflicts\":0,"
      "\"ii\":4,\"secondary\":0,\"schedule\":{\"ii\":4,\"times\":[0,2,8,12]}}",
  };
  EXPECT_EQ(Got, Want);
}

} // namespace
