//===- ilpsched/SolutionCache.cpp - Content-addressed results -------------===//

#include "ilpsched/SolutionCache.h"

#include "sched/Verifier.h"
#include "support/Hash.h"
#include "support/Telemetry.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace modsched;

namespace {

telemetry::Counter StatHits("ilpsched", "cache.hits",
                            "Solution-cache lookups served (full-form "
                            "match, verifier-re-checked)");
telemetry::Counter StatMisses("ilpsched", "cache.misses",
                              "Solution-cache lookups missed (absent, "
                              "collided, or inexact labeling)");
telemetry::Counter StatInserts("ilpsched", "cache.inserts",
                               "Clean results inserted into the "
                               "solution cache");
telemetry::Counter StatEvictions("ilpsched", "cache.evictions",
                                 "LRU entries evicted at capacity");

} // namespace

SolutionCache &SolutionCache::global() {
  static SolutionCache Cache;
  return Cache;
}

uint64_t SolutionCache::requestKey(const SchedulerOptions &Opts) {
  uint64_t H = hashMix(0x72657175u); // "requ"
  H = hashCombine(H, uint64_t(Opts.MaxIiIncrease));
  H = hashCombine(H, uint64_t(Opts.NodeLimit));
  H = hashCombine(H, uint64_t(Opts.Explain ? 1 : 0));
  return H;
}

std::optional<SolutionCache::Hit>
SolutionCache::lookup(const Problem &P, uint64_t RequestKey) {
  if (!P.hashExact()) {
    // A budget-truncated canonical labeling is only relabeling-
    // INVARIANT, not relabeling-COMPLETE; its form cannot prove two
    // graphs isomorphic, so such Problems sit the cache out entirely.
    ++StatMisses;
    return std::nullopt;
  }
  const uint64_t Key = hashCombine(P.canonicalHash(), RequestKey);

  Hit H;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    if (It == Map.end()) {
      ++StatMisses;
      return std::nullopt;
    }
    Entry &E = *It->second;
    if (E.RequestKey != RequestKey || E.Form != P.canonicalForm()) {
      // 64-bit collision: same combined key, different problem. Degrade
      // to a miss — correctness never rests on the hash alone.
      ++StatMisses;
      return std::nullopt;
    }
    Lru.splice(Lru.begin(), Lru, It->second);

    // Replay the canonical-order times through this Problem's own
    // canonical index: request node Op sits at canonical position
    // canonicalIndex()[Op], whichever numbering the caller used.
    const std::vector<int> &CanonIndex = P.canonicalIndex();
    assert(E.CanonTimes.size() == CanonIndex.size() &&
           "full-form match with mismatched node count");
    std::vector<int> Times(CanonIndex.size(), 0);
    for (std::size_t Op = 0; Op != CanonIndex.size(); ++Op)
      Times[Op] = E.CanonTimes[std::size_t(CanonIndex[Op])];
    H.II = E.II;
    H.Mii = E.Mii;
    H.SecondaryObjective = E.SecondaryObjective;
    H.Schedule = ModuloSchedule(E.II, std::move(Times));
  }

  // Mandatory re-verification against the REQUESTING graph and machine
  // (outside the lock — the verifier is pure). Isomorphism guarantees
  // this passes; a failure means the canonical machinery or the cache
  // itself is corrupt, and no schedule may escape that.
  if (std::optional<std::string> Err =
          verifySchedule(P.graph(), P.machine(), H.Schedule)) {
    std::fprintf(stderr,
                 "fatal: solution-cache hit failed re-verification: %s\n",
                 Err->c_str());
    std::abort();
  }
  ++StatHits;
  return H;
}

void SolutionCache::insert(const Problem &P, uint64_t RequestKey,
                           const ScheduleResult &R) {
  // Only clean conclusive solves: a censored result's verdict depends
  // on the budget that censored it, and an infeasible-everywhere loop
  // has no schedule to replay. (Negative results are NOT cached — the
  // II ladder re-proves them, keeping entries self-evidently sound.)
  if (!R.Found || R.TimedOut || R.NodeLimitHit || R.CacheHit)
    return;
  if (!P.hashExact())
    return;

  const std::vector<int> &CanonIndex = P.canonicalIndex();
  assert(R.Schedule.numOperations() == int(CanonIndex.size()) &&
         "schedule/graph node count mismatch at cache insert");

  Entry E;
  E.Key = hashCombine(P.canonicalHash(), RequestKey);
  E.RequestKey = RequestKey;
  E.Form = P.canonicalForm();
  E.CanonTimes.assign(CanonIndex.size(), 0);
  for (std::size_t Op = 0; Op != CanonIndex.size(); ++Op)
    E.CanonTimes[std::size_t(CanonIndex[Op])] = R.Schedule.time(int(Op));
  E.II = R.II;
  E.Mii = R.Mii;
  E.SecondaryObjective = R.SecondaryObjective;

  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(E.Key);
  if (It != Map.end()) {
    *It->second = std::move(E);
    Lru.splice(Lru.begin(), Lru, It->second);
    ++StatInserts;
    return;
  }
  Lru.push_front(std::move(E));
  Map.emplace(Lru.front().Key, Lru.begin());
  ++StatInserts;
  while (Lru.size() > MaxEntries) {
    Map.erase(Lru.back().Key);
    Lru.pop_back();
    ++StatEvictions;
  }
}

std::size_t SolutionCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Lru.size();
}

void SolutionCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Lru.clear();
  Map.clear();
}
