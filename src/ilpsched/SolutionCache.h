//===- ilpsched/SolutionCache.h - Content-addressed results -----*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, thread-safe, content-addressed cache of verified optimal
/// scheduling results, keyed on the canonical Problem hash
/// (sched/Problem.h) plus a digest of the schedule-relevant scheduler
/// options. Two loops that differ only by node numbering or resource
/// naming share one entry: the cached schedule is stored in canonical
/// node order and replayed through the requesting Problem's canonical
/// index.
///
/// Soundness stance (docs/FORMULATIONS.md "no silent wrong answers"):
///
///   * Only clean conclusive solves are inserted — censored (TimedOut /
///     NodeLimitHit) results and Problems whose canonical labeling ran
///     out of refinement budget (hashExact() == false) never enter.
///   * A lookup matches on the FULL canonical form, not just the hash,
///     so a 64-bit collision degrades to a miss, never a wrong hit.
///   * Every hit is re-verified against the requesting graph/machine
///     through sched/Verifier before it is reported; a verifier
///     rejection is a cache bug and aborts.
///
/// Off by default (SchedulerOptions::Cache; the service turns it on) so
/// solver effort numbers in benchmarks mean what they say; cache-served
/// results report CacheHit with zero attempts rather than masquerading
/// as solver work. Counters: ilpsched/cache.{hits,misses,inserts,
/// evictions} (docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_ILPSCHED_SOLUTIONCACHE_H
#define MODSCHED_ILPSCHED_SOLUTIONCACHE_H

#include "ilpsched/OptimalScheduler.h"
#include "sched/Problem.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace modsched {

/// Process-wide LRU cache mapping (canonical Problem, request key) to a
/// verified optimal ScheduleResult essence.
class SolutionCache {
public:
  /// Default entry bound; at a few hundred bytes per cached loop this
  /// keeps the global cache well under a few MB.
  static constexpr std::size_t DefaultMaxEntries = 1024;

  explicit SolutionCache(std::size_t MaxEntries = DefaultMaxEntries)
      : MaxEntries(MaxEntries ? MaxEntries : 1) {}
  SolutionCache(const SolutionCache &) = delete;
  SolutionCache &operator=(const SolutionCache &) = delete;

  /// The process-wide instance consulted by OptimalModuloScheduler when
  /// SchedulerOptions::Cache is on.
  static SolutionCache &global();

  /// Digest of the schedule-relevant request options NOT already part
  /// of the Problem's canonical form: MaxIiIncrease and NodeLimit bound
  /// which verdicts are reachable, Explain changes what a result
  /// carries. Backend / search strategy / warm-start / branching / LP
  /// engine are excluded by the repo's verdict-invariance contract
  /// (identical II and objective whichever engine decides), and the
  /// wall-clock limit is excluded because clean (uncensored) results
  /// do not depend on it.
  static uint64_t requestKey(const SchedulerOptions &Opts);

  /// What a hit yields: the replayed schedule (already permuted into
  /// the requesting Problem's node ids and verifier-checked) plus the
  /// verdict scalars. Mii is the stored solve's: the full-form match
  /// covers every input of mii() (per-op class signatures, edge
  /// latencies and distances, the machine digest), so it is the
  /// requesting Problem's MII too.
  struct Hit {
    ModuloSchedule Schedule;
    int II = 0;
    int Mii = 0;
    double SecondaryObjective = 0.0;
  };

  /// Looks up \p P under \p RequestKey. On a full-form match, replays
  /// the stored canonical schedule through P.canonicalIndex(),
  /// re-verifies it via sched/Verifier (aborting on rejection — a
  /// corrupt cache must never produce a schedule), and returns it.
  std::optional<Hit> lookup(const Problem &P, uint64_t RequestKey);

  /// Inserts \p R for (\p P, \p RequestKey) if it is a clean conclusive
  /// solve (Found, not censored) and P's canonical labeling is exact;
  /// silently refuses otherwise. Replaces an existing entry for the
  /// same key.
  void insert(const Problem &P, uint64_t RequestKey,
              const ScheduleResult &R);

  /// Current number of cached entries.
  std::size_t size() const;

  /// Drops every entry (counters are telemetry and unaffected).
  void clear();

private:
  struct Entry {
    uint64_t Key = 0; ///< hashCombine(canonicalHash, RequestKey).
    uint64_t RequestKey = 0;
    std::vector<uint64_t> Form; ///< Full canonical form (collision check).
    std::vector<int> CanonTimes; ///< Start times in canonical node order.
    int II = 0;
    int Mii = 0;
    double SecondaryObjective = 0.0;
  };

  mutable std::mutex Mu;
  std::size_t MaxEntries;
  std::list<Entry> Lru; ///< Front = most recently used.
  std::unordered_map<uint64_t, std::list<Entry>::iterator> Map;
};

} // namespace modsched

#endif // MODSCHED_ILPSCHED_SOLUTIONCACHE_H
