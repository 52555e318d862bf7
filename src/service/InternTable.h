//===- service/InternTable.h - Bounded LRU intern table ---------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's one intern mechanism: a bounded, thread-safe table that
/// maps the exact input of an expensive resolution (a MACHINE payload's
/// bytes; a DDG payload's bytes with its machine and formulation
/// options) to the immutable value resolved from it, shared by every
/// request that names the same input.
///
/// The rules, the same for every use:
///
///   * the key's hash picks the entry and a full key compare confirms
///     it, so a hash collision degrades to a miss, never a wrong value;
///   * a miss resolves the value off the table's lock, so a large
///     payload stalls only its own request;
///   * a failed resolution (nullptr) is returned and never interned;
///   * the table holds at most MaxEntries values and MaxBytes payload
///     bytes, dropping the least recently used entry past either bound;
///     a value whose payload alone exceeds MaxBytes is returned but not
///     interned.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SERVICE_INTERNTABLE_H
#define MODSCHED_SERVICE_INTERNTABLE_H

#include "support/Telemetry.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace modsched {
namespace service {

/// LRU intern table from \p Key (hashed by \p KeyHash, compared with
/// operator==) to shared immutable \p Value.
template <typename Key, typename Value, typename KeyHash>
class InternTable {
public:
  /// \p Hits and \p Misses are the telemetry counters the table bumps
  /// on every intern() call.
  InternTable(std::size_t MaxEntries, std::size_t MaxBytes,
              telemetry::Counter &Hits, telemetry::Counter &Misses)
      : MaxEntries(MaxEntries), MaxBytes(MaxBytes), HitCounter(Hits),
        MissCounter(Misses) {}
  InternTable(const InternTable &) = delete;
  InternTable &operator=(const InternTable &) = delete;

  /// The value interned under \p K, which becomes the most recently
  /// used entry. On a miss, \p Make(K) resolves the value off the lock;
  /// nullptr is returned as is, otherwise the value is interned under
  /// a copy of \p K, charged \p Bytes payload bytes. When another
  /// thread interned an equal key meanwhile, its value is returned
  /// instead, so every caller of one key shares one value.
  template <typename MakeFn>
  std::shared_ptr<const Value> intern(const Key &K, std::size_t Bytes,
                                      MakeFn &&Make) {
    const std::size_t Hash = KeyHash()(K);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Entry *E = find(Hash, K)) {
        ++NumHits;
        ++HitCounter;
        return E->V;
      }
    }
    ++MissCounter;
    std::shared_ptr<const Value> V = Make(K);
    if (!V || Bytes > MaxBytes)
      return V;

    std::lock_guard<std::mutex> Lock(Mu);
    if (Entry *E = find(Hash, K))
      return E->V;
    while (!Lru.empty() &&
           (Lru.size() >= MaxEntries || NumBytes + Bytes > MaxBytes))
      evictOldest();
    Lru.push_front(Entry{Hash, K, V, Bytes});
    Index.emplace(Hash, Lru.begin());
    NumBytes += Bytes;
    return V;
  }

  /// Entries held now.
  std::size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Lru.size();
  }

  /// Payload bytes charged to the entries held now.
  std::size_t bytes() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return NumBytes;
  }

  /// intern() calls served from the table.
  std::int64_t hits() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return NumHits;
  }

private:
  struct Entry {
    std::size_t Hash;
    Key K;
    std::shared_ptr<const Value> V;
    std::size_t Bytes;
  };
  using EntryIt = typename std::list<Entry>::iterator;

  /// The entry for \p K, moved to the front; nullptr when absent.
  /// Requires Mu.
  Entry *find(std::size_t Hash, const Key &K) {
    auto [It, End] = Index.equal_range(Hash);
    for (; It != End; ++It)
      if (It->second->K == K) {
        Lru.splice(Lru.begin(), Lru, It->second);
        return &Lru.front();
      }
    return nullptr;
  }

  /// Drops the least recently used entry. Requires Mu.
  void evictOldest() {
    EntryIt Oldest = std::prev(Lru.end());
    auto [It, End] = Index.equal_range(Oldest->Hash);
    for (; It != End; ++It)
      if (It->second == Oldest) {
        Index.erase(It);
        break;
      }
    NumBytes -= Oldest->Bytes;
    Lru.erase(Oldest);
  }

  const std::size_t MaxEntries;
  const std::size_t MaxBytes;
  telemetry::Counter &HitCounter;
  telemetry::Counter &MissCounter;

  mutable std::mutex Mu; ///< Guards everything below.
  std::list<Entry> Lru;  ///< Most recently used first.
  std::unordered_multimap<std::size_t, EntryIt> Index;
  std::size_t NumBytes = 0;
  std::int64_t NumHits = 0;
};

} // namespace service
} // namespace modsched

#endif // MODSCHED_SERVICE_INTERNTABLE_H
