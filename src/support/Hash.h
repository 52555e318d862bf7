//===- support/Hash.h - Deterministic hash combinators ----------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small deterministic 64-bit hashing helpers used by the canonical
/// Problem digest and the content-addressed solution cache. The mixer is
/// splitmix64; the combinator is order-sensitive (hashCombine) with an
/// order-insensitive variant (hashUnordered) for multisets such as the
/// stable-color histogram of the WL refinement. All results are
/// platform-independent: they depend only on the fed values, never on
/// pointers, iteration order of unordered containers, or std::hash.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SUPPORT_HASH_H
#define MODSCHED_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace modsched {

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
inline uint64_t hashMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// hashCombine() of a value the caller already passed through hashMix():
/// lets a loop that feeds one value into many seeds mix it once.
inline uint64_t hashCombineMixed(uint64_t Seed, uint64_t MixedValue) {
  return hashMix(Seed ^ (MixedValue + 0x9e3779b97f4a7c15ull + (Seed << 6) +
                         (Seed >> 2)));
}

/// Order-SENSITIVE combination: feeds \p Value into running hash \p Seed.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return hashCombineMixed(Seed, hashMix(Value));
}

/// Order-INSENSITIVE combination: commutative and associative, so a
/// multiset of values hashes identically regardless of feed order. Each
/// element is mixed first so the sum does not telescope on small ints.
inline uint64_t hashUnordered(uint64_t Acc, uint64_t Value) {
  return Acc + (hashMix(Value) | 1); // |1 keeps zero elements visible.
}

/// Hashes a byte string (used for machine/opclass names kept out of the
/// canonical digest, and for cache request keys built from enum names).
inline uint64_t hashBytes(std::string_view Bytes, uint64_t Seed = 0) {
  uint64_t H = hashMix(Seed ^ (uint64_t)Bytes.size());
  for (unsigned char C : Bytes)
    H = hashCombine(H, C);
  return H;
}

} // namespace modsched

#endif // MODSCHED_SUPPORT_HASH_H
