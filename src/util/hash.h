// Hashing helpers: 64-bit FNV-1a for strings, a word-at-a-time byte hash
// for the open-addressing string tables, and a boost-style combiner for
// composite keys used by the frequency tables in the rule learner.
#ifndef RULELINK_UTIL_HASH_H_
#define RULELINK_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>
#include <utility>

namespace rulelink::util {

inline std::uint64_t Fnv1a64(std::string_view data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// SplitMix64 finalizer: a bijective mixer that spreads low-entropy inputs
// (std::hash<int> is the identity on most standard libraries) across the
// whole 64-bit range.
inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// Hash of a byte string for in-memory open-addressing tables
// (util::StringInterner): eight bytes per multiply, the length folded in
// first, Mix64 last so every output bit depends on every input byte. The
// words are read in host byte order, so values differ across byte orders;
// nothing persists them.
inline std::uint64_t HashBytes(std::string_view data) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t h = static_cast<std::uint64_t>(n) * kMul;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
  }
  return Mix64(h);
}

inline std::size_t HashCombine(std::size_t seed, std::size_t value) {
  // boost::hash_combine shape, with the value mixed first so integer keys
  // (identity-hashed) do not collide on grids.
  return seed ^ (Mix64(value) + 0x9E3779B97F4A7C15ULL + (seed << 6) +
                 (seed >> 2));
}

// Hash functor for std::pair keys in unordered containers.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    return HashCombine(std::hash<A>()(p.first), std::hash<B>()(p.second));
  }
};

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_HASH_H_
