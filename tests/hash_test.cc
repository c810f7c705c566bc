#include "util/hash.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

namespace rulelink::util {
namespace {

TEST(Fnv1aTest, KnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

TEST(Fnv1aTest, DeterministicAndSensitive) {
  EXPECT_EQ(Fnv1a64("CRCW0805"), Fnv1a64("CRCW0805"));
  EXPECT_NE(Fnv1a64("CRCW0805"), Fnv1a64("CRCW0806"));
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(HashBytesTest, DistinctKeysLengthsAndLateBytes) {
  std::unordered_set<std::uint64_t> hashes;
  for (int i = 0; i < 100000; ++i) {
    hashes.insert(HashBytes("k" + std::to_string(i)));
  }
  // Runs of NUL bytes differ only in length; keys equal in their first
  // word differ in a later one.
  for (std::size_t n = 0; n <= 64; ++n) {
    hashes.insert(HashBytes(std::string(n, '\0')));
    hashes.insert(HashBytes("ABCDEFGH" + std::string(n, 'x')));
  }
  EXPECT_EQ(hashes.size(), 100000u + 65u + 65u);
  EXPECT_EQ(HashBytes("CRCW0805"), HashBytes(std::string("CRCW0805")));
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
  EXPECT_NE(HashCombine(0, 0), 0u);
}

TEST(PairHashTest, WorksAsUnorderedKeyHasher) {
  std::unordered_map<std::pair<int, std::string>, int, PairHash> map;
  map[{1, "a"}] = 10;
  map[{1, "b"}] = 20;
  map[{2, "a"}] = 30;
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ((map[{1, "a"}]), 10);
  EXPECT_EQ((map[{2, "a"}]), 30);
}

TEST(PairHashTest, FewCollisionsOnGrid) {
  PairHash hasher;
  std::unordered_set<std::size_t> hashes;
  for (int a = 0; a < 100; ++a) {
    for (int b = 0; b < 100; ++b) {
      hashes.insert(hasher(std::make_pair(a, b)));
    }
  }
  // A perfect hash would give 10000; demand near-perfection.
  EXPECT_GT(hashes.size(), 9900u);
}

}  // namespace
}  // namespace rulelink::util
