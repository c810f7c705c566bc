// Differential coverage for the bit-parallel Myers Levenshtein kernel:
// LevenshteinDistance (Myers, single-word and blocked) must agree with the
// dynamic-programming oracle below on arbitrary byte strings, and
// BoundedLevenshteinDistance must return the exact distance whenever it is
// within the cap and something strictly larger otherwise.
#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "text/similarity.h"
#include "util/rng.h"

namespace rulelink::text {
namespace {

// The single-row dynamic-programming formulation: the differential oracle
// for the bit-parallel kernels.
std::size_t LevenshteinDistanceDP(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t insert_or_delete = std::min(row[i], row[i - 1]) + 1;
      const std::size_t substitute =
          prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min(insert_or_delete, substitute);
    }
  }
  return row[a.size()];
}

// Random string of `length` bytes. Mode 0: ASCII part-number-ish alphabet.
// Mode 1: raw bytes 0..255 (exercises the full Peq table). Mode 2: UTF-8
// encodings of random code points, truncated to `length` bytes, so the
// kernels see realistic multi-byte sequences (the measure is byte-based;
// the DP reference defines the expected value either way).
std::string RandomString(util::Rng& rng, std::size_t length, int mode) {
  std::string s;
  s.reserve(length + 4);
  static constexpr std::string_view kAscii =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-./ ";
  while (s.size() < length) {
    switch (mode) {
      case 0:
        s.push_back(kAscii[rng.UniformUint64(kAscii.size())]);
        break;
      case 1:
        s.push_back(static_cast<char>(rng.UniformUint64(256)));
        break;
      default: {
        const std::uint64_t cp = 0x80 + rng.UniformUint64(0x10000);
        if (cp < 0x800) {
          s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
          s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
          s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        break;
      }
    }
  }
  s.resize(length);
  return s;
}

// `b` after up to five random byte edits (substitute, delete, insert):
// a close pair, the hot case, where uniform draws give mostly far pairs.
std::string NearEdit(util::Rng& rng, std::string b) {
  const std::size_t edits = rng.UniformUint64(6);
  for (std::size_t e = 0; e < edits && !b.empty(); ++e) {
    const std::size_t pos = rng.UniformUint64(b.size());
    switch (rng.UniformUint64(3)) {
      case 0:
        b[pos] = static_cast<char>(rng.UniformUint64(256));
        break;
      case 1:
        b.erase(pos, 1);
        break;
      default:
        b.insert(pos, 1, static_cast<char>(rng.UniformUint64(256)));
        break;
    }
  }
  return b;
}

class LevenshteinBitParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(LevenshteinBitParallelTest, MatchesDPReferenceOnRandomStrings) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 600; ++iter) {
    const int mode = iter % 3;
    // Lengths 0..200 cross the 64-byte single-word boundary and need up
    // to four 64-bit blocks.
    const std::size_t la = rng.UniformUint64(201);
    const std::size_t lb = rng.UniformUint64(201);
    const std::string a = RandomString(rng, la, mode);
    std::string b = RandomString(rng, lb, mode);
    if (rng.Bernoulli(0.5)) b = NearEdit(rng, a);
    const std::size_t expected = LevenshteinDistanceDP(a, b);
    ASSERT_EQ(LevenshteinDistance(a, b), expected)
        << "seed=" << GetParam() << " iter=" << iter << " |a|=" << a.size()
        << " |b|=" << b.size();
    // The derived similarity must be the exact same double.
    ASSERT_EQ(LevenshteinSimilarity(a, b),
              LevenshteinSimilarityFromDistance(
                  expected, std::max(a.size(), b.size())));
  }
}

TEST_P(LevenshteinBitParallelTest, BoundedContractOnRandomStrings) {
  util::Rng rng(0x9E3779B9u * static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 600; ++iter) {
    const std::size_t la = rng.UniformUint64(201);
    const std::size_t lb = rng.UniformUint64(201);
    const std::string a = RandomString(rng, la, iter % 3);
    std::string b = RandomString(rng, lb, (iter + 1) % 3);
    // Half the pairs take the shape of the filter cascade's stage-B
    // probes: b a few edits from a.
    if (rng.Bernoulli(0.5)) b = NearEdit(rng, a);
    const std::size_t d = LevenshteinDistanceDP(a, b);
    // A uniform cap, and a small one like the caps stage B derives.
    for (const std::size_t cap :
         {rng.UniformUint64(210), rng.UniformUint64(16)}) {
      const std::size_t bounded = BoundedLevenshteinDistance(a, b, cap);
      if (d <= cap) {
        ASSERT_EQ(bounded, d) << "seed=" << GetParam() << " iter=" << iter
                              << " cap=" << cap;
      } else {
        ASSERT_GT(bounded, cap) << "seed=" << GetParam() << " iter=" << iter
                                << " d=" << d << " cap=" << cap;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinBitParallelTest,
                         ::testing::Values(1, 2, 3));

TEST(LevenshteinBitParallel, BlockBoundaryLengths) {
  // Exercise pattern lengths right at the 64-bit block edges.
  for (const std::size_t len : {63u, 64u, 65u, 127u, 128u, 129u, 192u}) {
    const std::string a(len, 'x');
    std::string b = a;
    b[len / 2] = 'y';
    b.push_back('z');
    EXPECT_EQ(LevenshteinDistance(a, a), 0u) << len;
    EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceDP(a, b)) << len;
    EXPECT_EQ(LevenshteinDistance(a, std::string()), len);
  }
}

TEST(LevenshteinBitParallel, BoundedEdgeCases) {
  const std::string long_string(100, 'a');
  // Empty vs long: the length gate alone decides.
  EXPECT_GT(BoundedLevenshteinDistance("", long_string, 3), 3u);
  EXPECT_EQ(BoundedLevenshteinDistance("", long_string, 100), 100u);
  EXPECT_EQ(BoundedLevenshteinDistance("", long_string, 500), 100u);
  EXPECT_EQ(BoundedLevenshteinDistance("", "", 0), 0u);
  // Equal strings are distance 0 under any cap, including 0.
  EXPECT_EQ(BoundedLevenshteinDistance(long_string, long_string, 0), 0u);
  EXPECT_EQ(BoundedLevenshteinDistance("abc", "abc", 0), 0u);
  // cap = 0 with any difference must report > 0.
  EXPECT_GT(BoundedLevenshteinDistance("abc", "abd", 0), 0u);
  EXPECT_GT(BoundedLevenshteinDistance("abc", "abcd", 0), 0u);
  // cap exactly at the distance: exact value comes back.
  EXPECT_EQ(BoundedLevenshteinDistance("kitten", "sitting", 3), 3u);
  EXPECT_GT(BoundedLevenshteinDistance("kitten", "sitting", 2), 2u);
}

TEST(LevenshteinBitParallel, BoundedSingleByteEdgeCases) {
  // Single-byte patterns drive last_row down to bit 0, the smallest mask
  // the word kernel ever uses; these are the stage-B probe shapes for
  // one-character part numbers.
  EXPECT_EQ(BoundedLevenshteinDistance("a", "a", 0), 0u);
  EXPECT_GT(BoundedLevenshteinDistance("a", "b", 0), 0u);
  EXPECT_EQ(BoundedLevenshteinDistance("a", "b", 1), 1u);
  EXPECT_EQ(BoundedLevenshteinDistance("a", "", 1), 1u);
  EXPECT_EQ(BoundedLevenshteinDistance("", "a", 1), 1u);
  EXPECT_GT(BoundedLevenshteinDistance("", "a", 0), 0u);
  EXPECT_EQ(BoundedLevenshteinDistance("a", "ab", 1), 1u);
  EXPECT_EQ(BoundedLevenshteinDistance("a", "bbbb", 4), 4u);
  EXPECT_GT(BoundedLevenshteinDistance("a", "bbbb", 3), 3u);
  // A cap far beyond both lengths is clamped internally before the
  // kernel's early-exit arithmetic; the exact distance still comes back.
  EXPECT_EQ(BoundedLevenshteinDistance(
                "a", "b", static_cast<std::size_t>(-2)),
            1u);
}

}  // namespace
}  // namespace rulelink::text
