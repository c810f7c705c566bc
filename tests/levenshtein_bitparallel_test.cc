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
#include "util/simd.h"

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

class LevenshteinBitParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(LevenshteinBitParallelTest, MatchesDPReferenceOnRandomStrings) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 600; ++iter) {
    const int mode = iter % 3;
    // Lengths 0..200 cross the 64-byte single-word boundary and need up
    // to four 64-bit blocks.
    const std::size_t la = rng.UniformUint64(201);
    const std::size_t lb = rng.UniformUint64(201);
    std::string a = RandomString(rng, la, mode);
    std::string b = RandomString(rng, lb, mode);
    // Half the time, derive b from a by a few edits so the pair is close
    // (far pairs dominate otherwise and close pairs are the hot case).
    if (rng.Bernoulli(0.5)) {
      b = a;
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
    }
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
    const std::string b = RandomString(rng, lb, (iter + 1) % 3);
    const std::size_t d = LevenshteinDistanceDP(a, b);
    const std::size_t cap = rng.UniformUint64(210);
    const std::size_t bounded = BoundedLevenshteinDistance(a, b, cap);
    if (d <= cap) {
      ASSERT_EQ(bounded, d) << "seed=" << GetParam() << " iter=" << iter
                            << " cap=" << cap;
    } else {
      ASSERT_GT(bounded, cap) << "seed=" << GetParam() << " iter=" << iter
                              << " d=" << d;
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

// The batch entry point must return, pair for pair, exactly what the
// single-pair function returns — including the cap+1 early-exit values —
// at every lane width the dispatcher can pick. Modes the CPU lacks clamp
// down, so this runs (possibly redundantly) everywhere.
TEST(LevenshteinBitParallel, BatchMatchesSinglePairAtEveryLaneWidth) {
  util::Rng rng(0xB10C5EEDu);
  std::vector<std::string> as, bs;
  std::vector<std::size_t> caps;
  for (int iter = 0; iter < 400; ++iter) {
    // Mixed shapes: short/short (interleaved kernel), >64-byte patterns
    // (blocked fallback), empties and equal strings (prologue).
    const std::size_t la = rng.UniformUint64(90);
    const std::size_t lb = rng.UniformUint64(90);
    as.push_back(RandomString(rng, la, iter % 3));
    if (rng.Bernoulli(0.25)) {
      bs.push_back(as.back());  // equal pair: prologue cap==0 shape
    } else {
      bs.push_back(RandomString(rng, lb, (iter + 1) % 3));
    }
    caps.push_back(rng.UniformUint64(12));
  }
  std::vector<std::string_view> va(as.begin(), as.end());
  std::vector<std::string_view> vb(bs.begin(), bs.end());
  std::vector<std::size_t> expected(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    expected[i] = BoundedLevenshteinDistance(va[i], vb[i], caps[i]);
  }
  for (const util::SimdMode mode :
       {util::SimdMode::kScalar, util::SimdMode::kAVX2}) {
    const util::ScopedSimdMode scoped(mode);
    std::vector<std::size_t> out(va.size(), ~std::size_t{0});
    BoundedLevenshteinDistanceBatch(va.data(), vb.data(), caps.data(),
                                    va.size(), out.data());
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(out[i], expected[i])
          << "mode=" << util::SimdModeName(mode) << " i=" << i
          << " cap=" << caps[i] << " |a|=" << va[i].size()
          << " |b|=" << vb[i].size();
    }
  }
}

// The cascade's shape: runs of probes sharing one a-side value, which
// the batch entry turns into shared-pattern segments for the interleaved
// kernel. Covers segment lengths that pad the final lane group, pattern
// lengths at the word-kernel extremes (1 and 64 bytes), texts shorter
// AND longer than the shared pattern (the segment path never swaps), and
// a singleton segment between two real ones (the per-pair fallback).
TEST(LevenshteinBitParallel, BatchSharedPatternSegments) {
  util::Rng rng(0x5E6A5EEDu);
  std::vector<std::string> pattern_storage, text_storage;
  std::vector<std::size_t> segment_lengths;
  const std::size_t pattern_lengths[] = {1, 3, 7, 12, 33, 64};
  for (const std::size_t pm : pattern_lengths) {
    // 1..9 spans partial, exact and multi-group segments at width 4.
    for (std::size_t len = 1; len <= 9; ++len) {
      pattern_storage.push_back(RandomString(rng, pm, 0));
      segment_lengths.push_back(len);
    }
  }
  std::vector<std::string_view> va, vb;
  std::vector<std::size_t> caps;
  std::size_t probe = 0;
  for (std::size_t s = 0; s < pattern_storage.size(); ++s) {
    text_storage.reserve(text_storage.size() + segment_lengths[s]);
    for (std::size_t i = 0; i < segment_lengths[s]; ++i) {
      const std::size_t ln = 1 + rng.UniformUint64(80);
      text_storage.push_back(RandomString(rng, ln, probe++ % 3));
    }
  }
  std::size_t t = 0;
  for (std::size_t s = 0; s < pattern_storage.size(); ++s) {
    for (std::size_t i = 0; i < segment_lengths[s]; ++i) {
      va.emplace_back(pattern_storage[s]);  // one shared view per segment
      vb.emplace_back(text_storage[t++]);
      caps.push_back(rng.UniformUint64(15));
    }
  }
  std::vector<std::size_t> expected(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    expected[i] = BoundedLevenshteinDistance(va[i], vb[i], caps[i]);
  }
  for (const util::SimdMode mode :
       {util::SimdMode::kScalar, util::SimdMode::kAVX2}) {
    const util::ScopedSimdMode scoped(mode);
    std::vector<std::size_t> out(va.size(), ~std::size_t{0});
    BoundedLevenshteinDistanceBatch(va.data(), vb.data(), caps.data(),
                                    va.size(), out.data());
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(out[i], expected[i])
          << "mode=" << util::SimdModeName(mode) << " i=" << i
          << " cap=" << caps[i] << " |a|=" << va[i].size()
          << " |b|=" << vb[i].size();
    }
  }
}

// Partial final groups (count not a multiple of the lane width) and
// segment-of-one patterns take the single-pair remainder path; make sure
// every count near the width boundaries round-trips.
TEST(LevenshteinBitParallel, BatchRemainderCounts) {
  util::Rng rng(0x5EEDCAFEu);
  for (std::size_t count = 0; count <= 9; ++count) {
    std::vector<std::string> as, bs;
    std::vector<std::size_t> caps;
    for (std::size_t i = 0; i < count; ++i) {
      as.push_back(RandomString(rng, 1 + rng.UniformUint64(20), 0));
      bs.push_back(RandomString(rng, 1 + rng.UniformUint64(20), 0));
      caps.push_back(rng.UniformUint64(6));
    }
    std::vector<std::string_view> va(as.begin(), as.end());
    std::vector<std::string_view> vb(bs.begin(), bs.end());
    std::vector<std::size_t> out(count, ~std::size_t{0});
    BoundedLevenshteinDistanceBatch(va.data(), vb.data(), caps.data(),
                                    count, out.data());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i],
                BoundedLevenshteinDistance(va[i], vb[i], caps[i]))
          << "count=" << count << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace rulelink::text
