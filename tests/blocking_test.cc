#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/bigram_indexing.h"
#include "blocking/blocker.h"
#include "blocking/metrics.h"
#include "blocking/sorted_neighbourhood.h"
#include "blocking/standard_blocking.h"
#include "util/rng.h"

namespace rulelink::blocking {
namespace {

core::Item MakeItem(const std::string& iri, const std::string& pn) {
  core::Item item;
  item.iri = iri;
  item.facts.push_back(core::PropertyValue{"pn", pn});
  return item;
}

TEST(BlockingKeyTest, ExtractsLowercasedPrefix) {
  const core::Item item = MakeItem("x", "CRCW0805");
  EXPECT_EQ(BlockingKey(item, "pn", 4), "crcw");
  EXPECT_EQ(BlockingKey(item, "pn", 0), "crcw0805");
  EXPECT_EQ(BlockingKey(item, "pn", 100), "crcw0805");
  EXPECT_EQ(BlockingKey(item, "other", 4), "");
}

TEST(CartesianBlockerTest, AllPairs) {
  const std::vector<core::Item> external = {MakeItem("e0", "a"),
                                            MakeItem("e1", "b")};
  const std::vector<core::Item> local = {MakeItem("l0", "a"),
                                         MakeItem("l1", "b"),
                                         MakeItem("l2", "c")};
  const auto pairs = CartesianBlocker().Generate(external, local);
  EXPECT_EQ(pairs.size(), 6u);
  const std::set<CandidatePair> unique(pairs.begin(), pairs.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(CartesianBlockerTest, EmptySources) {
  EXPECT_TRUE(CartesianBlocker().Generate({}, {}).empty());
  EXPECT_TRUE(
      CartesianBlocker().Generate({MakeItem("e", "x")}, {}).empty());
}

TEST(StandardBlockerTest, PairsShareKeyPrefix) {
  const std::vector<core::Item> external = {MakeItem("e0", "CRCW-1"),
                                            MakeItem("e1", "T83-9")};
  const std::vector<core::Item> local = {MakeItem("l0", "CRCW-2"),
                                         MakeItem("l1", "CRCW-3"),
                                         MakeItem("l2", "T83-1"),
                                         MakeItem("l3", "ZZZZ-0")};
  const StandardBlocker blocker("pn", 4);
  const auto pairs = blocker.Generate(external, local);
  // e0 matches l0, l1 ("crcw"); e1 matches l2 ("t83-").
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (CandidatePair{0, 0}));
  EXPECT_EQ(pairs[1], (CandidatePair{0, 1}));
  EXPECT_EQ(pairs[2], (CandidatePair{1, 2}));
}

TEST(StandardBlockerTest, CaseInsensitive) {
  const auto pairs = StandardBlocker("pn", 3).Generate(
      {MakeItem("e0", "abc1")}, {MakeItem("l0", "ABC2")});
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(StandardBlockerTest, EmptyKeysNeverMatch) {
  const auto pairs = StandardBlocker("pn", 3).Generate(
      {MakeItem("e0", "")}, {MakeItem("l0", "")});
  EXPECT_TRUE(pairs.empty());
}

// A random part number over a few letters in both cases, digits and a
// dash, so keys collide at short prefixes and case folding matters.
std::string RandomPartNumber(util::Rng& rng) {
  static constexpr char kAlphabet[] = "aAbBc1-";
  std::string value(rng.UniformUint64(7), ' ');
  for (char& c : value) {
    c = kAlphabet[rng.UniformUint64(sizeof(kAlphabet) - 1)];
  }
  return value;
}

// An item with, in turn: no part number, an empty one, one random value,
// or two, of which only the first keys the item; some carry another
// property first.
core::Item RandomItem(util::Rng& rng, std::size_t i) {
  core::Item item;
  item.iri = "i" + std::to_string(i);
  if (rng.Bernoulli(0.3)) item.facts.push_back({"label", "x"});
  switch (rng.UniformUint64(8)) {
    case 0:
      break;  // missing
    case 1:
      item.facts.push_back({"pn", ""});
      break;
    case 2:
      item.facts.push_back({"pn", RandomPartNumber(rng)});
      item.facts.push_back({"pn", RandomPartNumber(rng)});
      break;
    default:
      item.facts.push_back({"pn", RandomPartNumber(rng)});
      break;
  }
  return item;
}

// The brute-force reference: e and l pair when the lowercased first
// "pn" values agree on their first `prefix` bytes (all of them at 0), and
// that key is not empty.
std::string ReferenceKey(const core::Item& item, std::size_t prefix) {
  for (const core::PropertyValue& pv : item.facts) {
    if (pv.property != "pn") continue;
    std::string key = prefix == 0 ? pv.value : pv.value.substr(0, prefix);
    for (char& c : key) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return key;
  }
  return "";
}

TEST(StandardBlockerTest, RunsMatchBruteForceKeyPrefixes) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    util::Rng rng(seed);
    std::vector<core::Item> external;
    std::vector<core::Item> local;
    for (std::size_t i = 0; i < 60; ++i) {
      external.push_back(RandomItem(rng, i));
    }
    for (std::size_t i = 0; i < 200; ++i) {
      local.push_back(RandomItem(rng, i));
    }
    for (std::size_t prefix = 0; prefix <= 5; ++prefix) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " prefix " +
                   std::to_string(prefix));
      const StandardBlocker blocker("pn", prefix);
      const auto index = blocker.BuildIndex(external, local);
      const auto item_index = blocker.BuildItemIndex(local);
      std::vector<CandidatePair> expected_pairs;
      std::vector<std::size_t> run;
      std::string key_scratch;
      for (std::size_t e = 0; e < external.size(); ++e) {
        const std::string key = ReferenceKey(external[e], prefix);
        std::vector<std::size_t> expected;
        for (std::size_t l = 0; l < local.size(); ++l) {
          if (!key.empty() && ReferenceKey(local[l], prefix) == key) {
            expected.push_back(l);
            expected_pairs.push_back({e, l});
          }
        }
        index->CandidatesOf(e, &run);
        EXPECT_EQ(run, expected) << "external " << e;
        item_index->CandidatesOfItem(external[e], &key_scratch, &run);
        EXPECT_EQ(run, expected) << "external " << e;
      }
      EXPECT_EQ(blocker.Generate(external, local), expected_pairs);
      EXPECT_FALSE(expected_pairs.empty());
    }
  }
}

TEST(SortedNeighbourhoodTest, AdjacentKeysPaired) {
  // Sorted keys: a1(e) a2(l) a3(e) z9(l); window 2 pairs neighbours only.
  const std::vector<core::Item> external = {MakeItem("e0", "a1"),
                                            MakeItem("e1", "a3")};
  const std::vector<core::Item> local = {MakeItem("l0", "a2"),
                                         MakeItem("l1", "z9")};
  const SortedNeighbourhoodBlocker blocker("pn", 2);
  const auto pairs = blocker.Generate(external, local);
  const std::set<CandidatePair> got(pairs.begin(), pairs.end());
  EXPECT_TRUE(got.count(CandidatePair{0, 0}));  // a1-a2 adjacent
  EXPECT_TRUE(got.count(CandidatePair{1, 0}));  // a2-a3 adjacent
  EXPECT_FALSE(got.count(CandidatePair{0, 1}));  // a1..z9 far apart
}

TEST(SortedNeighbourhoodTest, WindowSizeGrowsCandidates) {
  std::vector<core::Item> external, local;
  for (int i = 0; i < 10; ++i) {
    external.push_back(
        MakeItem("e" + std::to_string(i), "k" + std::to_string(2 * i)));
    local.push_back(
        MakeItem("l" + std::to_string(i), "k" + std::to_string(2 * i + 1)));
  }
  const auto small =
      SortedNeighbourhoodBlocker("pn", 3).Generate(external, local);
  const auto large =
      SortedNeighbourhoodBlocker("pn", 8).Generate(external, local);
  EXPECT_LT(small.size(), large.size());
}

TEST(SortedNeighbourhoodTest, WindowLargerThanInputIsCartesianish) {
  const std::vector<core::Item> external = {MakeItem("e0", "a"),
                                            MakeItem("e1", "b")};
  const std::vector<core::Item> local = {MakeItem("l0", "c")};
  const auto pairs =
      SortedNeighbourhoodBlocker("pn", 50).Generate(external, local);
  EXPECT_EQ(pairs.size(), 2u);  // every cross-source pair
}

TEST(SortedNeighbourhoodTest, FirstWindowInteriorPairsIncluded) {
  // Regression: the very first window must pair ALL its members, not just
  // the last element with the rest.
  const std::vector<core::Item> external = {MakeItem("e0", "a")};
  const std::vector<core::Item> local = {MakeItem("l0", "b"),
                                         MakeItem("l1", "zz")};
  const auto pairs =
      SortedNeighbourhoodBlocker("pn", 3).Generate(external, local);
  const std::set<CandidatePair> got(pairs.begin(), pairs.end());
  EXPECT_TRUE(got.count(CandidatePair{0, 0}));  // a-b inside first window
}

TEST(BigramBlockerTest, SublistKeyCount) {
  const BigramBlocker blocker("pn", 0.8);
  // "abcd" -> bigrams ab, bc, cd (3 distinct); k = ceil(0.8*3) = 3 -> C(3,3)=1.
  EXPECT_EQ(blocker.SublistKeys("abcd").size(), 1u);
  // threshold 0.5: k = ceil(1.5) = 2 -> C(3,2) = 3 keys.
  const BigramBlocker loose("pn", 0.5);
  EXPECT_EQ(loose.SublistKeys("abcd").size(), 3u);
}

TEST(BigramBlockerTest, ShortValues) {
  const BigramBlocker blocker("pn", 0.9);
  EXPECT_EQ(blocker.SublistKeys("a").size(), 1u);  // single char bigram
  EXPECT_TRUE(blocker.SublistKeys("").empty());
}

TEST(BigramBlockerTest, CapLimitsExplosion) {
  const BigramBlocker blocker("pn", 0.5, 10);
  // A long string yields a large C(n,k); the cap must hold.
  EXPECT_LE(blocker.SublistKeys("abcdefghijklmnop").size(), 10u);
}

TEST(BigramBlockerTest, TypoToleranceAtLowThreshold) {
  // One substituted character; both values have 7 distinct bigrams of
  // which 5 are shared, so sub-lists of length ceil(0.55*7)=4 collide.
  const std::vector<core::Item> external = {MakeItem("e0", "crcw0905")};
  const std::vector<core::Item> local = {MakeItem("l0", "crcw0805"),
                                         MakeItem("l1", "t83axyzq")};
  const auto loose = BigramBlocker("pn", 0.55).Generate(external, local);
  const std::set<CandidatePair> got(loose.begin(), loose.end());
  EXPECT_TRUE(got.count(CandidatePair{0, 0}));
  EXPECT_FALSE(got.count(CandidatePair{0, 1}));
  // The strict threshold (full bigram string as the only key) misses it.
  const auto strict = BigramBlocker("pn", 1.0).Generate(external, local);
  EXPECT_TRUE(strict.empty());
}

TEST(BigramBlockerTest, IdenticalValuesAlwaysPair) {
  const auto pairs = BigramBlocker("pn", 1.0).Generate(
      {MakeItem("e0", "same-key")}, {MakeItem("l0", "same-key")});
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(MetricsTest, PerfectBlocking) {
  const std::vector<CandidatePair> gold = {{0, 0}, {1, 1}};
  const auto q = EvaluateBlocking(gold, gold, 2, 2);
  EXPECT_EQ(q.total_pairs, 4u);
  EXPECT_EQ(q.candidate_pairs, 2u);
  EXPECT_EQ(q.matches_found, 2u);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 1.0);
  EXPECT_DOUBLE_EQ(q.pairs_quality, 1.0);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 0.5);
}

TEST(MetricsTest, CartesianHasZeroReduction) {
  std::vector<CandidatePair> all;
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t l = 0; l < 3; ++l) all.push_back({e, l});
  }
  const auto q = EvaluateBlocking(all, {{0, 0}}, 3, 3);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 0.0);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 1.0);
  EXPECT_NEAR(q.pairs_quality, 1.0 / 9.0, 1e-12);
}

TEST(MetricsTest, DuplicateCandidatesCountOnce) {
  const std::vector<CandidatePair> candidates = {{0, 0}, {0, 0}, {0, 0}};
  const auto q = EvaluateBlocking(candidates, {{0, 0}}, 1, 1);
  EXPECT_EQ(q.candidate_pairs, 1u);
}

TEST(MetricsTest, MissedMatches) {
  const auto q = EvaluateBlocking({{0, 1}}, {{0, 0}, {1, 1}}, 2, 2);
  EXPECT_EQ(q.matches_found, 0u);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 0.0);
  EXPECT_DOUBLE_EQ(q.pairs_quality, 0.0);
}

TEST(MetricsTest, EmptyEverything) {
  const auto q = EvaluateBlocking({}, {}, 0, 0);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 0.0);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 0.0);
}

}  // namespace
}  // namespace rulelink::blocking
