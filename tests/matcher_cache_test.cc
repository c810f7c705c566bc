// Equivalence tests for the cached scoring path: ItemMatcher::ScoreCached
// over FeatureCache/FeatureDictionary must return exactly (bit-for-bit)
// the same score as ItemMatcher::Score on the raw items, for every
// similarity measure and for the awkward inputs the cache precomputes
// around — empty values, whitespace-only values, missing properties,
// duplicate values, multi-valued properties and sub-bigram strings.
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linking/feature_cache.h"
#include "linking/matcher.h"

namespace rulelink::linking {
namespace {

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kExact,         SimilarityMeasure::kLevenshtein,
    SimilarityMeasure::kJaro,          SimilarityMeasure::kJaroWinkler,
    SimilarityMeasure::kJaccardTokens, SimilarityMeasure::kDiceBigram,
    SimilarityMeasure::kMongeElkan,
};

core::Item MakeItem(
    std::string iri,
    std::vector<std::pair<std::string, std::string>> facts) {
  core::Item item;
  item.iri = std::move(iri);
  for (auto& [property, value] : facts) {
    item.facts.push_back(
        core::PropertyValue{std::move(property), std::move(value)});
  }
  return item;
}

// External items covering the cache's precomputation branches: repeated
// tokens, duplicate and multi-valued properties, single characters (a
// string shorter than a bigram is its own gram), empty and whitespace-only
// values (zero tokens but a non-empty value list), and a missing property.
std::vector<core::Item> ExternalItems() {
  return {
      MakeItem("e0", {{"pn", "CRCW0805 10K ohm"}, {"mfr", "Vishay"}}),
      MakeItem("e1", {{"pn", "T83-106"}, {"mfr", "ACME corp"}}),
      MakeItem("e2", {{"pn", "X-1"}, {"pn", "X-1"}, {"mfr", "acme ACME"}}),
      MakeItem("e3", {{"pn", "WRONG"}, {"pn", "CRCW0805 10K ohm"}}),
      MakeItem("e4", {{"pn", "a"}, {"mfr", "b"}}),
      MakeItem("e5", {{"pn", ""}, {"mfr", " \t "}}),
      MakeItem("e6", {{"mfr", "Vishay"}}),  // pn missing entirely
  };
}

std::vector<core::Item> LocalItems() {
  return {
      MakeItem("l0", {{"pn", "CRCW0805 10K ohm"}, {"mfr", "Vishay"}}),
      MakeItem("l1", {{"pn", "CRCW0806 10K ohm"}, {"mfr", "vishay"}}),
      MakeItem("l2", {{"pn", "X-1"}, {"mfr", "ACME"}}),
      MakeItem("l3", {{"pn", "a b a"}, {"mfr", "b"}}),
      MakeItem("l4", {{"pn", ""}, {"mfr", ""}}),
      MakeItem("l5", {{"pn", "T83-106"}}),  // mfr missing entirely
  };
}

// The dictionary lives behind a unique_ptr so its address survives the
// struct being moved (the caches keep a pointer to it).
struct BuiltCaches {
  std::unique_ptr<FeatureDictionary> dict;
  FeatureCache external;
  FeatureCache local;
};

BuiltCaches BuildCaches(const std::vector<core::Item>& external,
                        const std::vector<core::Item>& local,
                        const ItemMatcher& matcher,
                        std::size_t num_threads = 1) {
  BuiltCaches caches;
  caches.dict = std::make_unique<FeatureDictionary>();
  caches.external =
      FeatureCache::Build(external, matcher, FeatureCache::Side::kExternal,
                          caches.dict.get(), num_threads);
  caches.local =
      FeatureCache::Build(local, matcher, FeatureCache::Side::kLocal,
                          caches.dict.get(), num_threads);
  return caches;
}

void ExpectAllPairsIdentical(const std::vector<core::Item>& external,
                             const std::vector<core::Item>& local,
                             const ItemMatcher& matcher,
                             const BuiltCaches& caches,
                             ScoreMemo* memo = nullptr) {
  for (std::size_t e = 0; e < external.size(); ++e) {
    for (std::size_t l = 0; l < local.size(); ++l) {
      // Exact double equality: the cached path must be byte-identical,
      // not merely close.
      EXPECT_EQ(matcher.ScoreCached(caches.external, e, caches.local, l,
                                    memo),
                matcher.Score(external[e], local[l]))
          << "external=" << external[e].iri << " local=" << local[l].iri;
    }
  }
}

TEST(ScoreCachedTest, MatchesScoreForEveryMeasure) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  for (SimilarityMeasure measure : kAllMeasures) {
    const ItemMatcher matcher({{"pn", "pn", measure, 2.0},
                               {"mfr", "mfr", measure, 1.0}});
    const auto caches = BuildCaches(external, local, matcher);
    SCOPED_TRACE(SimilarityMeasureName(measure));
    ExpectAllPairsIdentical(external, local, matcher, caches);
  }
}

TEST(ScoreCachedTest, MatchesScoreWithMixedMeasuresAndWeights) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kJaroWinkler, 3.0},
      {"pn", "pn", SimilarityMeasure::kJaccardTokens, 1.5},
      {"mfr", "mfr", SimilarityMeasure::kExact, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kMongeElkan, 0.5},
  });
  const auto caches = BuildCaches(external, local, matcher);
  ExpectAllPairsIdentical(external, local, matcher, caches);
}

TEST(ScoreCachedTest, CrossPropertyMappingUsesTheRightSide) {
  const auto external = std::vector<core::Item>{
      MakeItem("e0", {{"provider:pn", "X-1"}})};
  const auto local = std::vector<core::Item>{MakeItem("l0", {{"pn", "X-1"}}),
                                             MakeItem("l1", {{"pn", "Y"}})};
  const ItemMatcher matcher(
      {{"provider:pn", "pn", SimilarityMeasure::kExact, 1.0}});
  const auto caches = BuildCaches(external, local, matcher);
  EXPECT_EQ(matcher.ScoreCached(caches.external, 0, caches.local, 0), 1.0);
  EXPECT_EQ(matcher.ScoreCached(caches.external, 0, caches.local, 1), 0.0);
  ExpectAllPairsIdentical(external, local, matcher, caches);
}

TEST(ScoreCachedTest, MemoizedScoresAreIdenticalAndCounted) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  // Monge-Elkan is the one measure the memo serves; the Jaccard rule
  // runs beside it unmemoized.
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kMongeElkan, 2.0},
      {"mfr", "mfr", SimilarityMeasure::kJaccardTokens, 1.0},
  });
  const auto caches = BuildCaches(external, local, matcher);

  ScoreMemo memo;
  // Two passes through the full cross product: the second pass must be
  // answered from the memo and still agree with the string path.
  ExpectAllPairsIdentical(external, local, matcher, caches, &memo);
  const ScoreMemoStats after_first = memo.stats();
  EXPECT_GT(after_first.lookups, 0u);
  ExpectAllPairsIdentical(external, local, matcher, caches, &memo);
  const ScoreMemoStats after_second = memo.stats();
  // Every value pair the second pass touched was already memoized.
  EXPECT_EQ(after_second.hits - after_first.hits,
            after_second.lookups - after_first.lookups);
  EXPECT_GT(after_second.hits, 0u);
  EXPECT_LE(after_second.hits, after_second.lookups);
  EXPECT_GT(after_second.hit_rate(), 0.0);

  memo.Clear();
  EXPECT_EQ(memo.stats().lookups, 0u);
  EXPECT_EQ(memo.stats().hits, 0u);
}

TEST(ScoreCachedTest, ParallelCacheBuildGivesIdenticalScores) {
  const auto external = ExternalItems();
  const auto local = LocalItems();
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kDiceBigram, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kMongeElkan, 1.0},
  });
  // Id numbering differs per thread count; scores must not.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const auto caches = BuildCaches(external, local, matcher, threads);
    ExpectAllPairsIdentical(external, local, matcher, caches);
  }
}

TEST(FeatureDictionaryTest, RepeatedValuesHitTheBuildMemo) {
  FeatureDictionary dict;
  const ValueId first = dict.AddValue("CRCW0805 10K ohm");
  const ValueId again = dict.AddValue("CRCW0805 10K ohm");
  EXPECT_EQ(first, again);
  EXPECT_EQ(dict.num_values(), 1u);
  EXPECT_EQ(dict.values_reused(), 1u);
  EXPECT_GT(dict.memory_bytes(), 0u);
}

TEST(FeatureDictionaryTest, FeaturesRecordTokensAndBigrams) {
  FeatureDictionary dict;
  const ValueId id = dict.AddValue("a b a");
  const auto features = dict.Features(id);
  EXPECT_EQ(features.text, "a b a");
  ASSERT_EQ(features.num_tokens, 3u);
  EXPECT_EQ(features.num_unique_tokens, 2u);
  // Occurrence order is preserved ("a", "b", "a"); the sorted copy is
  // non-decreasing.
  EXPECT_EQ(features.ordered_tokens[0], features.ordered_tokens[2]);
  EXPECT_NE(features.ordered_tokens[0], features.ordered_tokens[1]);
  EXPECT_LE(features.sorted_tokens[0], features.sorted_tokens[1]);
  EXPECT_LE(features.sorted_tokens[1], features.sorted_tokens[2]);
  // Bigrams of "a b a": "a ", " b", "b ", " a".
  EXPECT_EQ(features.num_bigrams, 4u);

  const ValueId empty = dict.AddValue("");
  const auto none = dict.Features(empty);
  EXPECT_EQ(none.num_tokens, 0u);
  EXPECT_EQ(none.num_bigrams, 0u);

  // A sub-bigram string is its own single gram.
  const ValueId single = dict.AddValue("x");
  EXPECT_EQ(dict.Features(single).num_bigrams, 1u);
}

TEST(FeatureCacheTest, SlotsFollowRuleOrderAndMissingPropertiesAreEmpty) {
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kExact, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kExact, 1.0},
  });
  const auto external = ExternalItems();
  FeatureDictionary dict;
  const auto cache = FeatureCache::Build(
      external, matcher, FeatureCache::Side::kExternal, &dict, 1);
  ASSERT_EQ(cache.num_items(), external.size());
  ASSERT_EQ(cache.num_rules(), 2u);

  std::size_t count = 0;
  // e2 lists "pn" twice: both occurrences are kept (value multiplicity
  // matters to best-pair semantics only through the cross product, but
  // the cache must mirror the item faithfully).
  cache.Values(2, 0, &count);
  EXPECT_EQ(count, 2u);
  // e6 has no "pn" at all.
  cache.Values(6, 0, &count);
  EXPECT_EQ(count, 0u);
  // e6's "mfr" slot holds one value.
  const ValueId* mfr = cache.Values(6, 1, &count);
  ASSERT_EQ(count, 1u);
  EXPECT_EQ(dict.View(mfr[0]), "Vishay");
}

}  // namespace
}  // namespace rulelink::linking
