// Equivalence tests for the cached scoring path: the run scorer
// ItemMatcher::ScoreRun over FeatureCache / FeatureDictionary, on runs of
// one and on long runs, must return exactly (bit-for-bit) the same score
// as ItemMatcher::Score on the raw items, for every similarity measure and
// for the awkward inputs the cache precomputes around — empty values,
// whitespace-only values, missing properties, duplicate values,
// multi-valued properties and sub-bigram strings. The run scorer must
// also move the kernel and memo counters exactly as a per-pair loop does.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/config.h"
#include "datagen/workload.h"
#include "linking/feature_cache.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "text/similarity.h"
#include "util/interner.h"
#include "util/string_util.h"

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

// ItemMatcher::ScoreRun over a run of one candidate.
double ScoreOne(const ItemMatcher& matcher, const BuiltCaches& caches,
                std::size_t external_index, std::size_t local_index,
                ScoreMemo* memo = nullptr) {
  ScoreRunScratch scratch;
  matcher.ScoreRun(caches.external, external_index, caches.local,
                   &local_index, 1, memo, nullptr, &scratch);
  return scratch.scores[0];
}

// The record of `cache`'s slot (item, rule).
const SlotRecord& RecordOf(const FeatureCache& cache, std::size_t item,
                           std::size_t rule) {
  return cache.records()[item * cache.num_rules() + rule];
}

// Whether two records hold the same fields; value ids compare by string
// unless `same_ids` (an invalid id only equals an invalid id).
bool SameRecord(const FeatureCache& want_cache, const SlotRecord& want,
                const FeatureCache& got_cache, const SlotRecord& got,
                bool same_ids) {
  const bool compare_ids = same_ids ||
                           want.value_id == util::kInvalidSymbolId ||
                           got.value_id == util::kInvalidSymbolId;
  const bool same_id = compare_ids ? want.value_id == got.value_id
                                   : want_cache.dict().View(want.value_id) ==
                                         got_cache.dict().View(got.value_id);
  return same_id && want.count == got.count &&
         want.jaro_prefix == got.jaro_prefix &&
         want.num_values == got.num_values &&
         std::memcmp(want.signature, got.signature, text::kSignatureBytes) ==
             0;
}

// Asserts `got` holds the slots of `want`: per slot the same values, by
// string (and by id when `same_ids`), and the same record.
void ExpectSameSlots(const FeatureCache& want, const FeatureCache& got,
                     bool same_ids) {
  ASSERT_EQ(got.num_items(), want.num_items());
  ASSERT_EQ(got.num_rules(), want.num_rules());
  std::size_t differences = 0;
  for (std::size_t item = 0; item < want.num_items(); ++item) {
    for (std::size_t rule = 0; rule < want.num_rules(); ++rule) {
      std::size_t want_count = 0;
      std::size_t got_count = 0;
      const ValueId* want_ids = want.Values(item, rule, &want_count);
      const ValueId* got_ids = got.Values(item, rule, &got_count);
      bool same = want_count == got_count;
      for (std::size_t k = 0; same && k < want_count; ++k) {
        same = same_ids ? want_ids[k] == got_ids[k]
                        : want.dict().View(want_ids[k]) ==
                              got.dict().View(got_ids[k]);
      }
      same = same && SameRecord(want, RecordOf(want, item, rule), got,
                                RecordOf(got, item, rule), same_ids);
      if (!same && ++differences <= 5) {
        ADD_FAILURE() << "item " << item << " rule " << rule << " differs";
      }
    }
  }
  EXPECT_EQ(differences, 0u);
}

// Asserts every slot's record follows its values, field by field: a
// single-valued slot holds that value's id, the count its rule's bound
// reads (bytes under Levenshtein, Jaro and Jaro-Winkler, bigrams under
// Dice, distinct tokens under Jaccard, 0 otherwise), its Jaro prefix, a
// value count of 1 and its count signature for the slot's rule (zeros
// under a rule without one); a missing or multi-valued slot holds its
// value count, an invalid id and zeros.
void ExpectRecordsFollowValues(const FeatureCache& cache,
                               const ItemMatcher& matcher) {
  std::size_t differences = 0;
  for (std::size_t item = 0; item < cache.num_items(); ++item) {
    for (std::size_t rule = 0; rule < cache.num_rules(); ++rule) {
      std::size_t count = 0;
      const ValueId* ids = cache.Values(item, rule, &count);
      SlotRecord want;
      want.num_values = static_cast<std::uint32_t>(count);
      if (count == 1) {
        const SimilarityMeasure measure = matcher.rules()[rule].measure;
        const auto features = cache.dict().Features(ids[0]);
        want.value_id = ids[0];
        switch (measure) {
          case SimilarityMeasure::kLevenshtein:
          case SimilarityMeasure::kJaro:
          case SimilarityMeasure::kJaroWinkler:
            want.count = static_cast<std::uint32_t>(features.text.size());
            break;
          case SimilarityMeasure::kDiceBigram:
            want.count = features.num_bigrams;
            break;
          case SimilarityMeasure::kJaccardTokens:
            want.count = features.num_unique_tokens;
            break;
          case SimilarityMeasure::kExact:
          case SimilarityMeasure::kMongeElkan:
            break;
        }
        want.jaro_prefix = text::JaroPrefixBytes(features.text);
        linking::SlotSignature(measure, features.text, want.signature);
      }
      if (!SameRecord(cache, want, cache, RecordOf(cache, item, rule),
                      /*same_ids=*/true) &&
          ++differences <= 5) {
        ADD_FAILURE() << "item " << item << " rule " << rule << " ("
                      << count << " values): the record does not follow them";
      }
    }
  }
  EXPECT_EQ(differences, 0u);
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
      EXPECT_EQ(ScoreOne(matcher, caches, e, l, memo),
                matcher.Score(external[e], local[l]))
          << "external=" << external[e].iri << " local=" << local[l].iri;
    }
  }
}

TEST(ScoreRunOfOneTest, MatchesScoreForEveryMeasure) {
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

TEST(ScoreRunOfOneTest, MatchesScoreWithMixedMeasuresAndWeights) {
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

TEST(ScoreRunOfOneTest, CrossPropertyMappingUsesTheRightSide) {
  const auto external = std::vector<core::Item>{
      MakeItem("e0", {{"provider:pn", "X-1"}})};
  const auto local = std::vector<core::Item>{MakeItem("l0", {{"pn", "X-1"}}),
                                             MakeItem("l1", {{"pn", "Y"}})};
  const ItemMatcher matcher(
      {{"provider:pn", "pn", SimilarityMeasure::kExact, 1.0}});
  const auto caches = BuildCaches(external, local, matcher);
  EXPECT_EQ(ScoreOne(matcher, caches, 0, 0), 1.0);
  EXPECT_EQ(ScoreOne(matcher, caches, 0, 1), 0.0);
  ExpectAllPairsIdentical(external, local, matcher, caches);
}

TEST(ScoreRunOfOneTest, MemoizedScoresAreIdenticalAndCounted) {
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

TEST(ScoreRunOfOneTest, ParallelCacheBuildGivesIdenticalScores) {
  // The locals are the hand-made ones followed by a generated catalog,
  // more than 4 096 items in all; the externals are the hand-made ones
  // followed by dirty queries against that catalog.
  datagen::WorkloadConfig config;
  config.seed = 42;
  config.catalog_size = 5000;
  auto catalog = datagen::GenerateWorkloadCatalog(config, 1);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  datagen::QueryStreamConfig stream_config;
  stream_config.num_queries = 12;
  stream_config.typo_prob = 0.3;
  auto stream = datagen::GenerateQueryStream(*catalog, stream_config, 1);
  ASSERT_TRUE(stream.ok()) << stream.status();
  std::vector<core::Item> external = ExternalItems();
  external.insert(external.end(), stream->queries.begin(),
                  stream->queries.end());
  const std::vector<core::Item> hand_made_local = LocalItems();
  std::vector<core::Item> local = hand_made_local;
  local.insert(local.end(), catalog->items.begin(), catalog->items.end());
  ASSERT_GT(local.size(), 4096u);
  const std::string part = datagen::props::kPartNumber;
  const std::string maker = datagen::props::kManufacturer;
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kDiceBigram, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kMongeElkan, 1.0},
      {part, part, SimilarityMeasure::kDiceBigram, 1.0},
      {maker, maker, SimilarityMeasure::kMongeElkan, 1.0},
  });
  // The build is serial at every thread count: the same ids, records and
  // dictionary counts, and so the same scores.
  const auto serial = BuildCaches(external, local, matcher, 1);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const auto caches = BuildCaches(external, local, matcher, threads);
    ExpectSameSlots(serial.external, caches.external, /*same_ids=*/true);
    ExpectSameSlots(serial.local, caches.local, /*same_ids=*/true);
    EXPECT_EQ(caches.dict->num_symbols(), serial.dict->num_symbols());
    EXPECT_EQ(caches.dict->num_values(), serial.dict->num_values());
    EXPECT_EQ(caches.dict->values_reused(), serial.dict->values_reused());
    EXPECT_EQ(caches.dict->memory_bytes(), serial.dict->memory_bytes());
    EXPECT_EQ(caches.external.memory_bytes(),
              serial.external.memory_bytes());
    EXPECT_EQ(caches.local.memory_bytes(), serial.local.memory_bytes());
    ExpectAllPairsIdentical(external, hand_made_local, matcher, caches);
    for (std::size_t e = 0; e < external.size(); ++e) {
      for (std::size_t l = hand_made_local.size(); l < local.size();
           l += 97) {
        EXPECT_EQ(ScoreOne(matcher, caches, e, l),
                  matcher.Score(external[e], local[l]))
            << "external=" << external[e].iri << " local=" << local[l].iri;
      }
    }
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

TEST(FeatureDictionaryDeathTest, OverlayWithoutABaseFailsTheCheck) {
  const FeatureDictionary* no_base = nullptr;
  EXPECT_DEATH(FeatureDictionary overlay(no_base),
               "Check failed: base != nullptr");
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

TEST(FeatureCacheTest, ExtendFromAndAssignSingleAppendLikeBuild) {
  // Every kind of record: bigram, token-set and byte signatures and
  // counts, the Jaro prefix, and a rule without a signature or count.
  // "a b a" under the Jaccard rule has fewer distinct tokens than tokens.
  // Then the `rulelink serve` default, one Jaro-Winkler rule, whose
  // dictionaries build no token or bigram.
  const ItemMatcher every_record({
      {"pn", "pn", SimilarityMeasure::kDiceBigram, 1.0},
      {"pn", "pn", SimilarityMeasure::kJaccardTokens, 1.0},
      {"pn", "pn", SimilarityMeasure::kJaroWinkler, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kExact, 1.0},
      {"pn", "pn", SimilarityMeasure::kLevenshtein, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kMongeElkan, 1.0},
  });
  const ItemMatcher jaro_winkler(
      {{"pn", "pn", SimilarityMeasure::kJaroWinkler, 1.0}});
  for (const ItemMatcher* matcher_ptr : {&every_record, &jaro_winkler}) {
    const ItemMatcher& matcher = *matcher_ptr;
    SCOPED_TRACE(std::to_string(matcher.rules().size()) + " rules");
    const auto side = FeatureCache::Side::kLocal;
    // The appended items hold multi-valued, duplicated, empty and missing
    // slots.
    const std::vector<core::Item> first = LocalItems();
    const std::vector<core::Item> appended = ExternalItems();
    std::vector<core::Item> both = first;
    both.insert(both.end(), appended.begin(), appended.end());
    FeatureDictionary whole_dict;
    const FeatureCache whole =
        FeatureCache::Build(both, matcher, side, &whole_dict, 1);
    ExpectRecordsFollowValues(whole, matcher);
    EXPECT_EQ(whole_dict.features(),
              FeatureDictionary::FeaturesReadBy(matcher));

    // Over a direct overlay, as a delta publish extends: the same values
    // by string.
    FeatureDictionary root;
    const FeatureCache base = FeatureCache::Build(first, matcher, side, &root);
    FeatureDictionary overlay(&root);
    const FeatureCache extended =
        FeatureCache::ExtendFrom(base, appended, matcher, side, &overlay);
    ExpectRecordsFollowValues(extended, matcher);
    ExpectSameSlots(whole, extended, /*same_ids=*/false);

    // Over the base's own root: the same ids and dictionary counts too.
    FeatureDictionary grown_dict;
    const FeatureCache grown = FeatureCache::ExtendFrom(
        FeatureCache::Build(first, matcher, side, &grown_dict), appended,
        matcher, side, &grown_dict);
    ExpectRecordsFollowValues(grown, matcher);
    ExpectSameSlots(whole, grown, /*same_ids=*/true);
    EXPECT_EQ(grown_dict.num_symbols(), whole_dict.num_symbols());
    EXPECT_EQ(grown_dict.num_values(), whole_dict.num_values());
    EXPECT_EQ(grown_dict.values_reused(), whole_dict.values_reused());

    // One item at a time into a session overlay, reusing one cache: each
    // assignment equals a build over that item alone.
    FeatureDictionary session(&root);
    FeatureCache single;
    for (const core::Item& item : both) {
      SCOPED_TRACE(item.iri);
      single.AssignSingle(item, matcher, FeatureCache::Side::kExternal,
                          &session);
      FeatureDictionary alone_dict;
      const FeatureCache alone =
          FeatureCache::Build({item}, matcher, FeatureCache::Side::kExternal,
                              &alone_dict);
      ExpectRecordsFollowValues(single, matcher);
      ExpectSameSlots(alone, single, /*same_ids=*/false);
    }
  }
}

// The distinct strings of `items`' values under `property` and, as
// `features` asks, of their tokens and bigrams: the symbols a dictionary
// built over them holds.
std::set<std::string> ExpectedSymbols(const std::vector<core::Item>& items,
                                      const std::string& property,
                                      FeatureDictionary::FeatureMask features) {
  std::set<std::string> symbols;
  for (const core::Item& item : items) {
    for (const std::string& value : item.ValuesOf(property)) {
      symbols.insert(value);
      std::vector<std::string_view> pieces;
      if ((features & FeatureDictionary::kTokens) != 0) {
        pieces = util::SplitAny(value, " \t\n\r");
      }
      if ((features & FeatureDictionary::kBigrams) != 0) {
        text::CharacterBigramViews(value, &pieces);
      }
      symbols.insert(pieces.begin(), pieces.end());
    }
  }
  return symbols;
}

TEST(FeatureDictionaryTest, BuildsOnlyTheFeaturesItsMatcherReads) {
  const std::vector<core::Item> items = LocalItems();
  const struct {
    SimilarityMeasure measure;
    FeatureDictionary::FeatureMask features;
  } kCases[] = {
      {SimilarityMeasure::kExact, 0},
      {SimilarityMeasure::kLevenshtein, 0},
      {SimilarityMeasure::kJaro, 0},
      {SimilarityMeasure::kJaroWinkler, 0},
      {SimilarityMeasure::kJaccardTokens, FeatureDictionary::kTokens},
      {SimilarityMeasure::kMongeElkan, FeatureDictionary::kTokens},
      {SimilarityMeasure::kDiceBigram, FeatureDictionary::kBigrams},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(SimilarityMeasureName(c.measure));
    const ItemMatcher matcher({{"pn", "pn", c.measure, 1.0}});
    EXPECT_EQ(FeatureDictionary::FeaturesReadBy(matcher), c.features);
    FeatureDictionary dict;
    const FeatureCache cache = FeatureCache::Build(
        items, matcher, FeatureCache::Side::kLocal, &dict, 1);
    EXPECT_EQ(dict.features(), c.features);
    EXPECT_EQ(dict.num_symbols(),
              ExpectedSymbols(items, "pn", c.features).size());
    if (c.features == 0) {
      EXPECT_EQ(dict.num_symbols(), dict.num_values());
      // Every symbol is a built value with no feature to point at, so the
      // dictionary holds its interner and nothing beside it.
      util::StringInterner interner;
      for (ValueId id = 0; id < dict.num_symbols(); ++id) {
        interner.Intern(dict.View(id));
      }
      EXPECT_EQ(dict.memory_bytes(), interner.memory_bytes());
    }
    // Features a dictionary does not build read as empty; the ones it
    // builds are there.
    for (std::size_t item = 0; item < items.size(); ++item) {
      std::size_t count = 0;
      const ValueId* ids = cache.Values(item, 0, &count);
      for (std::size_t k = 0; k < count; ++k) {
        const auto features = dict.Features(ids[k]);
        std::vector<std::string_view> grams;
        text::CharacterBigramViews(features.text, &grams);
        const std::size_t tokens =
            util::SplitAny(features.text, " \t\n\r").size();
        const bool has_tokens = (c.features & FeatureDictionary::kTokens) != 0;
        const bool has_bigrams =
            (c.features & FeatureDictionary::kBigrams) != 0;
        EXPECT_EQ(features.num_tokens, has_tokens ? tokens : 0u);
        EXPECT_EQ(features.num_bigrams, has_bigrams ? grams.size() : 0u);
      }
    }
    // An overlay builds what its base builds.
    const FeatureDictionary overlay(&dict);
    EXPECT_EQ(overlay.features(), c.features);
  }
  // A matcher reading less than the dictionary builds may share it: the
  // Jaro-Winkler cache over a Dice dictionary scores as over its own.
  const ItemMatcher dice({{"pn", "pn", SimilarityMeasure::kDiceBigram, 1.0}});
  const ItemMatcher jaro({{"pn", "pn", SimilarityMeasure::kJaroWinkler, 1.0}});
  BuiltCaches caches;
  caches.dict = std::make_unique<FeatureDictionary>();
  FeatureCache::Build(items, dice, FeatureCache::Side::kLocal,
                      caches.dict.get());
  caches.external = FeatureCache::Build(
      ExternalItems(), jaro, FeatureCache::Side::kExternal, caches.dict.get());
  caches.local = FeatureCache::Build(items, jaro, FeatureCache::Side::kLocal,
                                     caches.dict.get());
  EXPECT_EQ(caches.dict->features(), FeatureDictionary::kBigrams);
  ExpectAllPairsIdentical(ExternalItems(), items, jaro, caches);
}

TEST(FeatureDictionaryDeathTest, AMatcherReadingUnbuiltFeaturesFailsTheCheck) {
  const ItemMatcher jaro({{"pn", "pn", SimilarityMeasure::kJaroWinkler, 1.0}});
  const ItemMatcher dice({{"pn", "pn", SimilarityMeasure::kDiceBigram, 1.0}});
  const ItemMatcher monge_elkan(
      {{"mfr", "mfr", SimilarityMeasure::kMongeElkan, 1.0}});
  FeatureDictionary root;
  const FeatureCache base = FeatureCache::Build(
      LocalItems(), jaro, FeatureCache::Side::kLocal, &root);
  EXPECT_DEATH(FeatureCache::Build(ExternalItems(), dice,
                                   FeatureCache::Side::kExternal, &root),
               "does not build");
  // An overlay inherits its root's features, so neither a delta nor a
  // served query can bring a matcher that reads more.
  FeatureDictionary overlay(&root);
  FeatureCache single;
  EXPECT_DEATH(single.AssignSingle(ExternalItems()[0], monge_elkan,
                                   FeatureCache::Side::kExternal, &overlay),
               "does not build");
  EXPECT_DEATH(FeatureCache::ExtendFrom(base, ExternalItems(), dice,
                                        FeatureCache::Side::kLocal, &overlay),
               "does not build");
}

// --- The run scorer ----------------------------------------------------

const std::string kPart = datagen::props::kPartNumber;
const std::string kMaker = datagen::props::kManufacturer;
const std::string kLabel = datagen::props::kLabel;

// Every measure as a two-rule matcher, the five-rule matcher of the batch
// benchmark (bench_linking's streaming matcher) and the `rulelink serve`
// default, one Jaro-Winkler rule on the part number. Only matchers with
// three or more active rules can tell the accumulation order apart:
// IEEE addition of two terms onto 0.0 commutes.
std::vector<ItemMatcher> RunMatchers() {
  std::vector<ItemMatcher> matchers;
  for (SimilarityMeasure measure : kAllMeasures) {
    matchers.push_back(ItemMatcher(
        {{kPart, kPart, measure, 2.0}, {kMaker, kMaker, measure, 1.0}}));
  }
  matchers.push_back(ItemMatcher({
      {kPart, kPart, SimilarityMeasure::kLevenshtein, 3.0},
      {kPart, kPart, SimilarityMeasure::kDiceBigram, 1.5},
      {kPart, kPart, SimilarityMeasure::kExact, 1.0},
      {kPart, kPart, SimilarityMeasure::kJaccardTokens, 0.5},
      {kMaker, kMaker, SimilarityMeasure::kMongeElkan, 0.5},
  }));
  matchers.push_back(
      ItemMatcher({{kPart, kPart, SimilarityMeasure::kJaroWinkler, 1.0}}));
  return matchers;
}

std::string MatcherName(const ItemMatcher& matcher) {
  return std::string(SimilarityMeasureName(matcher.rules()[0].measure)) +
         ", " + std::to_string(matcher.rules().size()) + " rules";
}

// Generated catalog items and dirty provider queries, beside hand-made
// items that cover what the run scorer gathers around: multi-valued
// slots on either side (e1, l1), a duplicated value (e2), a missing
// property (e3, l5), empty and whitespace-only values (e4, l4), items
// with neither property, so every rule is inactive (e5, l6), and values
// past 64 bytes on either side (e6, l7).
struct RunCorpus {
  std::vector<core::Item> external;  // hand-made first
  std::vector<core::Item> local;     // hand-made last
  std::size_t awkward_begin = 0;     // the first hand-made local
};

RunCorpus MakeRunCorpus() {
  const std::string long_part(70, 'C');
  RunCorpus corpus;
  corpus.external = {
      MakeItem("e0", {{kPart, "CRCW0805 10K ohm"}, {kMaker, "Vishay"}}),
      MakeItem("e1",
               {{kPart, "T83-106"}, {kPart, "X-1"}, {kMaker, "ACME corp"}}),
      MakeItem("e2", {{kPart, "X-1"}, {kPart, "X-1"}, {kMaker, "acme ACME"}}),
      MakeItem("e3", {{kMaker, "Vishay"}}),
      MakeItem("e4", {{kPart, ""}, {kMaker, " \t "}}),
      MakeItem("e5", {{kLabel, "no linking property"}}),
      MakeItem("e6", {{kPart, long_part + "-1"}, {kMaker, "Vishay Dale"}}),
      MakeItem("e7", {{kPart, "a"}, {kMaker, "b"}}),
  };
  corpus.local = {
      MakeItem("l0", {{kPart, "CRCW0805 10K ohm"}, {kMaker, "Vishay"}}),
      MakeItem("l1", {{kPart, "CRCW0806 10K ohm"},
                      {kPart, "T83-106"},
                      {kMaker, "vishay"},
                      {kMaker, "ACME"}}),
      MakeItem("l2", {{kPart, "X-1"}, {kMaker, "ACME"}}),
      MakeItem("l3", {{kPart, "a b a"}, {kMaker, "b"}}),
      MakeItem("l4", {{kPart, ""}, {kMaker, ""}}),
      MakeItem("l5", {{kPart, "T83-106"}}),
      MakeItem("l6", {{kLabel, "no linking property"}}),
      MakeItem("l7", {{kPart, long_part + "0805-1 " + long_part},
                      {kMaker, "Vishay"}}),
  };

  datagen::WorkloadConfig config;
  config.seed = 42;
  config.catalog_size = 1100;
  auto catalog = datagen::GenerateWorkloadCatalog(config, 1);
  EXPECT_TRUE(catalog.ok()) << catalog.status();
  datagen::QueryStreamConfig stream_config;
  stream_config.num_queries = 12;
  stream_config.typo_prob = 0.3;
  auto stream = datagen::GenerateQueryStream(*catalog, stream_config, 1);
  EXPECT_TRUE(stream.ok()) << stream.status();
  corpus.awkward_begin = catalog->items.size();
  corpus.local.insert(corpus.local.begin(),
                      std::make_move_iterator(catalog->items.begin()),
                      std::make_move_iterator(catalog->items.end()));
  for (core::Item& item : stream->queries) {
    corpus.external.push_back(std::move(item));
  }
  return corpus;
}

// One candidate run: an external item and its local candidates.
struct CandidateRun {
  std::size_t external;
  std::vector<std::size_t> locals;
};

// Runs of 0, 1 and 2 candidates for every external item, mixing hand-made
// and generated locals, and for every fourth external one run over every
// local (over 1 000), rotated so the hand-made locals sit mid-run.
std::vector<CandidateRun> MakeRuns(const RunCorpus& corpus) {
  const std::size_t num_local = corpus.local.size();
  const std::size_t generated = corpus.awkward_begin;
  const std::size_t awkward = num_local - generated;
  std::vector<CandidateRun> runs;
  for (std::size_t e = 0; e < corpus.external.size(); ++e) {
    runs.push_back({e, {}});
    runs.push_back({e, {generated + e % awkward}});
    runs.push_back({e, {generated + (e + 3) % awkward, (e * 31) % generated}});
    if (e % 4 == 0) {
      CandidateRun all{e, std::vector<std::size_t>(num_local)};
      std::iota(all.locals.begin(), all.locals.end(), std::size_t{0});
      std::rotate(all.locals.begin(),
                  all.locals.begin() + (e * 37 + 500) % num_local,
                  all.locals.end());
      runs.push_back(std::move(all));
    }
  }
  return runs;
}

// The kernel and memo counts a per-pair loop over the raw items gives:
// kExact counts the value pairs it examines up to the first match,
// Monge-Elkan runs a kernel only for a value pair `memo_keys` has not
// seen (value-id equality is string equality), every other measure one
// kernel per value pair.
struct PairCounts {
  std::uint64_t kernels = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};

void CountPair(const ItemMatcher& matcher, const core::Item& external,
               const core::Item& local,
               std::set<std::pair<std::string, std::string>>* memo_keys,
               PairCounts* counts) {
  for (const AttributeRule& rule : matcher.rules()) {
    const auto ext = external.ValuesOf(rule.external_property);
    const auto loc = local.ValuesOf(rule.local_property);
    if (ext.empty() || loc.empty()) continue;
    bool matched = false;
    for (std::size_t i = 0; i < ext.size() && !matched; ++i) {
      for (std::size_t j = 0; j < loc.size() && !matched; ++j) {
        if (rule.measure == SimilarityMeasure::kExact) {
          ++counts->kernels;
          matched = ext[i] == loc[j];
        } else if (rule.measure == SimilarityMeasure::kMongeElkan) {
          ++counts->lookups;
          if (memo_keys->emplace(ext[i], loc[j]).second) {
            ++counts->kernels;
          } else {
            ++counts->hits;
          }
        } else {
          ++counts->kernels;
        }
      }
    }
  }
}

// Scores every run through ScoreRun and checks each score against
// ItemMatcher::Score by memcmp, and the kernel and memo counters against
// CountPair's. `external_features(e, &index)` returns the cache holding
// external item e and its index there.
void ExpectRunsMatchScore(
    const ItemMatcher& matcher, const RunCorpus& corpus,
    const std::vector<CandidateRun>& runs, const FeatureCache& local_features,
    const std::function<const FeatureCache&(std::size_t, std::size_t*)>&
        external_features) {
  ScoreMemo memo;
  ScoreRunScratch scratch;
  std::uint64_t kernels = 0;
  std::set<std::pair<std::string, std::string>> memo_keys;
  PairCounts expected;
  std::size_t pairs = 0;
  std::size_t differences = 0;
  for (const CandidateRun& run : runs) {
    std::size_t index = 0;
    const FeatureCache& external = external_features(run.external, &index);
    matcher.ScoreRun(external, index, local_features, run.locals.data(),
                     run.locals.size(), &memo, &kernels, &scratch);
    ASSERT_GE(scratch.scores.size(), run.locals.size());
    for (std::size_t i = 0; i < run.locals.size(); ++i) {
      const core::Item& ext = corpus.external[run.external];
      const core::Item& loc = corpus.local[run.locals[i]];
      const double want = matcher.Score(ext, loc);
      const double got = scratch.scores[i];
      if (std::memcmp(&got, &want, sizeof(double)) != 0 && ++differences <= 5) {
        ADD_FAILURE() << "external=" << ext.iri << " local=" << loc.iri
                      << " run length " << run.locals.size() << ": got "
                      << got << " want " << want;
      }
      CountPair(matcher, ext, loc, &memo_keys, &expected);
      ++pairs;
    }
  }
  EXPECT_EQ(differences, 0u) << "of " << pairs << " pairs";
  EXPECT_EQ(kernels, expected.kernels);
  EXPECT_EQ(memo.stats().lookups, expected.lookups);
  EXPECT_EQ(memo.stats().hits, expected.hits);
}

TEST(ScoreRunTest, MatchesScoreOverARootDictionary) {
  const RunCorpus corpus = MakeRunCorpus();
  const std::vector<CandidateRun> runs = MakeRuns(corpus);
  ASSERT_GT(corpus.local.size(), 1000u);
  for (const ItemMatcher& matcher : RunMatchers()) {
    SCOPED_TRACE(MatcherName(matcher));
    const auto caches = BuildCaches(corpus.external, corpus.local, matcher);
    ExpectRunsMatchScore(
        matcher, corpus, runs, caches.local,
        [&](std::size_t e, std::size_t* index) -> const FeatureCache& {
          *index = e;
          return caches.external;
        });
  }
}

TEST(ScoreRunTest, MatchesScoreOverAnOverlayChain) {
  // The serving engine's shape: the locals span a root dictionary and two
  // delta overlays, and each external item is assigned alone into a
  // session overlay on top, so value ids resolve through every level.
  // The hand-made locals land in the last delta.
  const RunCorpus corpus = MakeRunCorpus();
  const std::vector<CandidateRun> runs = MakeRuns(corpus);
  const auto first = corpus.local.begin();
  const std::size_t third = corpus.local.size() / 3;
  const std::vector<core::Item> root_items(first, first + third);
  const std::vector<core::Item> delta1(first + third, first + 2 * third);
  const std::vector<core::Item> delta2(first + 2 * third, corpus.local.end());
  for (const ItemMatcher& matcher : RunMatchers()) {
    SCOPED_TRACE(MatcherName(matcher));
    FeatureDictionary root;
    const FeatureCache base = FeatureCache::Build(
        root_items, matcher, FeatureCache::Side::kLocal, &root, 1);
    FeatureDictionary level1(&root);
    const FeatureCache extended1 = FeatureCache::ExtendFrom(
        base, delta1, matcher, FeatureCache::Side::kLocal, &level1);
    FeatureDictionary level2(&level1);
    const FeatureCache local = FeatureCache::ExtendFrom(
        extended1, delta2, matcher, FeatureCache::Side::kLocal, &level2);
    ASSERT_EQ(local.num_items(), corpus.local.size());
    FeatureDictionary session(&level2);
    FeatureCache query;
    ExpectRunsMatchScore(
        matcher, corpus, runs, local,
        [&](std::size_t e, std::size_t* index) -> const FeatureCache& {
          query.AssignSingle(corpus.external[e], matcher,
                             FeatureCache::Side::kExternal, &session);
          *index = 0;
          return query;
        });
    // Under a matcher that reads no token or bigram (kExact, Levenshtein,
    // Jaro, Jaro-Winkler) every level interns values only, so the chain
    // holds one symbol per built value.
    if (FeatureDictionary::FeaturesReadBy(matcher) == 0) {
      std::size_t values = 0;
      for (const FeatureDictionary* level = &session; level != nullptr;
           level = level->base()) {
        EXPECT_EQ(level->features(), 0);
        values += level->num_values();
      }
      EXPECT_EQ(session.num_symbols(), values);
    }
  }
}

}  // namespace
}  // namespace rulelink::linking
