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

// The signature-lane bytes of `cache`'s slot `slot` (empty when the cache
// has no signature lane), and its Jaro prefix word (0 without that lane).
std::string_view SignatureLane(const FeatureCache& cache, std::size_t slot) {
  if (cache.lane_signatures() == nullptr) return {};
  return {reinterpret_cast<const char*>(cache.lane_signatures()) +
              slot * text::kSignatureBytes,
          text::kSignatureBytes};
}
std::uint32_t PrefixLane(const FeatureCache& cache, std::size_t slot) {
  return cache.lane_jaro_prefixes() == nullptr
             ? 0
             : cache.lane_jaro_prefixes()[slot];
}

// Asserts `got` holds the slots of `want`: per slot the same values, by
// string (and by id when `same_ids`), and the same lanes.
void ExpectSameSlots(const FeatureCache& want, const FeatureCache& got,
                     bool same_ids) {
  ASSERT_EQ(got.num_items(), want.num_items());
  ASSERT_EQ(got.num_rules(), want.num_rules());
  const auto same_value = [&](ValueId w, ValueId g) {
    if (same_ids || w == util::kInvalidSymbolId ||
        g == util::kInvalidSymbolId) {
      return w == g;
    }
    return want.dict().View(w) == got.dict().View(g);
  };
  std::size_t differences = 0;
  for (std::size_t item = 0; item < want.num_items(); ++item) {
    for (std::size_t rule = 0; rule < want.num_rules(); ++rule) {
      const std::size_t slot = item * want.num_rules() + rule;
      std::size_t want_count = 0;
      std::size_t got_count = 0;
      const ValueId* want_ids = want.Values(item, rule, &want_count);
      const ValueId* got_ids = got.Values(item, rule, &got_count);
      bool same = want_count == got_count;
      for (std::size_t k = 0; same && k < want_count; ++k) {
        same = same_value(want_ids[k], got_ids[k]);
      }
      same = same &&
             want.lane_byte_lengths()[slot] == got.lane_byte_lengths()[slot] &&
             want.lane_unique_tokens()[slot] ==
                 got.lane_unique_tokens()[slot] &&
             want.lane_bigrams()[slot] == got.lane_bigrams()[slot] &&
             same_value(want.lane_value_ids()[slot],
                        got.lane_value_ids()[slot]) &&
             SignatureLane(want, slot) == SignatureLane(got, slot) &&
             PrefixLane(want, slot) == PrefixLane(got, slot);
      if (!same && ++differences <= 5) {
        ADD_FAILURE() << "item " << item << " rule " << rule << " differs";
      }
    }
  }
  EXPECT_EQ(differences, 0u);
}

// Asserts every slot's lanes follow its values: a single-valued slot
// carries that value's byte length, unique-token and bigram counts, id,
// its count signature for the slot's rule (zeros under a rule without
// one) and its Jaro prefix; a missing or multi-valued slot carries zeros
// and an invalid id. The signature lane exists exactly when some rule of
// `matcher` has a signature, the prefix lane when some rule is Jaro or
// Jaro-Winkler.
void ExpectLanesFollowValues(const FeatureCache& cache,
                             const ItemMatcher& matcher) {
  bool any_signature = false;
  bool any_jaro = false;
  std::uint8_t unused[text::kSignatureBytes];
  for (const AttributeRule& rule : matcher.rules()) {
    any_signature |= linking::SlotSignature(rule.measure, "", unused);
    any_jaro |= rule.measure == SimilarityMeasure::kJaro ||
                rule.measure == SimilarityMeasure::kJaroWinkler;
  }
  EXPECT_EQ(cache.lane_signatures() != nullptr, any_signature);
  EXPECT_EQ(cache.lane_jaro_prefixes() != nullptr, any_jaro);
  std::size_t differences = 0;
  for (std::size_t item = 0; item < cache.num_items(); ++item) {
    for (std::size_t rule = 0; rule < cache.num_rules(); ++rule) {
      const std::size_t slot = item * cache.num_rules() + rule;
      std::size_t count = 0;
      const ValueId* ids = cache.Values(item, rule, &count);
      std::uint32_t length = 0;
      std::uint32_t unique_tokens = 0;
      std::uint32_t bigrams = 0;
      ValueId id = util::kInvalidSymbolId;
      std::uint8_t signature[text::kSignatureBytes] = {};
      std::uint32_t prefix = 0;
      if (count == 1) {
        const auto features = cache.dict().Features(ids[0]);
        length = static_cast<std::uint32_t>(features.text.size());
        unique_tokens = features.num_unique_tokens;
        bigrams = features.num_bigrams;
        id = ids[0];
        linking::SlotSignature(matcher.rules()[rule].measure, features.text,
                               signature);
        if (any_jaro) prefix = text::JaroPrefixBytes(features.text);
      }
      const std::string_view want_signature =
          any_signature
              ? std::string_view(reinterpret_cast<const char*>(signature),
                                 text::kSignatureBytes)
              : std::string_view();
      if ((cache.lane_byte_lengths()[slot] != length ||
           cache.lane_unique_tokens()[slot] != unique_tokens ||
           cache.lane_bigrams()[slot] != bigrams ||
           cache.lane_value_ids()[slot] != id ||
           SignatureLane(cache, slot) != want_signature ||
           PrefixLane(cache, slot) != prefix) &&
          ++differences <= 5) {
        ADD_FAILURE() << "item " << item << " rule " << rule << " ("
                      << count << " values): lanes do not follow them";
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
  // The build is serial at every thread count: the same ids, lanes and
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
  // Every kind of signature lane slot: bigram, token-set and byte
  // signatures, the Jaro prefix, and a rule without a signature.
  const ItemMatcher matcher({
      {"pn", "pn", SimilarityMeasure::kDiceBigram, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kJaccardTokens, 1.0},
      {"pn", "pn", SimilarityMeasure::kJaroWinkler, 1.0},
      {"mfr", "mfr", SimilarityMeasure::kExact, 1.0},
  });
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
  ExpectLanesFollowValues(whole, matcher);

  // Over a direct overlay, as a delta publish extends: the same values by
  // string.
  FeatureDictionary root;
  const FeatureCache base = FeatureCache::Build(first, matcher, side, &root);
  FeatureDictionary overlay(&root);
  const FeatureCache extended =
      FeatureCache::ExtendFrom(base, appended, matcher, side, &overlay);
  ExpectLanesFollowValues(extended, matcher);
  ExpectSameSlots(whole, extended, /*same_ids=*/false);

  // Over the base's own root: the same ids and dictionary counts too.
  FeatureDictionary grown_dict;
  const FeatureCache grown = FeatureCache::ExtendFrom(
      FeatureCache::Build(first, matcher, side, &grown_dict), appended,
      matcher, side, &grown_dict);
  ExpectLanesFollowValues(grown, matcher);
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
    ExpectLanesFollowValues(single, matcher);
    ExpectSameSlots(alone, single, /*same_ids=*/false);
  }
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
  }
}

}  // namespace
}  // namespace rulelink::linking
