// Differential tests for the streaming linker: StreamingLinker over a
// blocker's CandidateIndex must be byte-identical to the string-path
// oracle Linker::Run over the same blocker's materialized candidate list —
// same links, same order, same scores — at every thread count, for both
// strategies, over StandardBlocker, RuleBlocker and BuildIndex's
// materializing fallback, and under three matchers: one that engages
// every cascade filter but Jaro's, the Jaro-Winkler-only matcher
// `rulelink serve` runs (its pair counts pinned against a pair-by-pair
// reference of the Jaro bound and the running-best floor) and a
// Jaro-Winkler-heavy mix of cached measures. The filter cascade is
// additionally checked directly: a pruned pair's real score must sit
// below the threshold, i.e. the bounds are sound, never heuristic.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/rule_blocker.h"
#include "blocking/standard_blocking.h"
#include "core/learner.h"
#include "datagen/generator.h"
#include "linking/evaluation.h"
#include "linking/feature_cache.h"
#include "linking/filters.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/streaming_linker.h"
#include "text/segmenter.h"
#include "text/similarity.h"
#include "util/logging.h"

namespace rulelink {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr double kThreshold = 0.6;

datagen::DatasetConfig DifferentialConfig(std::uint64_t seed) {
  datagen::DatasetConfig config;
  config.seed = seed;
  config.num_classes = 50;
  config.num_leaves = 20;
  config.catalog_size = 700;
  config.num_links = 320;
  config.num_signal_classes = 5;
  config.num_other_frequent_classes = 5;
  config.signal_class_min_links = 20;
  config.signal_class_max_links = 40;
  config.frequent_class_min_links = 6;
  config.frequent_class_max_links = 11;
  config.tail_class_cap_links = 4;
  return config;
}

const datagen::Dataset& GetCorpus(std::uint64_t seed) {
  static std::map<std::uint64_t, std::unique_ptr<datagen::Dataset>>* cache =
      new std::map<std::uint64_t, std::unique_ptr<datagen::Dataset>>();
  auto it = cache->find(seed);
  if (it == cache->end()) {
    auto dataset =
        datagen::DatasetGenerator(DifferentialConfig(seed)).Generate();
    RL_CHECK(dataset.ok()) << dataset.status();
    it = cache
             ->emplace(seed, std::make_unique<datagen::Dataset>(
                                 std::move(dataset).value()))
             .first;
  }
  return *it->second;
}

// Exercises every filter in the cascade at once: a Levenshtein rule
// (length bound + capped probe), Jaccard and Dice (count bounds), kExact
// (id short-circuit), plus Monge-Elkan as an unboundable measure the
// cascade must treat optimistically.
linking::ItemMatcher FilteredMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kLevenshtein, 2.5},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaccardTokens, 1.5},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kDiceBigram, 1.0},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kExact, 0.5},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kMongeElkan, 0.5},
  });
}

// The matcher `rulelink serve` builds by default: Jaro-Winkler on the
// blocking key alone. The cascade bounds it from the signature lanes and
// the memo does not serve it.
linking::ItemMatcher ServeDefaultMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaroWinkler, 1.0},
  });
}

// Token sort-merge and character measures on the part number, exact and
// Monge-Elkan (ordered float summation) on the manufacturer, whose values
// repeat across the catalog and feed the memo.
linking::ItemMatcher MixedMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaroWinkler, 3.0},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaccardTokens, 1.5},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kDiceBigram, 1.0},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kExact, 0.5},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kMongeElkan, 0.5},
  });
}

struct Caches {
  linking::FeatureDictionary dict;
  linking::FeatureCache external;
  linking::FeatureCache local;

  Caches(const datagen::Dataset& dataset,
         const linking::ItemMatcher& matcher, std::size_t num_threads) {
    external = linking::FeatureCache::Build(
        dataset.external_items, matcher,
        linking::FeatureCache::Side::kExternal, &dict, num_threads);
    local = linking::FeatureCache::Build(
        dataset.catalog_items, matcher, linking::FeatureCache::Side::kLocal,
        &dict, num_threads);
  }
};

void ExpectLinksIdentical(const std::vector<linking::Link>& actual,
                          const std::vector<linking::Link>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].external_index, expected[i].external_index) << i;
    EXPECT_EQ(actual[i].local_index, expected[i].local_index) << i;
    // Bit-identical scores, not approximately equal.
    EXPECT_EQ(actual[i].score, expected[i].score) << i;
  }
}

// What StreamingLinker must count over a candidate index.
struct PairCounts {
  std::size_t scored = 0;
  std::size_t pruned = 0;
  std::uint64_t kernels = 0;
};

// The cascade's stage-A bound on a pair under a matcher of Jaro and
// Jaro-Winkler rules, as PairwiseCascade in
// filter_batch_differential_test.cc computes it: each active rule's
// signature bound over the value cross product, weighted and renormalized
// in rule order; 0.0 when every rule is inactive.
double JaroBound(const linking::ItemMatcher& matcher,
                 const core::Item& external, const core::Item& local) {
  double bound_sum = 0.0;
  double weight_total = 0.0;
  for (const linking::AttributeRule& rule : matcher.rules()) {
    const bool winkler =
        rule.measure == linking::SimilarityMeasure::kJaroWinkler;
    RL_CHECK(winkler || rule.measure == linking::SimilarityMeasure::kJaro);
    const auto ext_values = external.ValuesOf(rule.external_property);
    const auto local_values = local.ValuesOf(rule.local_property);
    if (ext_values.empty() || local_values.empty()) continue;
    double best = 0.0;
    for (const std::string& a : ext_values) {
      for (const std::string& b : local_values) {
        std::uint8_t sig_a[text::kSignatureBytes];
        std::uint8_t sig_b[text::kSignatureBytes];
        text::ByteSignature(a, sig_a);
        text::ByteSignature(b, sig_b);
        double pair =
            text::JaroSignatureBound(sig_a, a.size(), sig_b, b.size());
        if (winkler) {
          pair = text::JaroWinklerSignatureBound(
              pair, text::JaroPrefixBytes(a), a.size(),
              text::JaroPrefixBytes(b), b.size());
        }
        best = std::max(best, pair);
      }
    }
    bound_sum += rule.weight * best;
    weight_total += rule.weight;
  }
  return weight_total == 0.0 ? 0.0 : bound_sum / weight_total;
}

// The pair counts derived pair by pair for a matcher of Jaro plans: a pair
// whose JaroBound is below the threshold is pruned. Under
// kBestPerExternal the survivor with the highest bound (the earliest on
// ties) is scored with ItemMatcher::Score, and every other survivor whose
// bound is below that score, or equal to it from a later run position, is
// pruned too; the rest are scored. Kernels are Score's.
PairCounts ReferenceCounts(const datagen::Dataset& dataset,
                           const linking::ItemMatcher& matcher,
                           const blocking::CandidateIndex& index,
                           linking::Linker::Strategy strategy) {
  PairCounts counts;
  std::vector<std::size_t> run;
  std::vector<double> bounds;
  std::vector<std::size_t> survivors;  // run positions
  for (std::size_t e = 0; e < index.num_external(); ++e) {
    const core::Item& external = dataset.external_items[e];
    index.CandidatesOf(e, &run);
    bounds.clear();
    survivors.clear();
    for (std::size_t i = 0; i < run.size(); ++i) {
      bounds.push_back(
          JaroBound(matcher, external, dataset.catalog_items[run[i]]));
      if (bounds[i] < kThreshold) {
        ++counts.pruned;
      } else {
        survivors.push_back(i);
      }
    }
    const auto score = [&](std::size_t i) {
      ++counts.scored;
      return matcher.Score(external, dataset.catalog_items[run[i]],
                           &counts.kernels);
    };
    if (strategy == linking::Linker::Strategy::kAllAboveThreshold) {
      for (const std::size_t i : survivors) score(i);
      continue;
    }
    if (survivors.empty()) continue;
    std::size_t seed = survivors[0];
    for (const std::size_t i : survivors) {
      if (bounds[i] > bounds[seed]) seed = i;
    }
    const double seed_score = score(seed);
    for (const std::size_t i : survivors) {
      if (i == seed) continue;
      if (bounds[i] > seed_score || (bounds[i] == seed_score && i < seed)) {
        score(i);
      } else {
        ++counts.pruned;
      }
    }
  }
  return counts;
}

// Runs the streaming linker against the Linker::Run oracle over the same
// generator, for both strategies and every thread count, and checks that
// the thread-invariant stats really are invariant. `reference_counts`
// pins the pair counts of a matcher of Jaro plans to ReferenceCounts.
void RunDifferential(const datagen::Dataset& dataset,
                     const linking::ItemMatcher& matcher,
                     const blocking::CandidateGenerator& generator,
                     bool reference_counts = false) {
  const auto candidates =
      generator.Generate(dataset.external_items, dataset.catalog_items);
  ASSERT_GT(candidates.size(), 0u);
  const auto index =
      generator.BuildIndex(dataset.external_items, dataset.catalog_items);
  ASSERT_EQ(index->num_external(), dataset.external_items.size());
  // The score memo serves Monge-Elkan rules only.
  const bool memoized = std::any_of(
      matcher.rules().begin(), matcher.rules().end(),
      [](const linking::AttributeRule& rule) {
        return rule.measure == linking::SimilarityMeasure::kMongeElkan;
      });

  for (linking::Linker::Strategy strategy :
       {linking::Linker::Strategy::kBestPerExternal,
        linking::Linker::Strategy::kAllAboveThreshold}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    const linking::Linker oracle(&matcher, kThreshold, strategy);
    const linking::StreamingLinker streaming(&matcher, kThreshold, strategy);
    linking::LinkerStats ref_stats;
    const auto reference =
        oracle.Run(dataset.external_items, dataset.catalog_items, candidates,
                   &ref_stats, /*num_threads=*/1);
    ASSERT_GT(reference.size(), 0u);
    const PairCounts expected =
        reference_counts ? ReferenceCounts(dataset, matcher, *index, strategy)
                         : PairCounts();

    linking::LinkerStats serial_stats;
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(threads);
      // Caches are rebuilt per thread count on purpose: the build takes
      // the thread count too, and neither it nor the links may depend on
      // it.
      const Caches caches(dataset, matcher, threads);
      linking::LinkerStats stats;
      linking::ScoreMemoStats memo;
      const auto links =
          streaming.Run(*index, caches.external, caches.local, &stats,
                        threads, &memo);
      ExpectLinksIdentical(links, reference);
      EXPECT_EQ(stats.links_emitted, ref_stats.links_emitted);
      // Every candidate was scored, pruned by a bound below the
      // threshold, or (kBestPerExternal only) dropped by the running-best
      // floor because its bound cannot beat the seed's score or only ties
      // it from a later run position; nothing is dropped silently.
      EXPECT_EQ(stats.pairs_scored + stats.pairs_pruned_by_filter,
                candidates.size());
      EXPECT_LE(stats.pairs_scored, ref_stats.pairs_scored);
      // Memo hits are replays, not computations, so the streaming path
      // runs at most as many kernels as the string path.
      EXPECT_GT(stats.comparisons, 0u);
      EXPECT_LE(stats.comparisons, ref_stats.comparisons);
      EXPECT_LE(memo.hits, memo.lookups);
      if (memoized) {
        EXPECT_GT(memo.lookups, 0u);
      } else {
        EXPECT_EQ(memo.lookups, 0u);
      }
      if (reference_counts) {
        EXPECT_EQ(stats.pairs_scored, expected.scored);
        EXPECT_EQ(stats.pairs_pruned_by_filter, expected.pruned);
        EXPECT_EQ(stats.comparisons, expected.kernels);
      }
      // The running-best floor serves kBestPerExternal only.
      if (strategy == linking::Linker::Strategy::kAllAboveThreshold) {
        EXPECT_EQ(stats.pruned_by_running_best, 0u);
      } else {
        EXPECT_GT(stats.pruned_by_running_best, 0u);
      }
      EXPECT_GT(stats.peak_candidate_run, 0u);
      EXPECT_LE(stats.peak_candidate_run, dataset.catalog_items.size());
      if (threads == kThreadCounts[0]) {
        serial_stats = stats;
      } else {
        // The cascade's decisions are per-pair, so every prune counter is
        // thread-count invariant (only memo-dependent `comparisons` may
        // vary across thread counts).
        EXPECT_EQ(stats.pairs_scored, serial_stats.pairs_scored);
        EXPECT_EQ(stats.pairs_pruned_by_filter,
                  serial_stats.pairs_pruned_by_filter);
        EXPECT_EQ(stats.pruned_by_length, serial_stats.pruned_by_length);
        EXPECT_EQ(stats.pruned_by_token_count,
                  serial_stats.pruned_by_token_count);
        EXPECT_EQ(stats.pruned_by_exact, serial_stats.pruned_by_exact);
        EXPECT_EQ(stats.pruned_by_distance_cap,
                  serial_stats.pruned_by_distance_cap);
        EXPECT_EQ(stats.pruned_by_jaro, serial_stats.pruned_by_jaro);
        EXPECT_EQ(stats.pruned_by_running_best,
                  serial_stats.pruned_by_running_best);
        EXPECT_EQ(stats.peak_candidate_run, serial_stats.peak_candidate_run);
      }
    }
  }
}

class StreamingLinkerDifferential
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const datagen::Dataset& corpus() const { return GetCorpus(GetParam()); }
};

TEST_P(StreamingLinkerDifferential, MatchesOracleOverStandardBlocker) {
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  RunDifferential(corpus(), FilteredMatcher(), blocker);
}

TEST_P(StreamingLinkerDifferential, MatchesOracleOverRuleBlocker) {
  const datagen::Dataset& dataset = corpus();
  const core::TrainingSet ts = datagen::BuildTrainingSet(dataset);
  const text::SeparatorSegmenter segmenter;

  core::LearnerOptions options;
  options.support_threshold = 0.01;
  options.segmenter = &segmenter;
  options.num_threads = 1;
  auto rules = core::RuleLearner(options).Learn(ts);
  ASSERT_TRUE(rules.ok()) << rules.status();
  const core::RuleClassifier classifier(&*rules, &segmenter);
  const blocking::RuleBlocker blocker(&classifier, &dataset.ontology(),
                                      &dataset.catalog_classes,
                                      /*min_confidence=*/0.4);
  RunDifferential(dataset, FilteredMatcher(), blocker);
}

TEST_P(StreamingLinkerDifferential, MatchesOverDefaultMaterializedIndex) {
  // A generator without an item index (BuildItemIndex null) exercises
  // BuildIndex's CSR materialization of Generate.
  class PlainGenerator : public blocking::CandidateGenerator {
   public:
    std::vector<blocking::CandidatePair> Generate(
        const std::vector<core::Item>& external,
        const std::vector<core::Item>& local) const override {
      return inner_.Generate(external, local);
    }
    std::string name() const override { return "plain"; }

   private:
    blocking::StandardBlocker inner_{datagen::props::kPartNumber, 3};
  };
  RunDifferential(corpus(), FilteredMatcher(), PlainGenerator());
}

TEST_P(StreamingLinkerDifferential, MatchesOracleUnderServeDefaultMatcher) {
  // Jaro-Winkler runs unmemoized, so every pair that reaches the scorer
  // runs its kernel: pairs scored, pairs pruned and kernels all follow
  // from the Jaro bound and the running-best floor, pair by pair.
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  RunDifferential(corpus(), ServeDefaultMatcher(), blocker,
                  /*reference_counts=*/true);
}

TEST_P(StreamingLinkerDifferential, MatchesOracleUnderMixedMatcher) {
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  RunDifferential(corpus(), MixedMatcher(), blocker);
}

TEST_P(StreamingLinkerDifferential, CascadeNeverPrunesAThresholdPair) {
  // Soundness, checked against ground truth: every pair PruneBatch prunes
  // from a candidate run must score strictly below the threshold under
  // ItemMatcher::Score on the raw items, and every pair's stage-A bound
  // must be at least that score (the running-best floor compares it with
  // scores). Under the five-kind matcher, and under the serve default's
  // Jaro bound over manufacturer blocks: part-number blocks share a
  // 3-byte prefix, which keeps every Jaro-Winkler bound above 0.6.
  const datagen::Dataset& dataset = corpus();
  const blocking::StandardBlocker part_blocker(datagen::props::kPartNumber,
                                               /*prefix_length=*/3);
  const blocking::StandardBlocker mfr_blocker(datagen::props::kManufacturer,
                                              /*prefix_length=*/3);
  const linking::ItemMatcher filtered = FilteredMatcher();
  const linking::ItemMatcher serve = ServeDefaultMatcher();
  for (const auto& [matcher, blocker] :
       {std::pair{&filtered, &part_blocker}, std::pair{&serve, &mfr_blocker}}) {
    SCOPED_TRACE(linking::SimilarityMeasureName(matcher->rules()[0].measure));
    const auto index =
        blocker->BuildIndex(dataset.external_items, dataset.catalog_items);
    const Caches caches(dataset, *matcher, /*num_threads=*/1);
    const linking::FilterCascade cascade(matcher, kThreshold);

    linking::FilterStats stats;
    linking::FilterBatchScratch scratch;
    std::vector<std::size_t> run;
    std::size_t pruned = 0;
    for (std::size_t e = 0; e < index->num_external(); ++e) {
      index->CandidatesOf(e, &run);
      cascade.PruneBatch(caches.external, e, caches.local, run.data(),
                         run.size(), &stats, &scratch);
      for (std::size_t i = 0; i < run.size(); ++i) {
        const double score = matcher->Score(dataset.external_items[e],
                                            dataset.catalog_items[run[i]]);
        ASSERT_GE(scratch.bound[i], score)
            << "pair (" << e << ", " << run[i] << ") scores above its bound";
        if (scratch.pruned[i] == 0) continue;
        ++pruned;
        ASSERT_LT(score, kThreshold)
            << "pruned pair (" << e << ", " << run[i]
            << ") actually reaches the threshold";
      }
    }
    EXPECT_EQ(stats.pairs_pruned, pruned);
    // The corpus is adversarial enough that the cascade must catch
    // something, and the per-filter counters attribute every prune.
    EXPECT_GT(pruned, 0u);
    EXPECT_GE(stats.by_length + stats.by_token_count + stats.by_exact +
                  stats.by_distance_cap + stats.by_jaro,
              stats.pairs_pruned);
  }
}

TEST_P(StreamingLinkerDifferential, StreamingPipelineMatchesOracle) {
  const datagen::Dataset& dataset = corpus();
  const linking::ItemMatcher matcher = FilteredMatcher();
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  const auto candidates =
      blocker.Generate(dataset.external_items, dataset.catalog_items);
  const linking::Linker oracle(&matcher, kThreshold);
  const auto reference =
      oracle.Run(dataset.external_items, dataset.catalog_items, candidates,
                 nullptr, /*num_threads=*/1);
  std::vector<blocking::CandidatePair> gold;
  for (const datagen::GoldLink& link : dataset.links) {
    gold.push_back({link.external_index, link.catalog_index});
  }
  const linking::LinkageQuality ref_quality =
      linking::EvaluateLinks(reference, gold);
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    const auto result = linking::RunStreamingLinkagePipeline(
        dataset.external_items, dataset.catalog_items, blocker, matcher,
        kThreshold, linking::Linker::Strategy::kBestPerExternal, &gold,
        threads);
    ExpectLinksIdentical(result.links, reference);
    EXPECT_EQ(result.num_candidates, candidates.size());
    EXPECT_GT(result.distinct_values, 0u);
    EXPECT_GE(result.dictionary_symbols, result.distinct_values);
    EXPECT_GT(result.dictionary_bytes, 0u);
    // The quality numbers come from the same links, so they match the
    // oracle's evaluation exactly.
    EXPECT_EQ(result.quality.correct, ref_quality.correct);
    EXPECT_EQ(result.quality.precision, ref_quality.precision);
    EXPECT_EQ(result.quality.recall, ref_quality.recall);
    EXPECT_EQ(result.quality.f1, ref_quality.f1);
  }
}

// The running-best floor's tie rule, on a run built so the seed (the
// highest bound) scores exactly what another candidate's exact bound
// allows. Against "ABCD", a Levenshtein rule bounds "ABDC" at 1.0 (the
// same bytes, so a bag distance of 0: the seed) but scores it 0.5, and
// bounds "AB" at exactly its score, 0.5. Equal scores go to the earlier
// local, as in Linker::Run: before the seed, "AB" must still be scored
// and win; after it, it cannot win and is dropped unscored.
TEST(StreamingLinkerTieTest, RunningBestKeepsOnlyEarlierTies) {
  const std::string part = datagen::props::kPartNumber;
  const linking::ItemMatcher matcher(
      {{part, part, linking::SimilarityMeasure::kLevenshtein, 1.0}});
  const auto item = [&](const char* value) {
    return core::Item{value, {{part, value}}};
  };
  const std::vector<core::Item> external = {item("ABCD")};
  const blocking::CartesianBlocker blocker;
  for (const bool tie_first : {true, false}) {
    SCOPED_TRACE(tie_first);
    const std::vector<core::Item> local =
        tie_first ? std::vector<core::Item>{item("AB"), item("ABDC")}
                  : std::vector<core::Item>{item("ABDC"), item("AB")};
    const auto reference =
        linking::Linker(&matcher, 0.5)
            .Run(external, local, blocker.Generate(external, local));
    ASSERT_EQ(reference.size(), 1u);
    EXPECT_EQ(reference[0].local_index, 0u);

    linking::FeatureDictionary dict;
    const auto external_features = linking::FeatureCache::Build(
        external, matcher, linking::FeatureCache::Side::kExternal, &dict);
    const auto local_features = linking::FeatureCache::Build(
        local, matcher, linking::FeatureCache::Side::kLocal, &dict);
    linking::LinkerStats stats;
    const auto links = linking::StreamingLinker(&matcher, 0.5).Run(
        *blocker.BuildIndex(external, local), external_features,
        local_features, &stats, /*num_threads=*/1);
    ExpectLinksIdentical(links, reference);
    EXPECT_EQ(stats.pairs_scored, tie_first ? 2u : 1u);
    EXPECT_EQ(stats.pruned_by_running_best, tie_first ? 0u : 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingLinkerDifferential,
                         ::testing::Values(23, 509, 8089));

}  // namespace
}  // namespace rulelink
