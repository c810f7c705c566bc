// Differential tests for the streaming linker: StreamingLinker over a
// blocker's CandidateIndex must be byte-identical to the string-path
// oracle Linker::Run over the same blocker's materialized candidate list —
// same links, same order, same scores — at every thread count, for both
// strategies, over StandardBlocker, RuleBlocker and the default
// (materializing) BuildIndex, and under three matchers: one that engages
// every cascade filter, the Jaro-Winkler-only matcher `rulelink serve`
// runs (every plan optimistic, so nothing is pruned) and a Jaro-Winkler-
// heavy mix of cached measures. The filter cascade is additionally
// checked directly: a pruned pair's real score must sit below the
// threshold, i.e. the bounds are sound, never heuristic.
#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

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
// blocking key alone. The cascade has no bound for it and the memo does
// not serve it, so every pair reaches the kernel.
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

// Runs the streaming linker against the Linker::Run oracle over the same
// generator, for both strategies and every thread count, and checks that
// the thread-invariant stats really are invariant. `every_pair_scored`
// pins a matcher the cascade cannot bound and the memo does not serve.
void RunDifferential(const datagen::Dataset& dataset,
                     const linking::ItemMatcher& matcher,
                     const blocking::CandidateGenerator& generator,
                     bool every_pair_scored = false) {
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
      // Every candidate either reached the scorer or was pruned by a
      // provably-below-threshold bound; nothing is dropped silently.
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
      if (every_pair_scored) {
        // Nothing pruned and nothing replayed: exactly the string path's
        // kernels.
        EXPECT_EQ(stats.pairs_pruned_by_filter, 0u);
        EXPECT_EQ(stats.comparisons, ref_stats.comparisons);
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
  // A generator that does not override BuildIndex exercises the base
  // class's CSR materialization path.
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
  // Every plan is kOptimistic and every candidate shares the blocking key,
  // so the cascade prunes nothing; Jaro-Winkler runs unmemoized, so the
  // whole candidate space reaches the kernel.
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  RunDifferential(corpus(), ServeDefaultMatcher(), blocker,
                  /*every_pair_scored=*/true);
}

TEST_P(StreamingLinkerDifferential, MatchesOracleUnderMixedMatcher) {
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  RunDifferential(corpus(), MixedMatcher(), blocker);
}

TEST_P(StreamingLinkerDifferential, CascadeNeverPrunesAThresholdPair) {
  // Soundness, checked against ground truth: every pair PruneBatch prunes
  // from a candidate run must score strictly below the threshold under
  // ItemMatcher::Score on the raw items.
  const datagen::Dataset& dataset = corpus();
  const linking::ItemMatcher matcher = FilteredMatcher();
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  const auto index =
      blocker.BuildIndex(dataset.external_items, dataset.catalog_items);
  const Caches caches(dataset, matcher, /*num_threads=*/1);
  const linking::FilterCascade cascade(&matcher, kThreshold);

  linking::FilterStats stats;
  linking::FilterBatchScratch scratch;
  std::vector<std::size_t> run;
  std::size_t pruned = 0;
  for (std::size_t e = 0; e < index->num_external(); ++e) {
    index->CandidatesOf(e, &run);
    cascade.PruneBatch(caches.external, e, caches.local, run.data(),
                       run.size(), &stats, &scratch);
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (scratch.pruned[i] == 0) continue;
      ++pruned;
      const double score = matcher.Score(dataset.external_items[e],
                                         dataset.catalog_items[run[i]]);
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
                stats.by_distance_cap,
            stats.pairs_pruned);
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

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingLinkerDifferential,
                         ::testing::Values(23, 509, 8089));

}  // namespace
}  // namespace rulelink
