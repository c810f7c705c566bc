// Forced-stealing differential tests for the morsel scheduler: with the
// morsel size forced to 1 item, every loop degenerates into n single-item
// slots and the per-worker deques steal constantly — the worst case for
// the determinism contract. Under that regime the learner must still be
// byte-identical to its serial path, and streaming linking (feature-cache
// build included) to the serial string-path oracle Linker::Run, at
// threads {2, 3, 8}, with skewed per-item workloads thrown in at the raw
// ParallelFor level to push slots across participants.
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/standard_blocking.h"
#include "core/learner.h"
#include "datagen/generator.h"
#include "linking/feature_cache.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/streaming_linker.h"
#include "text/segmenter.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rulelink {
namespace {

constexpr std::size_t kThreadCounts[] = {2, 3, 8};
constexpr double kThreshold = 0.6;

datagen::DatasetConfig SmallConfig(std::uint64_t seed) {
  datagen::DatasetConfig config;
  config.seed = seed;
  config.num_classes = 40;
  config.num_leaves = 16;
  config.catalog_size = 400;
  config.num_links = 180;
  config.num_signal_classes = 4;
  config.num_other_frequent_classes = 4;
  config.signal_class_min_links = 15;
  config.signal_class_max_links = 30;
  config.frequent_class_min_links = 5;
  config.frequent_class_max_links = 9;
  config.tail_class_cap_links = 3;
  return config;
}

const datagen::Dataset& GetCorpus(std::uint64_t seed) {
  static std::map<std::uint64_t, std::unique_ptr<datagen::Dataset>>* cache =
      new std::map<std::uint64_t, std::unique_ptr<datagen::Dataset>>();
  auto it = cache->find(seed);
  if (it == cache->end()) {
    auto dataset = datagen::DatasetGenerator(SmallConfig(seed)).Generate();
    RL_CHECK(dataset.ok()) << dataset.status();
    it = cache
             ->emplace(seed, std::make_unique<datagen::Dataset>(
                                 std::move(dataset).value()))
             .first;
  }
  return *it->second;
}

linking::ItemMatcher Matcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kLevenshtein, 2.0},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaccardTokens, 1.0},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kExact, 0.5},
  });
}

void ExpectLinksIdentical(const std::vector<linking::Link>& actual,
                          const std::vector<linking::Link>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].external_index, expected[i].external_index) << i;
    EXPECT_EQ(actual[i].local_index, expected[i].local_index) << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << i;
  }
}

class MorselDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const datagen::Dataset& corpus() const { return GetCorpus(GetParam()); }
};

TEST_P(MorselDifferential, SkewedWorkloadStaysDeterministicAndSteals) {
  // Raw scheduler property: per-item costs spanning two orders of
  // magnitude, 1-item morsels, a deterministic per-slot product merged in
  // slot order. The merged result must match the serial loop exactly and
  // the skew must actually provoke steals.
  constexpr std::size_t kItems = 300;
  const auto work = [](std::size_t i) {
    // Busy work proportional to a skewed profile (heavy head).
    const std::size_t spin = (i % 7 == 0) ? 4000 : 40;
    std::uint64_t acc = i + 1;
    for (std::size_t k = 0; k < spin; ++k) acc = acc * 6364136223846793005ULL + 1;
    return acc;
  };
  std::vector<std::uint64_t> serial(kItems);
  for (std::size_t i = 0; i < kItems; ++i) serial[i] = work(i);

  util::ScopedMorselItems force(1);
  util::ThreadPool pool(8);
  const util::SchedulerTotals before = pool.Stats().Totals();
  std::atomic<std::size_t> slot_mismatches{0};
  for (int repeat = 0; repeat < 5; ++repeat) {
    std::vector<std::uint64_t> parallel(kItems);
    pool.ParallelFor(kItems,
                     [&](std::size_t slot, std::size_t begin,
                         std::size_t end) {
                       if (slot != begin) ++slot_mismatches;  // 1-item morsels
                       for (std::size_t i = begin; i < end; ++i) {
                         parallel[i] = work(i);
                       }
                     });
    EXPECT_EQ(parallel, serial);
  }
  EXPECT_EQ(slot_mismatches.load(), 0u);
  const util::SchedulerTotals delta = pool.Stats().Totals().Minus(before);
  EXPECT_EQ(delta.morsels, 5u * kItems);
  // 8 participants × 300 one-item slots × 5 rounds: stealing must fire.
  EXPECT_GT(delta.steals, 0u);
}

TEST_P(MorselDifferential, LearnerIsByteIdenticalUnderForcedStealing) {
  const datagen::Dataset& dataset = corpus();
  const core::TrainingSet ts = datagen::BuildTrainingSet(dataset);
  const text::SeparatorSegmenter segmenter;
  const auto options = [&](std::size_t threads) {
    core::LearnerOptions o;
    o.support_threshold = 0.01;
    o.segmenter = &segmenter;
    o.num_threads = threads;
    return o;
  };
  const auto serial = core::RuleLearner(options(1)).Learn(ts);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->size(), 0u);

  util::ScopedMorselItems force(1);
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    const auto parallel = core::RuleLearner(options(threads)).Learn(ts);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(parallel->size(), serial->size());
    for (std::size_t i = 0; i < serial->size(); ++i) {
      const core::ClassificationRule& a = serial->rules()[i];
      const core::ClassificationRule& b = parallel->rules()[i];
      EXPECT_EQ(a.property, b.property) << "rule " << i;
      EXPECT_EQ(serial->segment_text(a), parallel->segment_text(b))
          << "rule " << i;
      EXPECT_EQ(a.cls, b.cls) << "rule " << i;
      EXPECT_EQ(a.support, b.support) << "rule " << i;
      EXPECT_EQ(a.confidence, b.confidence) << "rule " << i;
      EXPECT_EQ(a.lift, b.lift) << "rule " << i;
    }
  }
}

TEST_P(MorselDifferential, StreamingLinkingIsByteIdenticalUnderForcedStealing) {
  const datagen::Dataset& dataset = corpus();
  const linking::ItemMatcher matcher = Matcher();
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/3);
  const auto candidates =
      blocker.Generate(dataset.external_items, dataset.catalog_items);
  ASSERT_GT(candidates.size(), 0u);
  const auto index =
      blocker.BuildIndex(dataset.external_items, dataset.catalog_items);

  for (linking::Linker::Strategy strategy :
       {linking::Linker::Strategy::kBestPerExternal,
        linking::Linker::Strategy::kAllAboveThreshold}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    const linking::Linker oracle(&matcher, kThreshold, strategy);
    linking::LinkerStats ref_stats;
    const auto reference =
        oracle.Run(dataset.external_items, dataset.catalog_items, candidates,
                   &ref_stats, /*num_threads=*/1);
    ASSERT_GT(reference.size(), 0u);

    const linking::StreamingLinker streaming(&matcher, kThreshold, strategy);
    util::ScopedMorselItems force(1);
    linking::LinkerStats first_stats;
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(threads);
      // Cache build under forced stealing too: one dictionary per item.
      linking::FeatureDictionary dict;
      const auto external = linking::FeatureCache::Build(
          dataset.external_items, matcher,
          linking::FeatureCache::Side::kExternal, &dict, threads);
      const auto local = linking::FeatureCache::Build(
          dataset.catalog_items, matcher,
          linking::FeatureCache::Side::kLocal, &dict, threads);
      linking::LinkerStats stats;
      const auto links =
          streaming.Run(*index, external, local, &stats, threads);
      ExpectLinksIdentical(links, reference);
      EXPECT_EQ(stats.links_emitted, ref_stats.links_emitted);
      EXPECT_EQ(stats.pairs_scored + stats.pairs_pruned_by_filter,
                ref_stats.pairs_scored);
      if (threads == kThreadCounts[0]) {
        first_stats = stats;
      } else {
        EXPECT_EQ(stats.pairs_scored, first_stats.pairs_scored);
        EXPECT_EQ(stats.pairs_pruned_by_filter,
                  first_stats.pairs_pruned_by_filter);
        EXPECT_EQ(stats.peak_candidate_run, first_stats.peak_candidate_run);
      }
    }
  }
}

TEST_P(MorselDifferential, ExceptionPropagationIsLowestSlotFirst) {
  // Under maximal stealing, slot 3's exception must always win over later
  // slots' no matter who executed them; skewed sleeps shuffle the
  // completion order every repeat.
  util::ScopedMorselItems force(1);
  util::ThreadPool pool(8);
  for (int repeat = 0; repeat < 10; ++repeat) {
    try {
      pool.ParallelFor(96, [&](std::size_t slot, std::size_t, std::size_t) {
        if ((slot + static_cast<std::size_t>(repeat)) % 9 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(30));
        }
        if (slot >= 3 && slot % 4 == 3) {
          throw std::runtime_error("slot-" + std::to_string(slot));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slot-3");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MorselDifferential,
                         ::testing::Values(101, 4057));

}  // namespace
}  // namespace rulelink
