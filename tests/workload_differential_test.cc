// Scale-down differential test for the workload suite: the request-replay
// path must not diverge from the batch linker at realistic scale. A
// generated 50k-item catalog plus a skewed, dirty provider query stream
// goes through StreamingLinker over a StandardBlocker index and must be
// byte-identical — same links, same order, same scores — to the
// string-path oracle Linker::Run over the same blocker's materialized
// candidates, at every thread count, for both strategies and for two
// generator seeds.
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/standard_blocking.h"
#include "datagen/workload.h"
#include "linking/feature_cache.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/streaming_linker.h"
#include "util/logging.h"

namespace rulelink {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr double kThreshold = 0.6;

struct Workload {
  datagen::WorkloadCatalog catalog;
  datagen::QueryStream stream;
};

const Workload& GetWorkload(std::uint64_t seed) {
  static std::map<std::uint64_t, std::unique_ptr<Workload>>* cache =
      new std::map<std::uint64_t, std::unique_ptr<Workload>>();
  auto it = cache->find(seed);
  if (it == cache->end()) {
    datagen::WorkloadConfig catalog_config;
    catalog_config.seed = seed;
    catalog_config.catalog_size = 50000;
    auto catalog = datagen::GenerateWorkloadCatalog(catalog_config);
    RL_CHECK(catalog.ok()) << catalog.status();

    datagen::QueryStreamConfig query_config;
    query_config.seed = seed + 1;
    query_config.num_queries = 1500;
    query_config.chooser.distribution = datagen::Distribution::kZipfian;
    query_config.typo_prob = 0.1;     // dirty regime: edits and truncation
    query_config.truncate_prob = 0.05;
    auto stream =
        datagen::GenerateQueryStream(catalog.value(), query_config);
    RL_CHECK(stream.ok()) << stream.status();

    auto workload = std::make_unique<Workload>();
    workload->catalog = std::move(catalog).value();
    workload->stream = std::move(stream).value();
    it = cache->emplace(seed, std::move(workload)).first;
  }
  return *it->second;
}

linking::ItemMatcher WorkloadMatcher() {
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

struct Caches {
  linking::FeatureDictionary dict;
  linking::FeatureCache external;
  linking::FeatureCache local;

  Caches(const Workload& workload, const linking::ItemMatcher& matcher,
         std::size_t num_threads) {
    external = linking::FeatureCache::Build(
        workload.stream.queries, matcher,
        linking::FeatureCache::Side::kExternal, &dict, num_threads);
    local = linking::FeatureCache::Build(
        workload.catalog.items, matcher, linking::FeatureCache::Side::kLocal,
        &dict, num_threads);
  }
};

class WorkloadDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const Workload& workload() const { return GetWorkload(GetParam()); }
};

TEST_P(WorkloadDifferential, StreamingMatchesOracleAtScale) {
  const Workload& workload = this->workload();
  const linking::ItemMatcher matcher = WorkloadMatcher();
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  const auto candidates =
      blocker.Generate(workload.stream.queries, workload.catalog.items);
  ASSERT_GT(candidates.size(), 0u);
  const auto index =
      blocker.BuildIndex(workload.stream.queries, workload.catalog.items);
  ASSERT_EQ(index->num_external(), workload.stream.queries.size());

  for (const linking::Linker::Strategy strategy :
       {linking::Linker::Strategy::kBestPerExternal,
        linking::Linker::Strategy::kAllAboveThreshold}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    const linking::Linker oracle(&matcher, kThreshold, strategy);
    const linking::StreamingLinker streaming(&matcher, kThreshold, strategy);
    // The oracle is deterministic at every thread count, so it may use
    // them all; the streaming side is what the sweep below varies.
    const auto reference =
        oracle.Run(workload.stream.queries, workload.catalog.items,
                   candidates, nullptr, /*num_threads=*/0);
    // The skewed dirty stream still links a substantial share of the
    // queries — the workload is a linking workload, not noise. (Not a
    // majority bound: typos and reformats inside the 4-char blocking
    // prefix cost recall by design, and the zipf head amplifies whichever
    // hot items happen to be fragile.)
    EXPECT_GT(reference.size(), workload.stream.queries.size() / 5);

    linking::LinkerStats serial_stats;
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(threads);
      // Caches are rebuilt per thread count on purpose: the build takes
      // the thread count too, and neither it nor the links may depend on
      // it.
      const Caches caches(workload, matcher, threads);
      linking::LinkerStats stats;
      const auto links = streaming.Run(*index, caches.external,
                                       caches.local, &stats, threads);
      ASSERT_EQ(links.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(links[i].external_index, reference[i].external_index) << i;
        ASSERT_EQ(links[i].local_index, reference[i].local_index) << i;
        ASSERT_EQ(links[i].score, reference[i].score) << i;  // bit-identical
      }
      EXPECT_EQ(stats.pairs_scored + stats.pairs_pruned_by_filter,
                candidates.size());
      if (threads == kThreadCounts[0]) {
        serial_stats = stats;
      } else {
        EXPECT_EQ(stats.pairs_scored, serial_stats.pairs_scored);
        EXPECT_EQ(stats.pairs_pruned_by_filter,
                  serial_stats.pairs_pruned_by_filter);
        EXPECT_EQ(stats.peak_candidate_run, serial_stats.peak_candidate_run);
      }
    }
  }
}

TEST_P(WorkloadDifferential, EmittedLinksHitTheGoldTargets) {
  // End-to-end sanity of the generated workload: when the pipeline links
  // a (dirty, skewed) query at all, it almost always links it to the gold
  // catalog item — the generator's noise erodes recall, never precision.
  const Workload& workload = this->workload();
  const linking::ItemMatcher matcher = WorkloadMatcher();
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  const auto index =
      blocker.BuildIndex(workload.stream.queries, workload.catalog.items);
  const Caches caches(workload, matcher, /*num_threads=*/1);
  const linking::StreamingLinker streaming(&matcher, kThreshold);
  const auto links =
      streaming.Run(*index, caches.external, caches.local, nullptr,
                    /*num_threads=*/0);
  ASSERT_GT(links.size(), workload.stream.queries.size() / 5);
  std::size_t correct = 0;
  for (const linking::Link& link : links) {
    if (workload.stream.gold[link.external_index].catalog_index ==
        link.local_index) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct),
            0.95 * static_cast<double>(links.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadDifferential,
                         ::testing::Values(42, 1789));

}  // namespace
}  // namespace rulelink
