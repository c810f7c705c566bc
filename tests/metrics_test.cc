// Tests for the observability layer (src/obs): registry semantics,
// histogram bucket edges and merge-order invariance, trace structure, and
// the tentpole acceptance bar — the deterministic snapshot of a fully
// instrumented pipeline is byte-identical at every thread count.
#include "obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/standard_blocking.h"
#include "core/learner.h"
#include "datagen/generator.h"
#include "linking/evaluation.h"
#include "linking/matcher.h"
#include "text/segmenter.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rulelink {
namespace {

// --- Bucketing ------------------------------------------------------------

TEST(Log2BucketTest, BucketEdges) {
  EXPECT_EQ(obs::Log2Bucket(0), 0u);
  EXPECT_EQ(obs::Log2Bucket(1), 1u);
  EXPECT_EQ(obs::Log2Bucket(2), 2u);
  EXPECT_EQ(obs::Log2Bucket(3), 2u);
  EXPECT_EQ(obs::Log2Bucket(4), 3u);
  EXPECT_EQ(obs::Log2Bucket(7), 3u);
  EXPECT_EQ(obs::Log2Bucket(8), 4u);
  EXPECT_EQ(obs::Log2Bucket(1023), 10u);
  EXPECT_EQ(obs::Log2Bucket(1024), 11u);
  EXPECT_EQ(obs::Log2Bucket(std::numeric_limits<std::uint64_t>::max()),
            obs::kNumHistogramBuckets - 1);
}

TEST(Log2BucketTest, LowerBoundsRoundTrip) {
  EXPECT_EQ(obs::BucketLowerBound(0), 0u);
  EXPECT_EQ(obs::BucketLowerBound(1), 1u);
  EXPECT_EQ(obs::BucketLowerBound(2), 2u);
  EXPECT_EQ(obs::BucketLowerBound(3), 4u);
  EXPECT_EQ(obs::BucketLowerBound(4), 8u);
  // Every bucket's lower bound maps back into that bucket, and the value
  // just below it (when there is one) into the previous bucket.
  for (std::size_t b = 0; b < obs::kNumHistogramBuckets; ++b) {
    const std::uint64_t lo = obs::BucketLowerBound(b);
    EXPECT_EQ(obs::Log2Bucket(lo), b) << "bucket " << b;
    if (b > 1) {
      EXPECT_EQ(obs::Log2Bucket(lo - 1), b - 1) << "bucket " << b;
    }
  }
}

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, ObserveTracksCountSumMinMax) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.Observe(5);
  h.Observe(0);
  h.Observe(17);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 22u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 17u);
  EXPECT_EQ(h.buckets()[obs::Log2Bucket(0)], 1u);
  EXPECT_EQ(h.buckets()[obs::Log2Bucket(5)], 1u);
  EXPECT_EQ(h.buckets()[obs::Log2Bucket(17)], 1u);
}

TEST(HistogramTest, MergeIsOrderInvariant) {
  obs::Histogram a, b, c;
  for (std::uint64_t v : {1u, 3u, 3u, 100u}) a.Observe(v);
  for (std::uint64_t v : {0u, 8u}) b.Observe(v);
  // c stays empty: merging an empty shard must not disturb min().
  obs::Histogram ab = a;
  ab.Merge(b);
  ab.Merge(c);
  obs::Histogram ba = b;
  ba.Merge(c);
  ba.Merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.sum(), ba.sum());
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
  EXPECT_EQ(ab.buckets(), ba.buckets());
  EXPECT_EQ(ab.count(), 6u);
  EXPECT_EQ(ab.min(), 0u);
  EXPECT_EQ(ab.max(), 100u);
}

TEST(HistogramTest, ValueAtQuantileEmptyAndSingleValue) {
  obs::Histogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0.0);
  h.Observe(42);
  // One observation: every quantile clamps to the observed min == max.
  EXPECT_EQ(h.ValueAtQuantile(0.0), 42.0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 42.0);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 42.0);
}

TEST(HistogramTest, ValueAtQuantileWalksBuckets) {
  obs::Histogram h;
  // 90 observations in [64, 128), 10 in [1024, 2048): p50 must land in the
  // first bucket's value range, p99 in the second's.
  for (int i = 0; i < 90; ++i) h.Observe(100);
  for (int i = 0; i < 10; ++i) h.Observe(1500);
  const double p50 = h.ValueAtQuantile(0.5);
  EXPECT_GE(p50, 64.0);
  EXPECT_LT(p50, 128.0);
  const double p99 = h.ValueAtQuantile(0.99);
  EXPECT_GE(p99, 1024.0);
  EXPECT_LE(p99, 1500.0);  // clamped to the observed max
  // Monotone in q.
  EXPECT_LE(h.ValueAtQuantile(0.25), h.ValueAtQuantile(0.75));
  EXPECT_LE(h.ValueAtQuantile(0.9), h.ValueAtQuantile(0.999));
  // Out-of-range q clamps instead of reading past the buckets.
  EXPECT_EQ(h.ValueAtQuantile(-1.0), h.ValueAtQuantile(0.0));
  EXPECT_EQ(h.ValueAtQuantile(2.0), h.ValueAtQuantile(1.0));
}

TEST(HistogramTest, ValueAtQuantileBoundedByBucketResolution) {
  obs::Histogram h;
  // Uniform 1..1000: the log2 bucketing bounds the relative error by 2x.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  const double p50 = h.ValueAtQuantile(0.5);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  const double p999 = h.ValueAtQuantile(0.999);
  EXPECT_GE(p999, 512.0);
  EXPECT_LE(p999, 1000.0);
}

// --- Registry -------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAccumulate) {
  obs::MetricsRegistry registry;
  registry.AddCounter("x");
  registry.AddCounter("x", 4);
  registry.AddCounter("y", 0);
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("x"), 5u);
  EXPECT_EQ(snapshot.counters.at("y"), 0u);
}

TEST(MetricsRegistryTest, GaugeLastWriteWinsAndNanNormalized) {
  obs::MetricsRegistry registry;
  registry.SetGauge("g", 1.5);
  registry.SetGauge("g", 2.5);
  registry.SetGauge("bad", std::numeric_limits<double>::quiet_NaN());
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.gauges.at("g"), 2.5);
  EXPECT_EQ(snapshot.gauges.at("bad"), 0.0);
}

TEST(MetricsRegistryTest, StageScopesNestInTraceOrder) {
  obs::MetricsRegistry registry;
  {
    const obs::MetricsRegistry::StageScope outer(&registry, "outer");
    { const obs::MetricsRegistry::StageScope inner(&registry, "outer/in"); }
    { const obs::MetricsRegistry::StageScope inner(&registry, "outer/in"); }
  }
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.stages.at("outer").calls, 1u);
  EXPECT_EQ(snapshot.stages.at("outer/in").calls, 2u);
  ASSERT_EQ(snapshot.trace.size(), 3u);
  // Spans appear in begin order with their nesting depth.
  EXPECT_EQ(snapshot.trace[0].path, "outer");
  EXPECT_EQ(snapshot.trace[0].depth, 0u);
  EXPECT_EQ(snapshot.trace[1].path, "outer/in");
  EXPECT_EQ(snapshot.trace[1].depth, 1u);
  EXPECT_EQ(snapshot.trace[2].depth, 1u);
}

TEST(MetricsRegistryTest, NullRegistryScopesAreNoOps) {
  // Must not crash; this is the uninstrumented path of every call site.
  const obs::MetricsRegistry::StageScope scope(nullptr, "ignored");
}

TEST(MetricsSnapshotTest, DeterministicJsonOmitsTimings) {
  obs::MetricsRegistry registry;
  registry.AddCounter("c", 7);
  { const obs::MetricsRegistry::StageScope scope(&registry, "s"); }
  const auto snapshot = registry.Snapshot();
  const std::string full = snapshot.ToJson();
  const std::string det = snapshot.DeterministicJson();
  EXPECT_NE(full.find("\"stages\""), std::string::npos);
  EXPECT_NE(full.find("\"trace\""), std::string::npos);
  EXPECT_EQ(det.find("\"stages\""), std::string::npos);
  EXPECT_EQ(det.find("\"trace\""), std::string::npos);
  EXPECT_NE(det.find("\"c\": 7"), std::string::npos) << det;
  // The scheduler counters are thread-variant (steal order, busy time):
  // present in the full document, never in the deterministic one.
  EXPECT_NE(full.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(full.find("\"per_worker\""), std::string::npos);
  EXPECT_EQ(det.find("\"scheduler\""), std::string::npos);
  EXPECT_EQ(det.find("\"steals\""), std::string::npos);
}

TEST(MetricsSnapshotTest, SchedulerSectionReflectsPoolActivity) {
  // Run a scheduled loop, then snapshot: the section must report the
  // global pool's workers and a non-zero morsel count.
  std::atomic<std::uint64_t> sum{0};
  util::ParallelFor(2, 256,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      sum.fetch_add(end - begin, std::memory_order_relaxed);
                    });
  ASSERT_EQ(sum.load(), 256u);
  obs::MetricsRegistry registry;
  const auto snapshot = registry.Snapshot();
  EXPECT_GE(snapshot.scheduler.workers, 1u);
  EXPECT_GT(snapshot.scheduler.loops, 0u);
  EXPECT_GT(snapshot.scheduler.Totals().morsels, 0u);
  const std::string full = snapshot.ToJson();
  EXPECT_NE(full.find("\"utilization\""), std::string::npos);
}

// --- Cross-thread determinism of a fully instrumented pipeline -----------

datagen::DatasetConfig SmallConfig(std::uint64_t seed) {
  datagen::DatasetConfig config;
  config.seed = seed;
  config.num_classes = 40;
  config.num_leaves = 16;
  config.catalog_size = 400;
  config.num_links = 200;
  config.num_signal_classes = 4;
  config.num_other_frequent_classes = 4;
  config.signal_class_min_links = 12;
  config.signal_class_max_links = 24;
  config.frequent_class_min_links = 5;
  config.frequent_class_max_links = 9;
  config.tail_class_cap_links = 3;
  return config;
}

linking::ItemMatcher PipelineMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kLevenshtein, 2.0},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kDiceBigram, 1.0},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kExact, 0.5},
  });
}

// Runs learner + streaming linkage pipeline + evaluation with a live
// registry at `num_threads` and returns the deterministic snapshot JSON.
std::string InstrumentedPipelineJson(const datagen::Dataset& dataset,
                                     std::size_t num_threads) {
  obs::MetricsRegistry registry;

  const text::SeparatorSegmenter segmenter;
  core::LearnerOptions options;
  options.support_threshold = 0.01;
  options.segmenter = &segmenter;
  options.num_threads = num_threads;
  const auto ts = datagen::BuildTrainingSet(dataset);
  auto rules = core::RuleLearner(options).Learn(ts, nullptr, &registry);
  RL_CHECK(rules.ok()) << rules.status();

  std::vector<blocking::CandidatePair> gold;
  for (const datagen::GoldLink& link : dataset.links) {
    gold.push_back({link.external_index, link.catalog_index});
  }
  const linking::ItemMatcher matcher = PipelineMatcher();
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  const auto result = linking::RunStreamingLinkagePipeline(
      dataset.external_items, dataset.catalog_items, blocker, matcher,
      /*threshold=*/0.6, linking::Linker::Strategy::kBestPerExternal, &gold,
      num_threads, &registry);
  RL_CHECK(!result.links.empty());

  return registry.Snapshot().DeterministicJson();
}

TEST(MetricsDeterminismTest, SnapshotByteIdenticalAcrossThreadCounts) {
  // The 6 000-item catalog gives the feature build thousands of items in
  // one call: a build whose dictionary depended on the thread count would
  // change the dictionary sizes in the snapshot.
  for (std::size_t catalog_size : {400u, 6000u}) {
    for (std::uint64_t seed : {11u, 23u}) {
      SCOPED_TRACE(testing::Message() << "catalog " << catalog_size
                                      << " seed " << seed);
      datagen::DatasetConfig config = SmallConfig(seed);
      config.catalog_size = catalog_size;
      auto dataset = datagen::DatasetGenerator(config).Generate();
      ASSERT_TRUE(dataset.ok()) << dataset.status();
      const std::string reference = InstrumentedPipelineJson(*dataset, 1);
      EXPECT_FALSE(reference.empty());
      // The snapshot must carry real pipeline content, not just zeros.
      EXPECT_NE(reference.find("linking/stream/pairs_scored"),
                std::string::npos);
      EXPECT_NE(reference.find("learn/rules_emitted"), std::string::npos);
      EXPECT_NE(reference.find("linking/stream/run_length"),
                std::string::npos);
      EXPECT_NE(reference.find("quality/"), std::string::npos);
      for (std::size_t threads : {2u, 8u}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(InstrumentedPipelineJson(*dataset, threads), reference);
      }
    }
  }
}

// Rerunning the identical serial pipeline twice must also be
// byte-identical (no iteration-order or address-dependent leakage).
TEST(MetricsDeterminismTest, SnapshotStableAcrossReruns) {
  auto dataset = datagen::DatasetGenerator(SmallConfig(7)).Generate();
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(InstrumentedPipelineJson(*dataset, 1),
            InstrumentedPipelineJson(*dataset, 1));
}

}  // namespace
}  // namespace rulelink
