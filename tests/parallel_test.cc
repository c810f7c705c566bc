// Differential tests for the parallel execution layer: every parallel
// entry point (Learn, ClassifyBatch, Linker::Run, Table1, linking-space
// Analyze) must produce output identical to the serial path — same values,
// same ordering, bit-identical doubles — at every thread count, across
// several generated corpora. num_threads=1 is the serial reference;
// {2, 3, 8} exercise even, odd and range-exceeding worker counts (the
// corpus is sharded the same way regardless of how many cores the machine
// actually has, so these tests are meaningful on any host).
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifier.h"
#include "core/learner.h"
#include "core/linking_space.h"
#include "datagen/generator.h"
#include "eval/table1.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "ontology/instance_index.h"
#include "text/segmenter.h"
#include "util/logging.h"

namespace rulelink {
namespace {

constexpr std::size_t kThreadCounts[] = {2, 3, 8};
constexpr double kSupportThreshold = 0.01;

datagen::DatasetConfig DifferentialConfig(std::uint64_t seed) {
  datagen::DatasetConfig config;
  config.seed = seed;
  config.num_classes = 60;
  config.num_leaves = 24;
  config.catalog_size = 900;
  config.num_links = 400;
  config.num_signal_classes = 5;
  config.num_other_frequent_classes = 6;
  config.signal_class_min_links = 25;
  config.signal_class_max_links = 45;
  config.frequent_class_min_links = 7;
  config.frequent_class_max_links = 12;
  config.tail_class_cap_links = 4;
  return config;
}

struct Corpus {
  std::unique_ptr<datagen::Dataset> dataset;
  std::unique_ptr<core::TrainingSet> ts;
};

// One corpus per seed, shared across the whole suite: the differential
// comparisons re-run the algorithms many times, the generator only once.
const Corpus& GetCorpus(std::uint64_t seed) {
  static std::map<std::uint64_t, Corpus>* cache =
      new std::map<std::uint64_t, Corpus>();
  auto it = cache->find(seed);
  if (it == cache->end()) {
    Corpus corpus;
    auto dataset =
        datagen::DatasetGenerator(DifferentialConfig(seed)).Generate();
    RL_CHECK(dataset.ok()) << dataset.status();
    corpus.dataset =
        std::make_unique<datagen::Dataset>(std::move(dataset).value());
    corpus.ts = std::make_unique<core::TrainingSet>(
        datagen::BuildTrainingSet(*corpus.dataset));
    it = cache->emplace(seed, std::move(corpus)).first;
  }
  return it->second;
}

void ExpectRulesIdentical(const core::RuleSet& serial,
                          const core::RuleSet& parallel,
                          std::size_t threads) {
  ASSERT_EQ(serial.size(), parallel.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::ClassificationRule& a = serial.rules()[i];
    const core::ClassificationRule& b = parallel.rules()[i];
    EXPECT_EQ(a.property, b.property) << "rule " << i;
    EXPECT_EQ(serial.segment_text(a), parallel.segment_text(b))
        << "rule " << i;
    EXPECT_EQ(a.cls, b.cls) << "rule " << i;
    EXPECT_EQ(a.counts.premise_count, b.counts.premise_count) << "rule " << i;
    EXPECT_EQ(a.counts.class_count, b.counts.class_count) << "rule " << i;
    EXPECT_EQ(a.counts.joint_count, b.counts.joint_count) << "rule " << i;
    EXPECT_EQ(a.counts.total, b.counts.total) << "rule " << i;
    // Bit-identical measures, not just approximately equal.
    EXPECT_EQ(a.support, b.support) << "rule " << i;
    EXPECT_EQ(a.confidence, b.confidence) << "rule " << i;
    EXPECT_EQ(a.lift, b.lift) << "rule " << i;
  }
}

class ParallelDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const Corpus& corpus() const { return GetCorpus(GetParam()); }

  core::LearnerOptions Options(std::size_t num_threads) const {
    core::LearnerOptions options;
    options.support_threshold = kSupportThreshold;
    options.segmenter = &segmenter_;
    options.num_threads = num_threads;
    return options;
  }

  text::SeparatorSegmenter segmenter_;
};

TEST_P(ParallelDifferential, LearnIsThreadCountInvariant) {
  core::LearnStats serial_stats;
  auto serial = core::RuleLearner(Options(1)).Learn(*corpus().ts,
                                                    &serial_stats);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->size(), 0u);

  for (std::size_t threads : kThreadCounts) {
    core::LearnStats stats;
    auto parallel =
        core::RuleLearner(Options(threads)).Learn(*corpus().ts, &stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectRulesIdentical(*serial, *parallel, threads);
    EXPECT_EQ(stats.num_examples, serial_stats.num_examples);
    EXPECT_EQ(stats.distinct_segments, serial_stats.distinct_segments);
    EXPECT_EQ(stats.segment_occurrences, serial_stats.segment_occurrences);
    EXPECT_EQ(stats.selected_segment_occurrences,
              serial_stats.selected_segment_occurrences);
    EXPECT_EQ(stats.frequent_premises, serial_stats.frequent_premises);
    EXPECT_EQ(stats.frequent_classes, serial_stats.frequent_classes);
    EXPECT_EQ(stats.num_rules, serial_stats.num_rules);
    EXPECT_EQ(stats.classes_with_rules, serial_stats.classes_with_rules);
  }
}

TEST_P(ParallelDifferential, ClassifyBatchIsThreadCountInvariant) {
  auto rules = core::RuleLearner(Options(1)).Learn(*corpus().ts);
  ASSERT_TRUE(rules.ok());
  const core::RuleClassifier classifier(&*rules, &segmenter_);
  const auto& items = corpus().dataset->external_items;

  const auto serial = classifier.ClassifyBatch(items, 0.0, 1);
  ASSERT_EQ(serial.size(), items.size());
  // The batch must agree with the one-item entry point...
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto single = classifier.Classify(items[i]);
    ASSERT_EQ(serial[i].size(), single.size()) << "item " << i;
  }
  // ...and with every parallel partitioning, prediction by prediction.
  for (std::size_t threads : kThreadCounts) {
    const auto parallel = classifier.ClassifyBatch(items, 0.0, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].size(), serial[i].size())
          << "threads=" << threads << " item " << i;
      for (std::size_t k = 0; k < serial[i].size(); ++k) {
        EXPECT_EQ(parallel[i][k].cls, serial[i][k].cls);
        EXPECT_EQ(parallel[i][k].rule_index, serial[i][k].rule_index);
        EXPECT_EQ(parallel[i][k].confidence, serial[i][k].confidence);
        EXPECT_EQ(parallel[i][k].lift, serial[i][k].lift);
      }
    }
  }
}

TEST_P(ParallelDifferential, LinkIsThreadCountInvariant) {
  const auto& dataset = *corpus().dataset;
  const std::size_t num_external = dataset.external_items.size();
  const std::size_t num_catalog = dataset.catalog_items.size();

  // Candidate pairs: the gold pair of every external item plus two pseudo-
  // random distractors, with every third pair duplicated to exercise the
  // dedup path.
  std::vector<blocking::CandidatePair> candidates;
  for (const datagen::GoldLink& link : dataset.links) {
    candidates.push_back({link.external_index, link.catalog_index});
  }
  for (std::size_t e = 0; e < num_external; ++e) {
    candidates.push_back({e, (e * 7 + 3) % num_catalog});
    candidates.push_back({e, (e * 13 + 11) % num_catalog});
    if (e % 3 == 0) candidates.push_back({e, (e * 7 + 3) % num_catalog});
  }

  const linking::ItemMatcher matcher(
      {{datagen::props::kPartNumber, datagen::props::kPartNumber,
        linking::SimilarityMeasure::kJaroWinkler, 1.0}});

  for (linking::Linker::Strategy strategy :
       {linking::Linker::Strategy::kBestPerExternal,
        linking::Linker::Strategy::kAllAboveThreshold}) {
    const linking::Linker linker(&matcher, 0.5, strategy);
    linking::LinkerStats serial_stats;
    const auto serial =
        linker.Run(dataset.external_items, dataset.catalog_items, candidates,
                   &serial_stats, /*num_threads=*/1);
    ASSERT_GT(serial.size(), 0u);

    for (std::size_t threads : kThreadCounts) {
      linking::LinkerStats stats;
      const auto parallel =
          linker.Run(dataset.external_items, dataset.catalog_items,
                     candidates, &stats, threads);
      ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].external_index, serial[i].external_index);
        EXPECT_EQ(parallel[i].local_index, serial[i].local_index);
        EXPECT_EQ(parallel[i].score, serial[i].score);
      }
      EXPECT_EQ(stats.pairs_scored, serial_stats.pairs_scored);
      // No memo on the string path, so even the kernel count is invariant.
      EXPECT_EQ(stats.comparisons, serial_stats.comparisons);
      EXPECT_EQ(stats.links_emitted, serial_stats.links_emitted);
    }
  }
}

TEST_P(ParallelDifferential, Table1IsThreadCountInvariant) {
  auto rules = core::RuleLearner(Options(1)).Learn(*corpus().ts);
  ASSERT_TRUE(rules.ok());
  const eval::Table1Evaluator evaluator(&*rules, &segmenter_,
                                        kSupportThreshold);
  const auto serial =
      evaluator.Evaluate(*corpus().ts, {1.0, 0.8, 0.6, 0.4}, 1);

  for (std::size_t threads : kThreadCounts) {
    const auto parallel =
        evaluator.Evaluate(*corpus().ts, {1.0, 0.8, 0.6, 0.4}, threads);
    ASSERT_EQ(parallel.rows.size(), serial.rows.size());
    for (std::size_t b = 0; b < serial.rows.size(); ++b) {
      EXPECT_EQ(parallel.rows[b].num_rules, serial.rows[b].num_rules);
      EXPECT_EQ(parallel.rows[b].decisions, serial.rows[b].decisions);
      EXPECT_EQ(parallel.rows[b].correct, serial.rows[b].correct);
      EXPECT_EQ(parallel.rows[b].precision_band,
                serial.rows[b].precision_band);
      EXPECT_EQ(parallel.rows[b].precision_cumulative,
                serial.rows[b].precision_cumulative);
      EXPECT_EQ(parallel.rows[b].recall_cumulative,
                serial.rows[b].recall_cumulative);
      EXPECT_EQ(parallel.rows[b].avg_lift, serial.rows[b].avg_lift);
    }
    EXPECT_EQ(parallel.classifiable_items, serial.classifiable_items);
    EXPECT_EQ(parallel.frequent_classes, serial.frequent_classes);
    EXPECT_EQ(parallel.undecided_items, serial.undecided_items);
  }
}

TEST_P(ParallelDifferential, LinkingSpaceAnalyzeIsThreadCountInvariant) {
  const auto& dataset = *corpus().dataset;
  auto rules = core::RuleLearner(Options(1)).Learn(*corpus().ts);
  ASSERT_TRUE(rules.ok());
  const core::RuleClassifier classifier(&*rules, &segmenter_);
  const rdf::Graph local_graph = datagen::BuildLocalGraph(dataset);
  const auto index =
      ontology::InstanceIndex::Build(local_graph, dataset.ontology());
  const core::LinkingSpaceAnalyzer analyzer(&classifier, &index);

  for (core::UnclassifiedPolicy policy :
       {core::UnclassifiedPolicy::kCompareAll,
        core::UnclassifiedPolicy::kSkip}) {
    const auto serial =
        analyzer.Analyze(dataset.external_items, 0.4, policy, 1);
    for (std::size_t threads : kThreadCounts) {
      const auto parallel =
          analyzer.Analyze(dataset.external_items, 0.4, policy, threads);
      EXPECT_EQ(parallel.num_external_items, serial.num_external_items);
      EXPECT_EQ(parallel.local_size, serial.local_size);
      EXPECT_EQ(parallel.naive_pairs, serial.naive_pairs);
      EXPECT_EQ(parallel.reduced_pairs, serial.reduced_pairs);
      EXPECT_EQ(parallel.classified_items, serial.classified_items);
      EXPECT_EQ(parallel.unclassified_items, serial.unclassified_items);
      // Bit-identical: the reduction is serial in item order.
      EXPECT_EQ(parallel.reduction_ratio, serial.reduction_ratio);
      EXPECT_EQ(parallel.mean_subspace_fraction,
                serial.mean_subspace_fraction);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferential,
                         ::testing::Values(11, 29, 347, 5081, 60013));

}  // namespace
}  // namespace rulelink
