// Differential tests for the interned learning pipeline: the dense-id
// learner in learner.cc must be byte-identical to the preserved
// string-keyed reference implementation (reference_learner.cc) — same
// serialized rules, same Table 1, same linking-space reduction — over
// several generated corpora and at every thread count. This is the
// acceptance bar for the SegmentId refactor: interning changes the data
// representation, never the output.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/classifier.h"
#include "core/learner.h"
#include "core/linking_space.h"
#include "reference_learner.h"
#include "core/rule_io.h"
#include "datagen/generator.h"
#include "eval/table1.h"
#include "ontology/instance_index.h"
#include "text/segmenter.h"
#include "util/logging.h"

namespace rulelink {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr double kSupportThreshold = 0.01;

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

struct Corpus {
  std::unique_ptr<datagen::Dataset> dataset;
  std::unique_ptr<core::TrainingSet> ts;
};

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

class InternedDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const Corpus& corpus() const { return GetCorpus(GetParam()); }

  core::LearnerOptions Options(std::size_t num_threads) const {
    core::LearnerOptions options;
    options.support_threshold = kSupportThreshold;
    options.segmenter = &segmenter_;
    options.num_threads = num_threads;
    return options;
  }

  // The string-keyed reference pipeline, learned once per corpus.
  const core::RuleSet& Reference() const {
    static std::map<std::uint64_t, core::RuleSet>* cache =
        new std::map<std::uint64_t, core::RuleSet>();
    auto it = cache->find(GetParam());
    if (it == cache->end()) {
      auto rules = core::ReferenceLearn(Options(1), *corpus().ts);
      RL_CHECK(rules.ok()) << rules.status();
      it = cache->emplace(GetParam(), std::move(rules).value()).first;
    }
    return it->second;
  }

  text::SeparatorSegmenter segmenter_;
};

TEST_P(InternedDifferential, SerializedRulesAreByteIdentical) {
  const ontology::Ontology& onto = corpus().dataset->ontology();
  const std::string expected = core::WriteRules(Reference(), onto);
  ASSERT_FALSE(expected.empty());
  for (std::size_t threads : kThreadCounts) {
    auto rules = core::RuleLearner(Options(threads)).Learn(*corpus().ts);
    ASSERT_TRUE(rules.ok()) << rules.status();
    // Byte-for-byte: same rules, same order, same printed measures.
    EXPECT_EQ(core::WriteRules(*rules, onto), expected)
        << "threads=" << threads;
  }
}

TEST_P(InternedDifferential, StatsMatchReferencePipeline) {
  core::LearnStats ref_stats;
  auto ref = core::ReferenceLearn(Options(1), *corpus().ts, &ref_stats);
  ASSERT_TRUE(ref.ok());
  for (std::size_t threads : kThreadCounts) {
    core::LearnStats stats;
    auto rules =
        core::RuleLearner(Options(threads)).Learn(*corpus().ts, &stats);
    ASSERT_TRUE(rules.ok());
    EXPECT_EQ(stats.num_examples, ref_stats.num_examples);
    EXPECT_EQ(stats.distinct_segments, ref_stats.distinct_segments);
    EXPECT_EQ(stats.segment_occurrences, ref_stats.segment_occurrences);
    EXPECT_EQ(stats.selected_segment_occurrences,
              ref_stats.selected_segment_occurrences);
    EXPECT_EQ(stats.frequent_premises, ref_stats.frequent_premises);
    EXPECT_EQ(stats.frequent_classes, ref_stats.frequent_classes);
    EXPECT_EQ(stats.num_rules, ref_stats.num_rules);
    EXPECT_EQ(stats.classes_with_rules, ref_stats.classes_with_rules);
    // The interned pipeline additionally reports its symbol table: one
    // symbol per distinct segment string in the corpus.
    EXPECT_GT(stats.interner_bytes, 0u);
    EXPECT_EQ(stats.interner_symbols, stats.distinct_segments);
  }
}

TEST_P(InternedDifferential, Table1IsIdenticalToReference) {
  const std::vector<double> bands = {1.0, 0.8, 0.6, 0.4};
  const eval::Table1Evaluator ref_eval(&Reference(), &segmenter_,
                                       kSupportThreshold);
  const auto expected = ref_eval.Evaluate(*corpus().ts, bands, 1);

  for (std::size_t threads : kThreadCounts) {
    auto rules = core::RuleLearner(Options(threads)).Learn(*corpus().ts);
    ASSERT_TRUE(rules.ok());
    const eval::Table1Evaluator evaluator(&*rules, &segmenter_,
                                          kSupportThreshold);
    const auto actual = evaluator.Evaluate(*corpus().ts, bands, threads);
    ASSERT_EQ(actual.rows.size(), expected.rows.size());
    for (std::size_t b = 0; b < expected.rows.size(); ++b) {
      EXPECT_EQ(actual.rows[b].num_rules, expected.rows[b].num_rules);
      EXPECT_EQ(actual.rows[b].decisions, expected.rows[b].decisions);
      EXPECT_EQ(actual.rows[b].correct, expected.rows[b].correct);
      EXPECT_EQ(actual.rows[b].precision_band,
                expected.rows[b].precision_band);
      EXPECT_EQ(actual.rows[b].precision_cumulative,
                expected.rows[b].precision_cumulative);
      EXPECT_EQ(actual.rows[b].recall_cumulative,
                expected.rows[b].recall_cumulative);
      EXPECT_EQ(actual.rows[b].avg_lift, expected.rows[b].avg_lift);
    }
    EXPECT_EQ(actual.classifiable_items, expected.classifiable_items);
    EXPECT_EQ(actual.frequent_classes, expected.frequent_classes);
    EXPECT_EQ(actual.undecided_items, expected.undecided_items);
  }
}

TEST_P(InternedDifferential, LinkingSpaceIsIdenticalToReference) {
  const auto& dataset = *corpus().dataset;
  const rdf::Graph local_graph = datagen::BuildLocalGraph(dataset);
  const auto index =
      ontology::InstanceIndex::Build(local_graph, dataset.ontology());

  const core::RuleClassifier ref_classifier(&Reference(), &segmenter_);
  const core::LinkingSpaceAnalyzer ref_analyzer(&ref_classifier, &index);
  const auto expected = ref_analyzer.Analyze(
      dataset.external_items, 0.4, core::UnclassifiedPolicy::kCompareAll, 1);

  for (std::size_t threads : kThreadCounts) {
    auto rules = core::RuleLearner(Options(threads)).Learn(*corpus().ts);
    ASSERT_TRUE(rules.ok());
    const core::RuleClassifier classifier(&*rules, &segmenter_);

    // Item-level classification parity feeds the linking comparison: the
    // same ranked classes, at the same confidences, for every item.
    const auto ref_ranked =
        ref_classifier.ClassifyBatch(dataset.external_items, 0.4, 1);
    const auto ranked =
        classifier.ClassifyBatch(dataset.external_items, 0.4, threads);
    ASSERT_EQ(ranked.size(), ref_ranked.size());
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      ASSERT_EQ(ranked[i].size(), ref_ranked[i].size())
          << "threads=" << threads << " item " << i;
      for (std::size_t k = 0; k < ranked[i].size(); ++k) {
        EXPECT_EQ(ranked[i][k].cls, ref_ranked[i][k].cls)
            << "threads=" << threads << " item " << i;
        EXPECT_EQ(ranked[i][k].confidence, ref_ranked[i][k].confidence)
            << "threads=" << threads << " item " << i;
      }
    }

    const core::LinkingSpaceAnalyzer analyzer(&classifier, &index);
    const auto actual =
        analyzer.Analyze(dataset.external_items, 0.4,
                         core::UnclassifiedPolicy::kCompareAll, threads);
    EXPECT_EQ(actual.num_external_items, expected.num_external_items);
    EXPECT_EQ(actual.local_size, expected.local_size);
    EXPECT_EQ(actual.naive_pairs, expected.naive_pairs);
    EXPECT_EQ(actual.reduced_pairs, expected.reduced_pairs);
    EXPECT_EQ(actual.classified_items, expected.classified_items);
    EXPECT_EQ(actual.unclassified_items, expected.unclassified_items);
    EXPECT_EQ(actual.reduction_ratio, expected.reduction_ratio);
    EXPECT_EQ(actual.mean_subspace_fraction,
              expected.mean_subspace_fraction);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternedDifferential,
                         ::testing::Values(17, 101, 919, 4201, 77017));

}  // namespace
}  // namespace rulelink
