#include "core/incremental.h"

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/generalizer.h"
#include "core/learner.h"
#include "reference_learner.h"
#include "datagen/generator.h"
#include "util/logging.h"

namespace rulelink::core {
namespace {

// Order-free rule fingerprint: (property name, segment text, class,
// premise/joint/class counts). Two learners agree iff these sets match.
using RuleKey = std::tuple<std::string, std::string, ontology::ClassId,
                           std::size_t, std::size_t, std::size_t>;

std::set<RuleKey> RuleKeys(const RuleSet& rules) {
  std::set<RuleKey> out;
  for (const auto& rule : rules.rules()) {
    out.insert({rules.properties().name(rule.property),
                std::string(rules.segment_text(rule)), rule.cls,
                rule.counts.premise_count, rule.counts.joint_count,
                rule.counts.class_count});
  }
  return out;
}

class IncrementalTest : public ::testing::Test {
 protected:
  IncrementalTest() {
    root_ = onto_.AddClass("ex:Root");
    a_ = onto_.AddClass("ex:A");
    b_ = onto_.AddClass("ex:B");
    RL_CHECK_OK(onto_.AddSubClassOf(a_, root_));
    RL_CHECK_OK(onto_.AddSubClassOf(b_, root_));
    RL_CHECK_OK(onto_.Finalize());
  }

  static Item MakeItem(const std::string& pn) {
    Item item;
    item.iri = "ext:x";
    item.facts.push_back(PropertyValue{"pn", pn});
    return item;
  }

  ontology::Ontology onto_;
  ontology::ClassId root_, a_, b_;
  text::SeparatorSegmenter segmenter_;
};

TEST_F(IncrementalTest, MatchesBatchLearnerExactly) {
  // Build the same corpus both ways.
  const std::vector<std::pair<std::string, ontology::ClassId>> corpus = {
      {"AAA-1", a_}, {"AAA-2", a_}, {"AAA-MIX-3", a_}, {"MIX-4", b_},
      {"BB-5", b_},  {"BB-MIX-6", b_},
  };
  TrainingSet ts(onto_);
  IncrementalRuleLearner incremental(&onto_, &segmenter_);
  for (const auto& [pn, cls] : corpus) {
    ts.AddExample(MakeItem(pn), "local:x", {cls});
    incremental.AddExample(MakeItem(pn), {cls});
  }

  LearnerOptions options;
  options.support_threshold = 0.15;
  options.segmenter = &segmenter_;
  auto batch = RuleLearner(options).Learn(ts);
  ASSERT_TRUE(batch.ok());
  auto online = incremental.BuildRules(0.15);
  ASSERT_TRUE(online.ok()) << online.status();

  EXPECT_EQ(RuleKeys(*batch), RuleKeys(*online));
}

TEST_F(IncrementalTest, MatchesBatchOnGeneratedCorpus) {
  datagen::DatasetConfig config;
  config.seed = 5;
  config.num_classes = 60;
  config.num_leaves = 25;
  config.catalog_size = 900;
  config.num_links = 400;
  config.num_signal_classes = 5;
  config.num_other_frequent_classes = 6;
  config.signal_class_min_links = 25;
  config.signal_class_max_links = 50;
  config.frequent_class_min_links = 6;
  config.frequent_class_max_links = 10;
  config.tail_class_cap_links = 4;
  auto dataset = datagen::DatasetGenerator(config).Generate();
  ASSERT_TRUE(dataset.ok());
  const TrainingSet ts = datagen::BuildTrainingSet(*dataset);

  IncrementalRuleLearner incremental(&dataset->ontology(), &segmenter_);
  for (const auto& example : ts.examples()) {
    Item item;
    item.iri = example.external_iri;
    for (const auto& [property, value] : example.facts) {
      item.facts.push_back(
          PropertyValue{ts.properties().name(property), value});
    }
    incremental.AddExample(item, example.classes);
  }

  LearnerOptions options;
  options.support_threshold = 0.01;
  options.segmenter = &segmenter_;
  auto batch = RuleLearner(options).Learn(ts);
  LearnStats batch_stats;
  batch = RuleLearner(options).Learn(ts, &batch_stats);
  ASSERT_TRUE(batch.ok());
  LearnStats online_stats;
  auto online = incremental.BuildRules(0.01, 0.0, &online_stats);
  ASSERT_TRUE(online.ok());

  EXPECT_EQ(batch->size(), online->size());
  EXPECT_EQ(batch_stats.distinct_segments, online_stats.distinct_segments);
  EXPECT_EQ(batch_stats.segment_occurrences,
            online_stats.segment_occurrences);
  EXPECT_EQ(batch_stats.selected_segment_occurrences,
            online_stats.selected_segment_occurrences);
  EXPECT_EQ(batch_stats.frequent_premises, online_stats.frequent_premises);
  EXPECT_EQ(batch_stats.frequent_classes, online_stats.frequent_classes);
  EXPECT_EQ(batch_stats.classes_with_rules,
            online_stats.classes_with_rules);
}

TEST_F(IncrementalTest, RulesAppearAsSupportGrows) {
  IncrementalRuleLearner learner(&onto_, &segmenter_);
  // One example: "SIG" supported by 1/1 -> frequency 1.0 > th.
  learner.AddExample(MakeItem("SIG"), {a_});
  auto rules = learner.BuildRules(0.5);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 1u);

  // Add 3 unrelated examples: SIG frequency drops to 0.25 < 0.5.
  for (int i = 0; i < 3; ++i) {
    learner.AddExample(MakeItem("OTHER" + std::to_string(i)), {b_});
  }
  rules = learner.BuildRules(0.5);
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());

  // Add more SIG examples: the rule comes back.
  for (int i = 0; i < 4; ++i) {
    learner.AddExample(MakeItem("SIG-" + std::to_string(10 + i)), {a_});
  }
  rules = learner.BuildRules(0.5);
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ(rules->segment_text(rules->rules()[0]), "SIG");
  EXPECT_EQ(rules->rules()[0].counts.premise_count, 5u);
  EXPECT_EQ(rules->rules()[0].counts.total, 8u);
}

TEST_F(IncrementalTest, MostSpecificReductionApplied) {
  IncrementalRuleLearner learner(&onto_, &segmenter_);
  learner.AddExample(MakeItem("X"), {root_, a_});
  learner.AddExample(MakeItem("X"), {a_});
  auto rules = learner.BuildRules(0.4);
  ASSERT_TRUE(rules.ok());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ(rules->rules()[0].cls, a_);  // not Root
  EXPECT_EQ(rules->rules()[0].counts.class_count, 2u);
}

TEST_F(IncrementalTest, PropertySelection) {
  IncrementalRuleLearner learner(&onto_, &segmenter_, {"pn"});
  Item item = MakeItem("SIG-1");
  item.facts.push_back(PropertyValue{"mfr", "ACME"});
  learner.AddExample(item, {a_});
  learner.AddExample(MakeItem("SIG-2"), {a_});
  auto rules = learner.BuildRules(0.4);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : rules->rules()) {
    EXPECT_NE(rules->segment_text(rule), "ACME");
  }
}

// Pins the shared support boundary (IsFrequentCount): a conjunction seen
// in count == th * |TS| examples EXACTLY is not frequent — strict '>',
// for all three learners identically. th = 0.25 over 8 examples puts the
// boundary at count == 2 with the product exactly representable, so any
// learner that drifts to '>=' (or recomputes the ratio with a division)
// admits the EDGE premise and the (J, a) joint and diverges here.
TEST_F(IncrementalTest, SupportBoundaryMatchesBatchExactly) {
  const std::vector<std::pair<std::string, ontology::ClassId>> corpus = {
      {"EDGE KEEP", a_}, {"EDGE KEEP", a_}, {"KEEP", a_}, {"J", a_},
      {"J", a_},         {"J", b_},         {"U1", b_},   {"U2", b_},
  };
  // Premise counts: EDGE = 2 (== 0.25 * 8, boundary -> excluded),
  // KEEP = 3 (frequent), J = 3 (frequent). Joints: (KEEP, a) = 3
  // (frequent), (J, a) = 2 (boundary -> excluded), (J, b) = 1. Classes:
  // a = 5, b = 3 (both frequent). Exactly one rule survives.
  TrainingSet ts(onto_);
  IncrementalRuleLearner incremental(&onto_, &segmenter_);
  for (const auto& [pn, cls] : corpus) {
    ts.AddExample(MakeItem(pn), "local:x", {cls});
    incremental.AddExample(MakeItem(pn), {cls});
  }

  LearnerOptions options;
  options.support_threshold = 0.25;
  options.segmenter = &segmenter_;
  auto batch = RuleLearner(options).Learn(ts);
  ASSERT_TRUE(batch.ok());
  auto reference = ReferenceLearn(options, ts);
  ASSERT_TRUE(reference.ok());
  auto online = incremental.BuildRules(0.25);
  ASSERT_TRUE(online.ok());

  EXPECT_EQ(RuleKeys(*batch), RuleKeys(*online));
  EXPECT_EQ(RuleKeys(*reference), RuleKeys(*online));
  ASSERT_EQ(online->size(), 1u);
  const ClassificationRule& rule = online->rules()[0];
  EXPECT_EQ(online->segment_text(rule), "KEEP");
  EXPECT_EQ(rule.cls, a_);
  EXPECT_EQ(rule.counts.premise_count, 3u);
  EXPECT_EQ(rule.counts.joint_count, 3u);
  EXPECT_EQ(rule.counts.class_count, 5u);

  // The generalizer shares the boundary: at max_levels_up = 0 its
  // conclusions are the asserted classes, so EDGE (2 of 8) still gives no
  // rule, and one more EDGE example (3 of 9, above 0.25 * 9) gives one.
  GeneralizerOptions general;
  general.support_threshold = 0.25;
  general.max_levels_up = 0;
  general.segmenter = &segmenter_;
  auto generalized = LearnGeneralizedRules(ts, general);
  ASSERT_TRUE(generalized.ok()) << generalized.status();
  EXPECT_EQ(RuleKeys(*generalized), RuleKeys(*online));
  ts.AddExample(MakeItem("EDGE"), "local:x", {a_});
  generalized = LearnGeneralizedRules(ts, general);
  ASSERT_TRUE(generalized.ok()) << generalized.status();
  const auto edge = std::find_if(
      generalized->rules().begin(), generalized->rules().end(),
      [&](const ClassificationRule& r) {
        return generalized->segment_text(r) == "EDGE";
      });
  ASSERT_NE(edge, generalized->rules().end());
  EXPECT_EQ(edge->cls, a_);
  EXPECT_EQ(edge->counts.premise_count, 3u);
  EXPECT_EQ(edge->counts.joint_count, 3u);
  EXPECT_EQ(edge->counts.total, 9u);
}

// Differential for the interned property-selection fast path: with a
// multi-property corpus and P = {pn, mfr}, the incremental learner (which
// now resolves membership via its pre-interned catalog) must produce the
// same rules as the batch learner's name-set filter — selected properties
// contribute, the unselected one never does.
TEST_F(IncrementalTest, MultiPropertySelectionMatchesBatch) {
  TrainingSet ts(onto_);
  IncrementalRuleLearner incremental(&onto_, &segmenter_, {"pn", "mfr"});
  for (int i = 0; i < 8; ++i) {
    Item item;
    item.iri = "ext:x";
    item.facts.push_back(PropertyValue{
        "pn", i < 3 ? "PNSEG" : "UNIQP" + std::to_string(i)});
    item.facts.push_back(PropertyValue{
        "mfr", i < 4 ? "ACME" : "UNIQM" + std::to_string(i)});
    item.facts.push_back(PropertyValue{"desc", "DESCSEG"});
    const ontology::ClassId cls = i < 4 ? a_ : b_;
    ts.AddExample(item, "local:x", {cls});
    incremental.AddExample(item, {cls});
  }

  LearnerOptions options;
  options.support_threshold = 0.25;
  options.segmenter = &segmenter_;
  options.properties = {"pn", "mfr"};
  auto batch = RuleLearner(options).Learn(ts);
  ASSERT_TRUE(batch.ok());
  auto online = incremental.BuildRules(0.25);
  ASSERT_TRUE(online.ok());

  EXPECT_EQ(RuleKeys(*batch), RuleKeys(*online));
  bool saw_pn = false, saw_mfr = false;
  for (const auto& rule : online->rules()) {
    // DESCSEG occurs in all 8 examples — frequent by count, but its
    // property is outside P, so it must never surface.
    EXPECT_NE(online->segment_text(rule), "DESCSEG");
    saw_pn = saw_pn || online->segment_text(rule) == "PNSEG";
    saw_mfr = saw_mfr || online->segment_text(rule) == "ACME";
  }
  EXPECT_TRUE(saw_pn);
  EXPECT_TRUE(saw_mfr);
}

TEST_F(IncrementalTest, Errors) {
  IncrementalRuleLearner learner(&onto_, &segmenter_);
  EXPECT_FALSE(learner.BuildRules(0.5).ok());  // no examples
  learner.AddExample(MakeItem("X"), {a_});
  EXPECT_FALSE(learner.BuildRules(0.0).ok());
  EXPECT_FALSE(learner.BuildRules(1.0).ok());
  EXPECT_TRUE(learner.BuildRules(0.5).ok());
}

}  // namespace
}  // namespace rulelink::core
