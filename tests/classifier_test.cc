#include "core/classifier.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "text/segmenter.h"
#include "util/interner.h"
#include "util/logging.h"

namespace rulelink::core {
namespace {

// Shared symbol table for hand-built test rules; RuleSet re-interns
// compactly, so sharing ids across fixtures is harmless.
util::StringInterner& TestSegments() {
  static util::StringInterner* interner = new util::StringInterner();
  return *interner;
}

ClassificationRule MakeRule(PropertyId property, const std::string& segment,
                            ontology::ClassId cls, std::size_t premise,
                            std::size_t class_count, std::size_t joint,
                            std::size_t total) {
  ClassificationRule rule;
  rule.property = property;
  rule.segment = TestSegments().Intern(segment);
  rule.cls = cls;
  rule.counts = RuleCounts{premise, class_count, joint, total};
  rule.ComputeMeasures();
  return rule;
}

class ClassifierTest : public ::testing::Test {
 protected:
  ClassifierTest() {
    properties_.Intern("pn");  // id 0
    std::vector<ClassificationRule> rules;
    rules.push_back(MakeRule(0, "T83", 1, 10, 10, 10, 100));    // conf 1, cls 1
    rules.push_back(MakeRule(0, "OHM", 2, 20, 25, 15, 100));    // conf .75
    rules.push_back(MakeRule(0, "MIX", 1, 20, 10, 10, 100));    // conf .5 -> 1
    rules.push_back(MakeRule(0, "MIX", 3, 20, 40, 8, 100));     // conf .4 -> 3
    set_ = std::make_unique<RuleSet>(std::move(rules), properties_,
                                     TestSegments());
    classifier_ = std::make_unique<RuleClassifier>(set_.get(), &segmenter_);
  }

  Item MakeItem(const std::string& pn) {
    Item item;
    item.iri = "ext:x";
    item.facts.push_back(PropertyValue{"pn", pn});
    return item;
  }

  PropertyCatalog properties_;
  std::unique_ptr<RuleSet> set_;
  text::SeparatorSegmenter segmenter_;
  std::unique_ptr<RuleClassifier> classifier_;
};

TEST_F(ClassifierTest, SingleRuleFires) {
  const auto predictions = classifier_->Classify(MakeItem("T83-106"));
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(predictions[0].cls, 1u);
  EXPECT_DOUBLE_EQ(predictions[0].confidence, 1.0);
}

TEST_F(ClassifierTest, NoRuleFires) {
  EXPECT_TRUE(classifier_->Classify(MakeItem("ZZZ-999")).empty());
}

TEST_F(ClassifierTest, PredictionsOrderedByConfidenceThenLift) {
  const auto predictions =
      classifier_->Classify(MakeItem("T83-OHM-MIX"));
  ASSERT_EQ(predictions.size(), 3u);
  EXPECT_EQ(predictions[0].cls, 1u);  // conf 1 (T83 beats MIX->1 dedupe)
  EXPECT_EQ(predictions[1].cls, 2u);  // conf .75
  EXPECT_EQ(predictions[2].cls, 3u);  // conf .4
  for (std::size_t i = 1; i < predictions.size(); ++i) {
    EXPECT_GE(predictions[i - 1].confidence, predictions[i].confidence);
  }
}

TEST_F(ClassifierTest, DuplicateSubspaceKeepsBestRule) {
  // Both T83 (conf 1) and MIX (conf .5) predict class 1: §4.4 says keep the
  // better-confidence rule only.
  const auto predictions = classifier_->Classify(MakeItem("T83-MIX"));
  std::size_t count_cls1 = 0;
  for (const auto& p : predictions) count_cls1 += p.cls == 1u;
  EXPECT_EQ(count_cls1, 1u);
  EXPECT_DOUBLE_EQ(predictions[0].confidence, 1.0);
}

TEST_F(ClassifierTest, MinConfidenceFilters) {
  const auto predictions =
      classifier_->Classify(MakeItem("T83-OHM-MIX"), 0.6);
  ASSERT_EQ(predictions.size(), 2u);
  for (const auto& p : predictions) EXPECT_GE(p.confidence, 0.6);
}

TEST_F(ClassifierTest, TopRankedClassComesFirst) {
  const auto predictions = classifier_->Classify(MakeItem("OHM-MIX"));
  ASSERT_FALSE(predictions.empty());
  EXPECT_EQ(predictions.front().cls, 2u);
}

TEST_F(ClassifierTest, UnknownPropertyIgnored) {
  Item item;
  item.iri = "ext:y";
  item.facts.push_back(PropertyValue{"unrelated", "T83"});
  EXPECT_TRUE(classifier_->Classify(item).empty());
}

TEST_F(ClassifierTest, RuleIndexPointsToFiredRule) {
  const auto predictions = classifier_->Classify(MakeItem("OHM-1"));
  ASSERT_EQ(predictions.size(), 1u);
  const auto& rule = set_->rules()[predictions[0].rule_index];
  EXPECT_EQ(set_->segment_text(rule), "OHM");
  EXPECT_EQ(rule.cls, predictions[0].cls);
}

TEST_F(ClassifierTest, SegmentMustMatchExactly) {
  // "T8" and "T834" are different segments; no prefix semantics.
  EXPECT_TRUE(classifier_->Classify(MakeItem("T8-X")).empty());
  EXPECT_TRUE(classifier_->Classify(MakeItem("T834-X")).empty());
}

// ClassifyInto replaces a reused buffer with exactly Classify's
// predictions, and ClassifyBatch's workers, each on its own per-thread
// scratch, agree with it at every thread count.
TEST_F(ClassifierTest, ClassifyIntoAndBatchesMatchClassify) {
  const std::vector<std::string> parts = {
      "T83-OHM-MIX", "ZZZ-999", "MIX", "OHM-1", "T83-106", "", "MIX-MIX-T8"};
  std::vector<Item> items;
  for (int copy = 0; copy < 40; ++copy) {
    for (const std::string& part : parts) items.push_back(MakeItem(part));
  }
  const auto same = [](const std::vector<ClassPrediction>& a,
                       const std::vector<ClassPrediction>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].cls != b[i].cls || a[i].confidence != b[i].confidence ||
          a[i].lift != b[i].lift || a[i].rule_index != b[i].rule_index) {
        return false;
      }
    }
    return true;
  };
  std::vector<ClassPrediction> reused = {ClassPrediction{}};
  for (const double min_confidence : {0.0, 0.6}) {
    for (const Item& item : items) {
      const auto want = classifier_->Classify(item, min_confidence);
      classifier_->ClassifyInto(item, min_confidence, &reused);
      EXPECT_TRUE(same(reused, want)) << item.facts[0].value;
    }
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const auto batch =
          classifier_->ClassifyBatch(items, min_confidence, threads);
      ASSERT_EQ(batch.size(), items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_TRUE(same(batch[i],
                         classifier_->Classify(items[i], min_confidence)))
            << "item " << i << " at " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace rulelink::core
