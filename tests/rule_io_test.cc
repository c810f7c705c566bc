#include "core/rule_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "util/interner.h"
#include "util/logging.h"

namespace rulelink::core {
namespace {

util::StringInterner& TestSegments() {
  static util::StringInterner* interner = new util::StringInterner();
  return *interner;
}

class RuleIoTest : public ::testing::Test {
 protected:
  RuleIoTest() {
    a_ = onto_.AddClass("http://e/A", "A");
    b_ = onto_.AddClass("http://e/B", "B");
    RL_CHECK_OK(onto_.Finalize());

    PropertyCatalog properties;
    properties.Intern("http://s/pn");
    properties.Intern("http://s/label");
    std::vector<ClassificationRule> rules;
    rules.push_back(Make(0, "CRCW0805", a_, 40, 50, 40, 1000));
    rules.push_back(Make(0, "with\ttab and \\slash", b_, 30, 60, 24, 1000));
    rules.push_back(Make(1, "ohm", a_, 100, 50, 45, 1000));
    set_ = std::make_unique<RuleSet>(std::move(rules), properties,
                                     TestSegments());
  }

  static ClassificationRule Make(PropertyId property,
                                 const std::string& segment,
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

  ontology::Ontology onto_;
  ontology::ClassId a_, b_;
  std::unique_ptr<RuleSet> set_;
};

TEST_F(RuleIoTest, RoundTripPreservesEverything) {
  const std::string serialized = WriteRules(*set_, onto_);
  auto loaded = ReadRules(serialized, onto_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), set_->size());
  for (std::size_t i = 0; i < set_->size(); ++i) {
    const ClassificationRule& original = set_->rules()[i];
    const ClassificationRule& copy = loaded->rules()[i];
    EXPECT_EQ(loaded->properties().name(copy.property),
              set_->properties().name(original.property));
    EXPECT_EQ(loaded->segment_text(copy), set_->segment_text(original));
    EXPECT_EQ(copy.cls, original.cls);
    EXPECT_EQ(copy.counts.premise_count, original.counts.premise_count);
    EXPECT_DOUBLE_EQ(copy.confidence, original.confidence);
    EXPECT_DOUBLE_EQ(copy.lift, original.lift);
    EXPECT_DOUBLE_EQ(copy.support, original.support);
  }
}

TEST_F(RuleIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/rules_io_test.tsv";
  ASSERT_TRUE(WriteRulesToFile(*set_, onto_, path).ok());
  auto loaded = ReadRulesFromFile(path, onto_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), set_->size());
  std::remove(path.c_str());
}

TEST_F(RuleIoTest, CommentsAndBlankLinesIgnored) {
  auto loaded = ReadRules(
      "# comment\n\n"
      "http://s/pn\tT83\thttp://e/A\t10\t20\t10\t100\n",
      onto_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->rules()[0].confidence, 1.0);
}

// Regression for the v2 measure columns: save -> load -> save must be
// byte-identical, including the shortest-round-trip doubles, across rule
// counts chosen to produce awkward fractions (1/3, 1/7, ...). A fixed
// seed keeps the test deterministic.
TEST_F(RuleIoTest, RandomizedSaveLoadSaveIsByteIdentical) {
  std::mt19937 rng(20260805u);
  std::uniform_int_distribution<std::size_t> count_dist(1, 997);
  PropertyCatalog properties;
  properties.Intern("http://s/pn");
  properties.Intern("http://s/label");
  std::vector<ClassificationRule> rules;
  for (int i = 0; i < 200; ++i) {
    const std::size_t total = 1000;
    std::size_t premise = count_dist(rng);
    std::size_t class_count = count_dist(rng);
    const std::size_t joint =
        std::uniform_int_distribution<std::size_t>(
            1, std::min({premise, class_count}))(rng);
    rules.push_back(Make(i % 2, "seg-" + std::to_string(i), i % 2 ? b_ : a_,
                         premise, class_count, joint, total));
  }
  const RuleSet original(std::move(rules), properties, TestSegments());

  const std::string first = WriteRules(original, onto_);
  auto loaded = ReadRules(first, onto_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string second = WriteRules(*loaded, onto_);
  EXPECT_EQ(first, second);
  // Bit-exact measures, not just approximately equal.
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->rules()[i].confidence, original.rules()[i].confidence);
    EXPECT_EQ(loaded->rules()[i].lift, original.rules()[i].lift);
  }
}

// v1 files (7 columns, no version header or a v1 header) still load, with
// measures recomputed from the counts.
TEST_F(RuleIoTest, ReadsLegacyV1Format) {
  auto loaded = ReadRules(
      "# rulelink classification rules v1\n"
      "http://s/pn\tT83\thttp://e/A\t10\t20\t10\t100\n",
      onto_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->rules()[0].confidence, 1.0);
}

TEST_F(RuleIoTest, WriterEmitsV2Header) {
  EXPECT_NE(WriteRules(*set_, onto_).find(
                "# rulelink classification rules v2"),
            std::string::npos);
}

TEST_F(RuleIoTest, RejectsBadV2MeasureFields) {
  const std::string header = "# rulelink classification rules v2\n";
  // Unparsable confidence.
  EXPECT_FALSE(
      ReadRules(header +
                    "http://s/pn\tT83\thttp://e/A\t10\t20\t10\t100\tx\t2\n",
                onto_)
          .ok());
  // Confidence outside [0, 1].
  EXPECT_FALSE(
      ReadRules(header +
                    "http://s/pn\tT83\thttp://e/A\t10\t20\t10\t100\t1.5\t2\n",
                onto_)
          .ok());
  // Non-finite lift.
  EXPECT_FALSE(ReadRules(
                   header +
                       "http://s/pn\tT83\thttp://e/A\t10\t20\t10\t100\t1\tnan\n",
                   onto_)
                   .ok());
  // v2 requires 9 fields.
  EXPECT_FALSE(
      ReadRules(header + "http://s/pn\tT83\thttp://e/A\t10\t20\t10\t100\n",
                onto_)
          .ok());
}

TEST_F(RuleIoTest, RejectsUnknownClass) {
  auto loaded = ReadRules(
      "http://s/pn\tT83\thttp://e/Nope\t10\t20\t10\t100\n", onto_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown class"),
            std::string::npos);
}

TEST_F(RuleIoTest, RejectsWrongFieldCount) {
  auto loaded = ReadRules("http://s/pn\tT83\thttp://e/A\t10\n", onto_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
}

TEST_F(RuleIoTest, RejectsBadCounts) {
  EXPECT_FALSE(ReadRules(
                   "http://s/pn\tT83\thttp://e/A\tten\t20\t10\t100\n", onto_)
                   .ok());
  // joint > premise is inconsistent.
  EXPECT_FALSE(ReadRules(
                   "http://s/pn\tT83\thttp://e/A\t5\t20\t10\t100\n", onto_)
                   .ok());
}

TEST_F(RuleIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadRulesFromFile("/nonexistent/rules.tsv", onto_)
                .status()
                .code(),
            util::StatusCode::kNotFound);
}

TEST_F(RuleIoTest, DirectoryIsInvalidArgument) {
  const util::Status status =
      ReadRulesFromFile(::testing::TempDir(), onto_).status();
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(::testing::TempDir()), std::string::npos)
      << status;
}

TEST_F(RuleIoTest, EmptyContentYieldsEmptyRuleSet) {
  auto loaded = ReadRules("", onto_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

}  // namespace
}  // namespace rulelink::core
