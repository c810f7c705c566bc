#include "core/measures.h"

#include <gtest/gtest.h>

namespace rulelink::core {
namespace {

RuleCounts Counts(std::size_t premise, std::size_t cls, std::size_t joint,
                  std::size_t total) {
  RuleCounts c;
  c.premise_count = premise;
  c.class_count = cls;
  c.joint_count = joint;
  c.total = total;
  return c;
}

TEST(MeasuresTest, PaperFormulas) {
  // 50 premise matches, 100 class members, 40 joint, 1000 examples.
  const RuleCounts c = Counts(50, 100, 40, 1000);
  EXPECT_DOUBLE_EQ(Support(c), 0.04);      // joint / total
  EXPECT_DOUBLE_EQ(Confidence(c), 0.8);    // joint / premise
  EXPECT_DOUBLE_EQ(Lift(c), 0.8 / 0.1);    // confidence / prior
  EXPECT_DOUBLE_EQ(Coverage(c), 0.05);     // premise / total
}

TEST(MeasuresTest, PerfectRule) {
  const RuleCounts c = Counts(40, 40, 40, 1000);
  EXPECT_DOUBLE_EQ(Confidence(c), 1.0);
  EXPECT_DOUBLE_EQ(Lift(c), 25.0);  // 1 / (40/1000)
  EXPECT_DOUBLE_EQ(Conviction(c), kMaxConviction);
}

TEST(MeasuresTest, IndependenceGivesLiftOne) {
  // premise and class independent: joint/total = (premise/total)(class/total)
  const RuleCounts c = Counts(100, 200, 20, 1000);
  EXPECT_DOUBLE_EQ(Lift(c), 1.0);
}

TEST(MeasuresTest, ZeroDenominators) {
  EXPECT_DOUBLE_EQ(Support(Counts(0, 0, 0, 0)), 0.0);
  EXPECT_DOUBLE_EQ(Confidence(Counts(0, 5, 0, 10)), 0.0);
  EXPECT_DOUBLE_EQ(Lift(Counts(5, 0, 0, 10)), 0.0);
  EXPECT_DOUBLE_EQ(Coverage(Counts(0, 0, 0, 0)), 0.0);
  EXPECT_DOUBLE_EQ(Specificity(Counts(5, 10, 5, 10)), 0.0);  // all in class
  EXPECT_DOUBLE_EQ(Conviction(Counts(0, 0, 0, 0)), 0.0);
}

TEST(MeasuresTest, Specificity) {
  // total 100, class 40, premise 30, joint 25:
  // TN = 100 - 30 - 40 + 25 = 55; not-class = 60.
  const RuleCounts c = Counts(30, 40, 25, 100);
  EXPECT_NEAR(Specificity(c), 55.0 / 60.0, 1e-12);
}

TEST(MeasuresTest, Conviction) {
  // prior 0.4, confidence 0.8 -> (1-0.4)/(1-0.8) = 3.
  const RuleCounts c = Counts(50, 400, 40, 1000);
  EXPECT_NEAR(Conviction(c), 3.0, 1e-12);
}

TEST(MeasuresTest, ConsistencyChecker) {
  EXPECT_TRUE(CountsAreConsistent(Counts(50, 100, 40, 1000)));
  EXPECT_FALSE(CountsAreConsistent(Counts(50, 100, 60, 1000)));  // joint > premise
  EXPECT_FALSE(CountsAreConsistent(Counts(50, 30, 40, 1000)));   // joint > class
  EXPECT_FALSE(CountsAreConsistent(Counts(2000, 100, 40, 1000)));
  EXPECT_FALSE(CountsAreConsistent(Counts(50, 2000, 40, 1000)));
}

// Property sweep: invariant relations between the measures.
struct CountCase {
  std::size_t premise, cls, joint, total;
};

class MeasureProperty : public ::testing::TestWithParam<CountCase> {};

TEST_P(MeasureProperty, Invariants) {
  const auto& p = GetParam();
  const RuleCounts c = Counts(p.premise, p.cls, p.joint, p.total);
  ASSERT_TRUE(CountsAreConsistent(c));

  // All probabilities in range.
  EXPECT_GE(Support(c), 0.0);
  EXPECT_LE(Support(c), 1.0);
  EXPECT_GE(Confidence(c), 0.0);
  EXPECT_LE(Confidence(c), 1.0);
  EXPECT_GE(Coverage(c), 0.0);
  EXPECT_LE(Coverage(c), 1.0);
  // support <= coverage (joint <= premise).
  EXPECT_LE(Support(c), Coverage(c) + 1e-12);
  // support <= confidence.
  EXPECT_LE(Support(c), Confidence(c) + 1e-12);
  // lift = confidence / prior, cross-check.
  if (p.cls > 0 && p.total > 0) {
    const double prior =
        static_cast<double>(p.cls) / static_cast<double>(p.total);
    EXPECT_NEAR(Lift(c), Confidence(c) / prior, 1e-9);
    // The paper: "lift is a value between 0 and infinity"; confidence-1
    // rules have lift = 1/prior.
    if (Confidence(c) == 1.0) {
      EXPECT_NEAR(Lift(c), 1.0 / prior, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MeasureProperty,
    ::testing::Values(CountCase{50, 100, 40, 1000},
                      CountCase{1, 1, 1, 1},
                      CountCase{10, 10, 10, 100},
                      CountCase{200, 20, 20, 10265},
                      CountCase{21, 68, 21, 10265},
                      CountCase{100, 100, 0, 1000},
                      CountCase{0, 10, 0, 100}));

}  // namespace
}  // namespace rulelink::core
