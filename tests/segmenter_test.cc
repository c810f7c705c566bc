#include "text/segmenter.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace rulelink::text {
namespace {

TEST(SeparatorSegmenterTest, SplitsOnNonAlphanumerics) {
  const SeparatorSegmenter seg;
  const auto parts = seg.Segment("CRCW0805-4K7.ohm  RoHS/x");
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "CRCW0805");
  EXPECT_EQ(parts[1], "4K7");
  EXPECT_EQ(parts[2], "ohm");
  EXPECT_EQ(parts[3], "RoHS");
  EXPECT_EQ(parts[4], "x");
}

TEST(SeparatorSegmenterTest, PaperExampleSeparators) {
  // "space, '-', '.'" from §5.
  const SeparatorSegmenter seg;
  EXPECT_EQ(seg.Segment("T83 106.16V-X").size(), 4u);
}

TEST(SeparatorSegmenterTest, EmptyAndSeparatorOnlyValues) {
  const SeparatorSegmenter seg;
  EXPECT_TRUE(seg.Segment("").empty());
  EXPECT_TRUE(seg.Segment("--..  //").empty());
}

TEST(SeparatorSegmenterTest, NoSeparatorKeepsWhole) {
  const SeparatorSegmenter seg;
  const auto parts = seg.Segment("CRCW0805");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "CRCW0805");
}

TEST(SeparatorSegmenterTest, ExplicitSeparatorSet) {
  const SeparatorSegmenter seg(":-");
  const auto parts = seg.Segment("a:b-c.d");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c.d");  // '.' not in the set
}

TEST(SeparatorSegmenterTest, DuplicateSegmentsAreKept) {
  const SeparatorSegmenter seg;
  const auto parts = seg.Segment("ohm-x-ohm");
  EXPECT_EQ(std::count(parts.begin(), parts.end(), "ohm"), 2);
}

TEST(NGramSegmenterTest, ProducesSlidingWindows) {
  const NGramSegmenter seg(3);
  const auto parts = seg.Segment("abcde");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "abc");
  EXPECT_EQ(parts[1], "bcd");
  EXPECT_EQ(parts[2], "cde");
}

TEST(NGramSegmenterTest, ShortValuesYieldWholeValue) {
  const NGramSegmenter seg(4);
  const auto parts = seg.Segment("abc");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
  EXPECT_TRUE(seg.Segment("").empty());
}

TEST(NGramSegmenterTest, ExactLengthYieldsOne) {
  const NGramSegmenter seg(3);
  ASSERT_EQ(seg.Segment("abc").size(), 1u);
}

TEST(NGramSegmenterTest, NameIncludesN) {
  EXPECT_EQ(NGramSegmenter(2).name(), "ngram(2)");
}

TEST(AlphaDigitSegmenterTest, SplitsOnAlphaDigitBoundary) {
  const AlphaDigitSegmenter seg;
  const auto parts = seg.Segment("CRCW0805-63V");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "CRCW");
  EXPECT_EQ(parts[1], "0805");
  EXPECT_EQ(parts[2], "63");
  EXPECT_EQ(parts[3], "V");
}

TEST(AlphaDigitSegmenterTest, PureTokensPassThrough) {
  const AlphaDigitSegmenter seg;
  const auto parts = seg.Segment("ohm-123");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "ohm");
  EXPECT_EQ(parts[1], "123");
}

// Property sweep over segmenters: segments never contain the separator
// characters, and re-joining loses no alphanumeric content.
class SegmenterProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(SegmenterProperty, SeparatorSegmentsContainNoSeparators) {
  const SeparatorSegmenter seg;
  for (const std::string& part : seg.Segment(GetParam())) {
    EXPECT_FALSE(part.empty());
    for (char c : part) {
      EXPECT_TRUE(util::IsAsciiAlnum(c)) << "in segment: " << part;
    }
  }
}

TEST_P(SegmenterProperty, SegmentsPreserveAlnumContent) {
  const SeparatorSegmenter seg;
  std::string joined;
  for (const std::string& part : seg.Segment(GetParam())) joined += part;
  std::string expected;
  for (char c : std::string(GetParam())) {
    if (util::IsAsciiAlnum(c)) expected.push_back(c);
  }
  EXPECT_EQ(joined, expected);
}

TEST_P(SegmenterProperty, NGramCountFormula) {
  const std::string input(GetParam());
  for (std::size_t n : {1u, 2u, 3u, 5u}) {
    const NGramSegmenter seg(n);
    const auto parts = seg.Segment(input);
    if (input.empty()) {
      EXPECT_TRUE(parts.empty());
    } else if (input.size() <= n) {
      EXPECT_EQ(parts.size(), 1u);
    } else {
      EXPECT_EQ(parts.size(), input.size() - n + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, SegmenterProperty,
    ::testing::Values("", "a", "CRCW0805-4K7-ohm", "  spaces  everywhere  ",
                      "...", "T83.106.16V", "a1-b2_c3/d4.e5 f6",
                      "UPPER lower 0123456789"));

}  // namespace
}  // namespace rulelink::text
