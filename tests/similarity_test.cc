#include "text/similarity.h"

#include <gtest/gtest.h>

namespace rulelink::text {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", "abd"), 1u);
}

TEST(DamerauTest, TranspositionCostsOne) {
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba"), 1u);
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2u);
  EXPECT_EQ(DamerauLevenshteinDistance("CRCW", "CRWC"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("abc", "abc"), 0u);
}

TEST(LevenshteinSimilarityTest, Normalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("abcd", "abcx"), 0.75, 1e-9);
}

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-5);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("DIXON", "DICKSONX"), 0.813333, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoostsScore) {
  EXPECT_GT(JaroWinklerSimilarity("CRCW0805", "CRCW0806"),
            JaroSimilarity("CRCW0805", "CRCW0806"));
}

TEST(JaccardTest, TokenOverlap) {
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a b", "c d"), 0.0);
  EXPECT_NEAR(JaccardTokenSimilarity("a b c", "b c d"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("", ""), 1.0);
}

TEST(DiceBigramTest, KnownValues) {
  EXPECT_DOUBLE_EQ(DiceBigramSimilarity("night", "night"), 1.0);
  EXPECT_NEAR(DiceBigramSimilarity("night", "nacht"), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(DiceBigramSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(DiceBigramSimilarity("ab", ""), 0.0);
}

TEST(CharacterBigramsTest, Extraction) {
  const auto grams = CharacterBigrams("abc");
  ASSERT_EQ(grams.size(), 2u);
  EXPECT_EQ(grams[0], "ab");
  EXPECT_EQ(grams[1], "bc");
  EXPECT_EQ(CharacterBigrams("a").size(), 1u);
  EXPECT_TRUE(CharacterBigrams("").empty());
}

TEST(MongeElkanTest, TokenwiseBestMatch) {
  // Every token of the first string has a perfect counterpart.
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity("louvre museum", "museum louvre"),
                   1.0);
  EXPECT_GT(MongeElkanSimilarity("louvre museum", "louvre musee"), 0.8);
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity("a", ""), 0.0);
}

TEST(TfIdfTest, IdenticalDocumentsScoreOne) {
  TfIdfCosine tfidf;
  tfidf.AddDocument({"a", "b"});
  tfidf.AddDocument({"c", "d"});
  tfidf.Finalize();
  EXPECT_NEAR(tfidf.Similarity({"a", "b"}, {"a", "b"}), 1.0, 1e-9);
}

TEST(TfIdfTest, DisjointDocumentsScoreZero) {
  TfIdfCosine tfidf;
  tfidf.AddDocument({"a"});
  tfidf.AddDocument({"b"});
  tfidf.Finalize();
  EXPECT_DOUBLE_EQ(tfidf.Similarity({"a"}, {"b"}), 0.0);
}

TEST(TfIdfTest, RareTokensWeighMore) {
  TfIdfCosine tfidf;
  for (int i = 0; i < 50; ++i) tfidf.AddDocument({"common", "x"});
  tfidf.AddDocument({"rare", "common"});
  tfidf.Finalize();
  // Sharing the rare token must beat sharing the common one.
  EXPECT_GT(tfidf.Similarity({"rare", "a"}, {"rare", "b"}),
            tfidf.Similarity({"common", "a"}, {"common", "b"}));
}

TEST(TfIdfTest, EmptyDocuments) {
  TfIdfCosine tfidf;
  tfidf.AddDocument({"a"});
  tfidf.Finalize();
  EXPECT_DOUBLE_EQ(tfidf.Similarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(tfidf.Similarity({"a"}, {}), 0.0);
}

// Property sweep: every measure is in [0,1], symmetric, and 1 on identity.
struct SimPair {
  const char* a;
  const char* b;
};

class SimilarityProperty : public ::testing::TestWithParam<SimPair> {};

TEST_P(SimilarityProperty, RangeSymmetryIdentity) {
  const std::string a = GetParam().a;
  const std::string b = GetParam().b;
  const auto check = [&](double (*f)(std::string_view, std::string_view),
                         const char* name) {
    const double ab = f(a, b);
    const double ba = f(b, a);
    EXPECT_GE(ab, 0.0) << name;
    EXPECT_LE(ab, 1.0) << name;
    EXPECT_NEAR(ab, ba, 1e-12) << name << " not symmetric";
    EXPECT_DOUBLE_EQ(f(a, a), 1.0) << name << " identity";
  };
  check(&LevenshteinSimilarity, "levenshtein");
  check(&JaroSimilarity, "jaro");
  check(&JaroWinklerSimilarity, "jaro-winkler");
  check(&JaccardTokenSimilarity, "jaccard");
  check(&DiceBigramSimilarity, "dice");
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SimilarityProperty,
    ::testing::Values(SimPair{"", ""}, SimPair{"a", "b"},
                      SimPair{"CRCW0805", "CRCW0806"},
                      SimPair{"T83 106 16V", "T83.106.16V"},
                      SimPair{"completely", "different"},
                      SimPair{"short", "a much longer string entirely"},
                      SimPair{"same", "same"}));

// Triangle-ish sanity: distance metrics obey d(a,c) <= d(a,b) + d(b,c).
TEST(LevenshteinTest, TriangleInequalitySpotChecks) {
  const char* words[] = {"kitten", "sitting", "mitten", "", "kit"};
  for (const char* a : words) {
    for (const char* b : words) {
      for (const char* c : words) {
        EXPECT_LE(LevenshteinDistance(a, c),
                  LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
      }
    }
  }
}

}  // namespace
}  // namespace rulelink::text
