// Differential coverage for the bit-parallel Jaro kernel: JaroSimilarity,
// JaroWinklerSimilarity and MongeElkanSimilarity must return the very
// same doubles (compared bit for bit) as the textbook scalar greedy Jaro
// kept below as the oracle. The oracle lives here rather than in src/
// because Linker::Run calls the same kernel as the cached path, so no
// linking differential can catch a bug in it. The prepared-pattern entry
// points (JaroSimilarityBatch, JaroWinklerSimilarityBatch) walk the other
// string against the first one's masks, so they are checked against the
// oracle in both orientations: Jaro's greedy matching must pair the same
// positions whichever string is walked. The count bounds the filter
// cascade takes from each value's signature and prefix lanes must never
// fall below their measures (Jaro, Jaro-Winkler, Levenshtein, Dice and
// Jaccard), and must equal them where they are exact; the portable
// overlap loop behind them must agree with the SSE2 one.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "text/similarity.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace rulelink::text {
namespace {

// Jaro (1989) with the greedy first-free-match scan inside the window.
double OracleJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const std::size_t window =
      std::max<std::size_t>(1, std::max(a.size(), b.size()) / 2) - 1;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::size_t lo = i > window ? i - window : 0;
    const std::size_t hi = std::min(b.size(), i + window + 1);
    for (std::size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  std::size_t transpositions = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(a.size()) +
          m / static_cast<double>(b.size()) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

double OracleJaroWinkler(std::string_view a, std::string_view b) {
  const double jaro = OracleJaro(a, b);
  std::size_t prefix = 0;
  const std::size_t max_prefix =
      std::min<std::size_t>(4, std::min(a.size(), b.size()));
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

double OracleMongeElkan(std::string_view a, std::string_view b) {
  const auto ta = util::SplitAny(a, " \t\n\r");
  const auto tb = util::SplitAny(b, " \t\n\r");
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  double total = 0.0;
  for (const auto& x : ta) {
    double best = 0.0;
    for (const auto& y : tb) best = std::max(best, OracleJaroWinkler(x, y));
    total += best;
  }
  return total / static_cast<double>(ta.size());
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Random string of `length` bytes. Mode 0: part-number ASCII, space
// included so Monge-Elkan sees several tokens. Mode 1: raw bytes 0..255
// (negative `char` on this ABI, and every entry of the mask table).
// Mode 2: UTF-8 encodings of random code points, truncated to `length`.
std::string RandomString(util::Rng& rng, std::size_t length, int mode) {
  std::string s;
  s.reserve(length + 4);
  static constexpr std::string_view kAscii =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-./ ";
  while (s.size() < length) {
    switch (mode) {
      case 0:
        s.push_back(kAscii[rng.UniformUint64(kAscii.size())]);
        break;
      case 1:
        s.push_back(static_cast<char>(rng.UniformUint64(256)));
        break;
      default: {
        const std::uint64_t cp = 0x80 + rng.UniformUint64(0x10000);
        if (cp < 0x800) {
          s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
          s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
          s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        break;
      }
    }
  }
  s.resize(length);
  return s;
}

// `a` with a few substitutions, deletions, insertions and adjacent swaps,
// so the pair has many matches and some transpositions (random pairs
// over a small alphabet match too, but rarely out of order).
std::string Perturb(util::Rng& rng, std::string a) {
  const std::size_t edits = rng.UniformUint64(6);
  for (std::size_t e = 0; e < edits && !a.empty(); ++e) {
    const std::size_t pos = rng.UniformUint64(a.size());
    switch (rng.UniformUint64(4)) {
      case 0:
        a[pos] = static_cast<char>(rng.UniformUint64(256));
        break;
      case 1:
        a.erase(pos, 1);
        break;
      case 2:
        a.insert(pos, 1, static_cast<char>(rng.UniformUint64(256)));
        break;
      default:
        if (pos + 1 < a.size()) std::swap(a[pos], a[pos + 1]);
        break;
    }
  }
  return a;
}

// Counts the pairs whose kernel double differs from the oracle's in any
// bit, reporting the first few.
std::size_t CountBitDifferences(std::string_view a, std::string_view b) {
  std::size_t differences = 0;
  const auto check = [&](const char* what, double actual, double expected) {
    if (SameBits(actual, expected)) return;
    ++differences;
    ADD_FAILURE() << what << " |a|=" << a.size() << " |b|=" << b.size()
                  << " got " << actual << " want " << expected;
  };
  check("jaro", JaroSimilarity(a, b), OracleJaro(a, b));
  check("jaro-winkler", JaroWinklerSimilarity(a, b),
        OracleJaroWinkler(a, b));
  check("monge-elkan", MongeElkanSimilarity(a, b), OracleMongeElkan(a, b));
  double batch = 0.0;
  JaroSimilarityBatch(a, &b, 1, &batch);
  check("jaro batch", batch, OracleJaro(a, b));
  check("jaro batch, walked", batch, OracleJaro(b, a));
  JaroWinklerSimilarityBatch(a, &b, 1, &batch);
  check("jaro-winkler batch", batch, OracleJaroWinkler(a, b));
  return differences;
}

// The prepared-pattern entry points over a whole batch of texts: every
// out[i] against the oracle with `pattern` first and with the text first.
// One call prepares the pattern once, so a mask entry left over from an
// earlier pattern or text would show up here.
std::size_t CountBatchBitDifferences(std::string_view pattern,
                                     const std::vector<std::string>& texts) {
  const std::vector<std::string_view> views(texts.begin(), texts.end());
  std::vector<double> jaro(views.size());
  std::vector<double> winkler(views.size());
  JaroSimilarityBatch(pattern, views.data(), views.size(), jaro.data());
  JaroWinklerSimilarityBatch(pattern, views.data(), views.size(),
                             winkler.data());
  std::size_t differences = 0;
  const auto check = [&](const char* what, std::string_view text,
                         double actual, double expected) {
    if (SameBits(actual, expected)) return;
    ++differences;
    ADD_FAILURE() << what << " |pattern|=" << pattern.size()
                  << " |text|=" << text.size() << " got " << actual
                  << " want " << expected;
  };
  for (std::size_t i = 0; i < views.size(); ++i) {
    check("jaro batch", views[i], jaro[i], OracleJaro(pattern, views[i]));
    check("jaro batch, walked", views[i], jaro[i],
          OracleJaro(views[i], pattern));
    check("jaro-winkler batch", views[i], winkler[i],
          OracleJaroWinkler(pattern, views[i]));
    check("jaro-winkler batch, walked", views[i], winkler[i],
          OracleJaroWinkler(views[i], pattern));
  }
  return differences;
}

// Random string of `length` bytes over `alphabet`. Two to four letters
// give many equal bytes per window, so the greedy choice of which equal
// byte to match, and the transpositions that follow from it, matter.
std::string RandomOver(util::Rng& rng, std::size_t length,
                       std::string_view alphabet) {
  std::string s(length, '\0');
  for (char& c : s) c = alphabet[rng.UniformUint64(alphabet.size())];
  return s;
}

constexpr std::string_view kSmallAlphabets[] = {"ab", "abc", "abcd"};

class JaroBitParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(JaroBitParallelTest, MatchesScalarOracleOnRandomStrings) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::size_t differences = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const int mode = iter % 3;
    // Each side's length independently in 0..130: both kernels, the
    // 64-byte boundary and one side far longer than the other.
    const std::string a = RandomString(rng, rng.UniformUint64(131), mode);
    std::string b = RandomString(rng, rng.UniformUint64(131), mode);
    if (rng.Bernoulli(0.5)) b = Perturb(rng, a);
    differences += CountBitDifferences(a, b);
    differences += CountBitDifferences(b, a);
  }
  EXPECT_EQ(differences, 0u) << "seed=" << GetParam();
}

TEST_P(JaroBitParallelTest, MatchesScalarOracleAtTheWordBoundary) {
  // Lengths 63, 64 and 65 on each side: the last single-word shape, the
  // full word (window bit 63, the hi == 64 mask) and the first scalar
  // fallback, including one side in the word and the other not.
  util::Rng rng(0x51ED270Bu * static_cast<std::uint64_t>(GetParam()));
  std::size_t differences = 0;
  for (const std::size_t la : {63u, 64u, 65u}) {
    for (const std::size_t lb : {63u, 64u, 65u}) {
      for (int iter = 0; iter < 60; ++iter) {
        const int mode = iter % 3;
        const std::string a = RandomString(rng, la, mode);
        std::string b = RandomString(rng, lb, mode);
        if (iter % 2 == 0) {
          b = Perturb(rng, a);
          b.resize(lb, 'x');
        }
        differences += CountBitDifferences(a, b);
      }
    }
  }
  EXPECT_EQ(differences, 0u);
}

TEST(JaroBitParallelEdgeTest, MatchesScalarOracleOnEdgeShapes) {
  std::size_t differences = 0;
  // Empty sides and single bytes: max length <= 3 gives a window of 0,
  // so only equal positions match.
  for (const std::string_view a : {"", "a", "ab", "ba", "abc", "cab"}) {
    for (const std::string_view b : {"", "a", "b", "ab", "ba", "acb"}) {
      differences += CountBitDifferences(a, b);
    }
  }
  // One side much longer: for the short side's late positions lo >= hi,
  // an empty window.
  const std::string long_a(64, 'q');
  differences += CountBitDifferences(long_a, "q");
  differences += CountBitDifferences(long_a, "qq");
  differences += CountBitDifferences("q", long_a);
  differences += CountBitDifferences(std::string(60, 'x') + "abcd", "abcd");
  // A byte that occurs only at bit 63, and only in `b`.
  const std::string b63 = std::string(63, 'z') + "\xff";
  differences += CountBitDifferences(std::string(64, 'z'), b63);
  differences += CountBitDifferences(std::string(63, 'z') + "\xff", b63);
  differences += CountBitDifferences(std::string(40, '\x80'), b63);
  // Every byte value, in order and reversed (full transpositions).
  std::string all(64, '\0');
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<char>(0xC0 + i);
  }
  std::string reversed(all.rbegin(), all.rend());
  differences += CountBitDifferences(all, reversed);
  differences += CountBitDifferences(all, all);
  EXPECT_EQ(differences, 0u);
}

TEST_P(JaroBitParallelTest, BatchMatchesOracleOnSmallAlphabets) {
  util::Rng rng(0x7A30u + static_cast<std::uint64_t>(GetParam()));
  std::size_t differences = 0;
  for (const std::string_view alphabet : kSmallAlphabets) {
    for (int iter = 0; iter < 40; ++iter) {
      // Patterns of 0..70 bytes (the scalar fallback past 64) against a
      // batch of texts of 0..150 bytes, some of them near-copies.
      const std::string pattern =
          RandomOver(rng, rng.UniformUint64(71), alphabet);
      std::vector<std::string> texts;
      for (int t = 0; t < 24; ++t) {
        texts.push_back(
            rng.Bernoulli(0.3)
                ? Perturb(rng, pattern)
                : RandomOver(rng, rng.UniformUint64(151), alphabet));
      }
      differences += CountBatchBitDifferences(pattern, texts);
      differences += CountBitDifferences(pattern, texts[0]);
      differences += CountBitDifferences(texts[0], pattern);
    }
  }
  EXPECT_EQ(differences, 0u) << "seed=" << GetParam();
}

TEST_P(JaroBitParallelTest, BatchMatchesOracleAtTheWordBoundary) {
  // Every 63/64/65-byte shape on either side: the pattern's last
  // single-word length, the full word and the first scalar fallback,
  // each against texts of the same three lengths.
  util::Rng rng(0xB0DA7u * static_cast<std::uint64_t>(GetParam()));
  std::size_t differences = 0;
  for (const std::string_view alphabet : kSmallAlphabets) {
    for (const std::size_t pattern_size : {63u, 64u, 65u}) {
      for (int iter = 0; iter < 4; ++iter) {
        const std::string pattern = RandomOver(rng, pattern_size, alphabet);
        std::vector<std::string> texts;
        for (const std::size_t text_size : {63u, 64u, 65u}) {
          texts.push_back(RandomOver(rng, text_size, alphabet));
          std::string near = Perturb(rng, pattern);
          near.resize(text_size, alphabet[0]);
          texts.push_back(near);
        }
        differences += CountBatchBitDifferences(pattern, texts);
      }
    }
  }
  EXPECT_EQ(differences, 0u) << "seed=" << GetParam();
}

TEST_P(JaroBitParallelTest, BatchWalksLongTextsAgainstShortPatterns) {
  // Texts past 64 bytes against patterns of at most 64: the walked side
  // outgrows the word. From 128 bytes on the match window covers the
  // whole word at the start, and late text positions see an empty one.
  util::Rng rng(0x10A6u + static_cast<std::uint64_t>(GetParam()));
  std::size_t differences = 0;
  for (const std::string_view alphabet : kSmallAlphabets) {
    for (int iter = 0; iter < 30; ++iter) {
      const std::string pattern =
          RandomOver(rng, 1 + rng.UniformUint64(64), alphabet);
      std::vector<std::string> texts;
      for (const std::size_t text_size :
           {65u, 100u, 126u, 127u, 128u, 129u, 130u, 200u, 400u}) {
        texts.push_back(RandomOver(rng, text_size, alphabet));
      }
      texts.push_back(pattern + RandomOver(rng, 100, alphabet));
      texts.push_back(RandomOver(rng, 100, alphabet) + pattern);
      differences += CountBatchBitDifferences(pattern, texts);
    }
  }
  EXPECT_EQ(differences, 0u) << "seed=" << GetParam();
}

// --- The signature count bounds (DESIGN.md §5e) --------------------------

// Counts the signature pairs where the portable overlap loop disagrees
// with the SSE2 one SignatureMatchBound runs; none where SSE2 is missing,
// as the bound runs the portable loop itself there.
std::size_t CountOverlapMismatches(const std::uint8_t* sig_a,
                                   const std::uint8_t* sig_b) {
#if defined(__SSE2__)
  const SignatureOverlap portable = SignatureOverlapPortable(sig_a, sig_b);
  const SignatureOverlap sse2 = SignatureOverlapSse2(sig_a, sig_b);
  if (portable.overlap == sse2.overlap &&
      portable.both_full == sse2.both_full) {
    return 0;
  }
  ADD_FAILURE() << "portable overlap " << portable.overlap << " vs SSE2 "
                << sse2.overlap << ", both full " << portable.both_full
                << " vs " << sse2.both_full;
  return 1;
#else
  (void)sig_a;
  (void)sig_b;
  return 0;
#endif
}

// The item counts the Dice and Jaccard bounds take beside the signatures,
// as FeatureCache's bigram and unique-token lanes hold them.
std::size_t BigramCount(std::string_view s) {
  return s.size() < 2 ? s.size() : s.size() - 1;
}
std::size_t DistinctTokenCount(std::string_view s) {
  auto tokens = util::SplitAny(s, " \t\n\r");
  std::sort(tokens.begin(), tokens.end());
  return static_cast<std::size_t>(
      std::unique(tokens.begin(), tokens.end()) - tokens.begin());
}

// Counts the pairs where a signature bound, as the cascade's lane kernel
// evaluates it from each value's lanes, falls below its measure as a
// double, or differs from it in any bit where the measure is exact (a
// value with nothing to count: empty, or for Jaccard without tokens);
// reports the first few.
std::size_t CountUnsoundBounds(std::string_view a, std::string_view b) {
  std::uint8_t bytes_a[kSignatureBytes], bytes_b[kSignatureBytes];
  std::uint8_t grams_a[kSignatureBytes], grams_b[kSignatureBytes];
  std::uint8_t tokens_a[kSignatureBytes], tokens_b[kSignatureBytes];
  ByteSignature(a, bytes_a);
  ByteSignature(b, bytes_b);
  BigramSignature(a, grams_a);
  BigramSignature(b, grams_b);
  TokenSetSignature(a, tokens_a);
  TokenSetSignature(b, tokens_b);
  const double jaro = JaroSignatureBound(bytes_a, a.size(), bytes_b, b.size());
  const double winkler = JaroWinklerSignatureBound(
      jaro, JaroPrefixBytes(a), a.size(), JaroPrefixBytes(b), b.size());
  const std::size_t ua = DistinctTokenCount(a), ub = DistinctTokenCount(b);
  const bool empty = a.empty() || b.empty();
  std::size_t failures = CountOverlapMismatches(bytes_a, bytes_b) +
                         CountOverlapMismatches(grams_a, grams_b) +
                         CountOverlapMismatches(tokens_a, tokens_b);
  const auto check = [&](const char* what, double bound, double measure,
                         bool exact) {
    if (exact ? SameBits(bound, measure) : bound >= measure) return;
    ++failures;
    ADD_FAILURE() << what << " bound " << bound << " vs measure " << measure
                  << " |a|=" << a.size() << " |b|=" << b.size();
  };
  check("jaro", jaro, JaroSimilarity(a, b), empty);
  check("jaro-winkler", winkler, JaroWinklerSimilarity(a, b), empty);
  check("levenshtein",
        LevenshteinSignatureBound(bytes_a, a.size(), bytes_b, b.size()),
        LevenshteinSimilarity(a, b), empty);
  check("dice",
        DiceSignatureBound(grams_a, BigramCount(a), grams_b, BigramCount(b)),
        DiceBigramSimilarity(a, b), empty);
  check("jaccard", JaccardSignatureBound(tokens_a, ua, tokens_b, ub),
        JaccardTokenSimilarity(a, b), ua == 0 || ub == 0);
  return failures;
}

// `s` with each ASCII letter's case flipped with probability 1/2: the
// case-folded renderings a served query stream mixes with the catalog's.
std::string FlipSomeCase(util::Rng& rng, std::string s) {
  for (char& c : s) {
    const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    if (letter && rng.Bernoulli(0.5)) c = static_cast<char>(c ^ 0x20);
  }
  return s;
}

TEST_P(JaroBitParallelTest, SignatureBoundsDominateTheMeasures) {
  util::Rng rng(0x5164u + static_cast<std::uint64_t>(GetParam()));
  constexpr std::string_view kMixedCase = "abcdxyzABCDXYZ0189-/";
  std::size_t failures = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    // Lengths 0..300 on each side: both Jaro kernels, and values long
    // enough to fill a bucket.
    const std::size_t la = rng.UniformUint64(301);
    const std::size_t lb = rng.UniformUint64(301);
    std::string a, b;
    switch (iter % 5) {
      case 0:  // small alphabets: full buckets on both sides
        a = RandomOver(rng, la, kSmallAlphabets[iter % 3]);
        b = RandomOver(rng, lb, kSmallAlphabets[iter % 3]);
        break;
      case 1:  // mixed case
        a = RandomOver(rng, la, kMixedCase);
        b = RandomOver(rng, lb, kMixedCase);
        break;
      default:  // part-number ASCII, raw bytes, UTF-8
        a = RandomString(rng, la, iter % 5 - 2);
        b = RandomString(rng, lb, iter % 5 - 2);
        break;
    }
    if (rng.Bernoulli(0.4)) b = Perturb(rng, a);
    if (rng.Bernoulli(0.3)) b = FlipSomeCase(rng, b);
    if (rng.Bernoulli(0.05)) a.clear();
    failures += CountUnsoundBounds(a, b);
    failures += CountUnsoundBounds(b, a);
  }
  EXPECT_EQ(failures, 0u) << "seed=" << GetParam();
}

TEST(SignatureBoundTest, SaturatedBucketsAndEmptyValues) {
  std::size_t failures = 0;
  // One byte repeated around and past a bucket's capacity of 15 on each
  // side; past it, only the both-full fallback keeps the bound sound. 'A'
  // and 'W' share a bucket, so a bucket can also fill from two bytes.
  for (const std::size_t la : {1u, 14u, 15u, 16u, 17u, 30u, 64u, 65u, 300u}) {
    for (const std::size_t lb : {1u, 14u, 15u, 16u, 17u, 30u, 64u, 65u}) {
      failures += CountUnsoundBounds(std::string(la, 'q'),
                                     std::string(lb, 'q'));
      failures += CountUnsoundBounds(std::string(la, 'A'),
                                     std::string(lb, 'W'));
      failures += CountUnsoundBounds(std::string(la, '7') + "X-1",
                                     "X-1" + std::string(lb, '7'));
      failures += CountUnsoundBounds(std::string(la, 'A') + std::string(lb, 'W'),
                                     std::string(lb, 'W') + std::string(la, 'A'));
    }
  }
  // The measures are exact where a value is empty: 1.0 for two empty
  // values, 0.0 against an empty one.
  for (const std::string_view other : {"", "a", "T3170/TH23", "\xff\x80"}) {
    failures += CountUnsoundBounds("", other);
    failures += CountUnsoundBounds(other, "");
  }
  EXPECT_EQ(failures, 0u);
}

// A list of up to `max_tokens` tokens drawn from a vocabulary of
// `vocabulary` words, separated by runs of the four separators, which may
// also lead or trail. A small vocabulary repeats tokens within a value
// and shares them across values; more than 32 tokens pass the distinct
// tokens TokenSetSignature checks repeats against.
std::string RandomTokenList(util::Rng& rng, std::size_t max_tokens,
                            std::size_t vocabulary) {
  constexpr std::string_view kSeparators = " \t\n\r";
  const auto separators = [&](std::size_t at_least) {
    std::string run;
    const std::size_t n = at_least + rng.UniformUint64(3);
    for (std::size_t i = 0; i < n; ++i) {
      run.push_back(kSeparators[rng.UniformUint64(kSeparators.size())]);
    }
    return run;
  };
  std::string s = separators(0);
  const std::size_t n = rng.UniformUint64(max_tokens + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) s += separators(1);
    s += "w" + std::to_string(rng.UniformUint64(vocabulary));
  }
  return s + separators(0);
}

TEST_P(JaroBitParallelTest, SetBoundsDominateOnTokenLists) {
  util::Rng rng(0x70c5u + static_cast<std::uint64_t>(GetParam()));
  std::size_t failures = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t vocabulary = iter % 2 == 0 ? 6 : 1000;
    const std::size_t max_tokens = iter % 3 == 0 ? 80 : 8;
    std::string a = RandomTokenList(rng, max_tokens, vocabulary);
    std::string b = RandomTokenList(rng, max_tokens, vocabulary);
    if (rng.Bernoulli(0.3)) b = Perturb(rng, a);
    failures += CountUnsoundBounds(a, b);
    failures += CountUnsoundBounds(b, a);
  }
  EXPECT_EQ(failures, 0u) << "seed=" << GetParam();
}

// The bucket a one-token value's token-set signature counts it in.
std::size_t TokenBucketOf(std::string_view token) {
  std::uint8_t sig[kSignatureBytes];
  TokenSetSignature(token, sig);
  for (std::size_t k = 0; k < kSignatureBytes; ++k) {
    if ((sig[k] & 15u) != 0) return 2 * k;
    if ((sig[k] >> 4) != 0) return 2 * k + 1;
  }
  return kSignatureBytes * 2;
}

TEST(SignatureBoundTest, SetBoundsOnSaturatedBucketsAndEdgeValues) {
  std::size_t failures = 0;
  // Two alternating bigrams repeated around and past a bucket's capacity
  // on each side (SaturatedBucketsAndEmptyValues repeats one).
  for (const std::size_t la : {2u, 15u, 16u, 17u, 31u, 64u, 300u}) {
    for (const std::size_t lb : {2u, 15u, 16u, 17u, 31u, 64u}) {
      std::string alt_a, alt_b;
      for (std::size_t i = 0; i < la; ++i) alt_a += i % 2 ? "b" : "a";
      for (std::size_t i = 0; i < lb; ++i) alt_b += i % 2 ? "a" : "b";
      failures += CountUnsoundBounds(alt_a, alt_b);
    }
  }
  // Distinct tokens that all land in one bucket, shared by both sides
  // past the bucket's capacity: only the both-full fallback covers the
  // true intersection.
  std::vector<std::string> same_bucket;
  const std::size_t bucket = TokenBucketOf("w0");
  for (std::size_t k = 0; same_bucket.size() < 40; ++k) {
    std::string token = "w" + std::to_string(k);
    if (TokenBucketOf(token) == bucket) same_bucket.push_back(token);
  }
  for (const std::size_t na : {1u, 14u, 15u, 16u, 17u, 30u, 40u}) {
    for (const std::size_t nb : {1u, 15u, 16u, 20u, 40u}) {
      std::string a, b;
      for (std::size_t i = 0; i < na; ++i) a += same_bucket[i] + " ";
      for (std::size_t i = 0; i < nb; ++i) b += "\t" + same_bucket[i];
      failures += CountUnsoundBounds(a, b);
      // The same tokens in the other order, each twice on one side.
      std::string twice;
      for (std::size_t i = nb; i-- > 0;) {
        twice += same_bucket[i] + " " + same_bucket[i] + "\n";
      }
      failures += CountUnsoundBounds(a, twice);
    }
  }
  // One token repeated after 32 distinct ones, so that its repeats count
  // in its bucket until it is full, on both sides.
  std::string filler;
  for (std::size_t k = 100; k < 132; ++k) {
    filler += "f" + std::to_string(k) + " ";
  }
  for (const std::size_t repeats : {1u, 15u, 16u, 40u}) {
    std::string a = filler, b = filler;
    for (std::size_t i = 0; i < repeats; ++i) a += " q";
    for (std::size_t i = 0; i < repeats + 3; ++i) b += "q\r";
    failures += CountUnsoundBounds(a, b);
  }
  // One-byte values (their own bigram) and whitespace-only values (no
  // token, so Jaccard's exact 1.0 or 0.0), against each other and more.
  for (const std::string_view a : {"a", "b", " ", "\t", "  \n\r ", "ab"}) {
    for (const std::string_view b :
         {"a", "b", " ", "\r\n", "a b", "ba", "aaaa", ""}) {
      failures += CountUnsoundBounds(a, b);
      failures += CountUnsoundBounds(b, a);
    }
  }
  EXPECT_EQ(failures, 0u);
}

// Random signatures rather than those of strings: every count in every
// bucket, and buckets full on one side, on the other or on both.
TEST(SignatureBoundTest, PortableOverlapMatchesSse2) {
  util::Rng rng(0x0e51u);
  const auto count = [&rng] {
    return static_cast<std::uint8_t>(rng.Bernoulli(0.25)
                                         ? 15
                                         : rng.UniformUint64(16));
  };
  std::size_t failures = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::uint8_t sig_a[kSignatureBytes];
    std::uint8_t sig_b[kSignatureBytes];
    for (std::size_t k = 0; k < kSignatureBytes; ++k) {
      sig_a[k] = static_cast<std::uint8_t>(count() | count() << 4);
      sig_b[k] = static_cast<std::uint8_t>(count() | count() << 4);
    }
    failures += CountOverlapMismatches(sig_a, sig_b);
  }
  EXPECT_EQ(failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaroBitParallelTest,
                         ::testing::Values(1, 7, 1234));

}  // namespace
}  // namespace rulelink::text
