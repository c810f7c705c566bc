// String similarity measures used by the linker and the blocking baselines.
// All functions return a similarity in [0, 1] (1 = identical) unless the
// name says "Distance".
#ifndef RULELINK_TEXT_SIMILARITY_H_
#define RULELINK_TEXT_SIMILARITY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/interner.h"

namespace rulelink::text {

// Dense id of an interned token (TfIdfCosine's corpus vocabulary).
using TokenId = util::SymbolId;

// Levenshtein edit distance (insert/delete/substitute, unit costs).
// Computed with Myers' bit-parallel algorithm (64-bit blocks); byte-wise,
// so it agrees exactly with the dynamic-programming oracle in
// tests/levenshtein_bitparallel_test.cc even on multi-byte UTF-8 input.
std::size_t LevenshteinDistance(std::string_view a, std::string_view b);

// Threshold-capped Levenshtein: returns the exact distance when it is
// <= cap, and some value > cap otherwise (the kernel stops as soon as the
// distance provably exceeds the cap). Lets filter cascades test "within a
// distance budget" without paying for the full distance.
std::size_t BoundedLevenshteinDistance(std::string_view a, std::string_view b,
                                       std::size_t cap);

// Batched capped Levenshtein: out[i] = BoundedLevenshteinDistance(a[i],
// b[i], caps[i]) for every i < count — the same values exactly, including
// the cap+1 early-exit results. Pairs whose shorter string fits one
// 64-bit word run through a multi-pair interleaved Myers kernel under
// util::ActiveSimdMode() == kAVX2: four independent bit-parallel
// computations advance in lockstep across SIMD lanes, with the
// single-pair kernel as remainder and long-pattern fallback (and as the
// whole batch in scalar mode). The streaming cascade's stage-B probes are
// the intended caller: one external value against the surviving locals of
// a candidate run (DESIGN.md §5h).
void BoundedLevenshteinDistanceBatch(const std::string_view* a,
                                     const std::string_view* b,
                                     const std::size_t* caps,
                                     std::size_t count, std::size_t* out);

// The similarity LevenshteinSimilarity derives from an already-known
// distance: 1 - distance / longest (1.0 when longest == 0). Exposed so
// callers that computed the distance themselves reproduce the exact same
// double, bit for bit.
inline double LevenshteinSimilarityFromDistance(std::size_t distance,
                                                std::size_t longest) {
  if (longest == 0) return 1.0;
  return 1.0 -
         static_cast<double>(distance) / static_cast<double>(longest);
}

// Damerau-Levenshtein (adds adjacent transposition), restricted variant.
std::size_t DamerauLevenshteinDistance(std::string_view a,
                                       std::string_view b);

// 1 - distance / max(|a|, |b|); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

// Jaro similarity as defined by Jaro (1989). When both strings are at
// most 64 bytes the greedy matching runs as word operations over a
// position-mask table of `b` and allocates nothing; longer strings take
// the scalar loop. Both give the same double, bit for bit.
double JaroSimilarity(std::string_view a, std::string_view b);

// Jaro-Winkler with the standard prefix scale 0.1 and max prefix 4.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

// One string against many: out[i] = JaroSimilarity(a, b[i]), or
// JaroWinklerSimilarity(a, b[i]), for every i < count, bit for bit. When
// `a` is at most 64 bytes its position masks are built once per call and
// each b[i], of any length, is walked against them with no allocation;
// Jaro's greedy matching pairs the same positions whichever string is
// walked (DESIGN.md §5d). A longer `a` takes the scalar loop per pair.
// The cached scorer's candidate runs are the intended caller.
void JaroSimilarityBatch(std::string_view a, const std::string_view* b,
                         std::size_t count, double* out);
void JaroWinklerSimilarityBatch(std::string_view a, const std::string_view* b,
                                std::size_t count, double* out);

// --- Count signatures and the bounds they give (DESIGN.md §5e) ---------
//
// A value's count signature holds 32 hashed buckets of 4-bit counts in
// kSignatureBytes bytes, two buckets per byte (bucket 2k in the low nibble
// of byte k). A bucket saturates at 15, which means "at least 15". What a
// bucket counts depends on the measure the signature bounds:
//   * ByteSignature: the value's bytes (Levenshtein, Jaro, Jaro-Winkler).
//     Each ASCII digit has its own bucket and the letters spread over the
//     other 22, a lowercase letter 11 buckets away from its uppercase
//     twin, so a case-folded rendering of a value does not share its
//     letters' buckets.
//   * BigramSignature: the value's character bigrams, the multiset
//     DiceBigramSimilarity compares (a value shorter than two bytes is its
//     own gram), hashed from the two bytes in place.
//   * TokenSetSignature: the value's distinct whitespace tokens, the set
//     JaccardTokenSimilarity compares, hashed from their bytes in place.
// Each builder is a pure function of the value's bytes and allocates
// nothing. For two values, the sum over buckets of min(count_a, count_b)
// is at least the overlap of what the buckets count (shared items share a
// bucket), unless some bucket is full on both sides.
constexpr std::size_t kSignatureBytes = 16;

// Write `s`'s signature to out[0, kSignatureBytes).
void ByteSignature(std::string_view s, std::uint8_t* out);
void BigramSignature(std::string_view s, std::uint8_t* out);
void TokenSetSignature(std::string_view s, std::uint8_t* out);

// `s`'s first four bytes, byte i in bits [8i, 8i + 8), zero past its end.
// Two of these and the lengths give a pair's Winkler prefix exactly.
std::uint32_t JaroPrefixBytes(std::string_view s);

// What the bounds read from two signatures: the overlap, the sum over
// buckets of min(count_a, count_b), and whether some bucket is full on
// both sides.
struct SignatureOverlap {
  std::size_t overlap = 0;
  bool both_full = false;
};

// The overlap as a plain byte loop, compiled on every platform: what
// SignatureMatchBound runs where SSE2 is missing, and the reference
// jaro_bitparallel_test checks SignatureOverlapSse2 against.
inline SignatureOverlap SignatureOverlapPortable(const std::uint8_t* sig_a,
                                                 const std::uint8_t* sig_b) {
  SignatureOverlap result;
  for (std::size_t k = 0; k < kSignatureBytes; ++k) {
    const unsigned a_lo = sig_a[k] & 15u, a_hi = sig_a[k] >> 4;
    const unsigned b_lo = sig_b[k] & 15u, b_hi = sig_b[k] >> 4;
    result.overlap +=
        (a_lo < b_lo ? a_lo : b_lo) + (a_hi < b_hi ? a_hi : b_hi);
    result.both_full |= (a_lo & b_lo) == 15u || (a_hi & b_hi) == 15u;
  }
  return result;
}

#if defined(__SSE2__)
// The same overlap from SSE2 byte-lane minimums and one sum of absolute
// differences. GCC unrolls the plain loop into scalar code, which halved
// serve_ingest's throughput (DESIGN.md §5h).
inline SignatureOverlap SignatureOverlapSse2(const std::uint8_t* sig_a,
                                             const std::uint8_t* sig_b) {
  // Each side's 32 counts in two registers, one count per byte lane:
  // the low nibbles, and the high nibbles shifted down.
  const __m128i nibble = _mm_set1_epi8(15);
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig_a));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig_b));
  const __m128i a_lo = _mm_and_si128(a, nibble);
  const __m128i a_hi = _mm_and_si128(_mm_srli_epi16(a, 4), nibble);
  const __m128i b_lo = _mm_and_si128(b, nibble);
  const __m128i b_hi = _mm_and_si128(_mm_srli_epi16(b, 4), nibble);
  const __m128i sums = _mm_sad_epu8(
      _mm_add_epi8(_mm_min_epu8(a_lo, b_lo), _mm_min_epu8(a_hi, b_hi)),
      _mm_setzero_si128());
  SignatureOverlap result;
  result.overlap = static_cast<std::size_t>(_mm_cvtsi128_si32(sums)) +
                   static_cast<std::size_t>(_mm_extract_epi16(sums, 4));
  result.both_full =
      _mm_movemask_epi8(_mm_or_si128(
          _mm_cmpeq_epi8(_mm_and_si128(a_lo, b_lo), nibble),
          _mm_cmpeq_epi8(_mm_and_si128(a_hi, b_hi), nibble))) != 0;
  return result;
}
#endif

// An integer at least the true overlap of two values whose signatures
// these are, given `shorter`, the smaller of the two sides' item counts
// (bytes, bigrams or distinct tokens): the signature overlap, or
// `shorter` when some bucket is full on both sides, capped at `shorter`.
inline std::size_t SignatureMatchBound(const std::uint8_t* sig_a,
                                       const std::uint8_t* sig_b,
                                       std::size_t shorter) {
  if (shorter == 0) return 0;
#if defined(__SSE2__)
  const SignatureOverlap o = SignatureOverlapSse2(sig_a, sig_b);
#else
  const SignatureOverlap o = SignatureOverlapPortable(sig_a, sig_b);
#endif
  return o.both_full || o.overlap > shorter ? shorter : o.overlap;
}

// The bounds below evaluate their measure's closing expression with the
// true overlap replaced by SignatureMatchBound's integer, which is at
// least as large. Every replacement only raises the result and IEEE -, /
// are monotone per argument, so no slack is needed. Each is exact where
// the measure is: 1.0 when both sides are empty and the measure's value,
// 0.0, when one is.

// An upper bound on LevenshteinSimilarity(a, b) from the values'
// ByteSignatures and byte lengths: the bag distance max(|a|, |b|) - M
// (Bartolini, Ciaccia & Patella, SPIRE 2002) is at most the edit
// distance, through LevenshteinSimilarityFromDistance like the measure.
inline double LevenshteinSignatureBound(const std::uint8_t* sig_a,
                                        std::size_t len_a,
                                        const std::uint8_t* sig_b,
                                        std::size_t len_b) {
  const std::size_t longest = len_a < len_b ? len_b : len_a;
  const std::size_t shorter = len_a < len_b ? len_a : len_b;
  return LevenshteinSimilarityFromDistance(
      longest - SignatureMatchBound(sig_a, sig_b, shorter), longest);
}

// An upper bound on DiceBigramSimilarity(a, b) from the values'
// BigramSignatures and bigram counts: 2M / (na + nb).
inline double DiceSignatureBound(const std::uint8_t* sig_a, std::size_t na,
                                 const std::uint8_t* sig_b, std::size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  const std::size_t m = SignatureMatchBound(sig_a, sig_b, na < nb ? na : nb);
  return 2.0 * static_cast<double>(m) / static_cast<double>(na + nb);
}

// An upper bound on JaccardTokenSimilarity(a, b) from the values'
// TokenSetSignatures and distinct-token counts: M / (ua + ub - M). M is at
// most min(ua, ub), so the denominator is at least max(ua, ub).
inline double JaccardSignatureBound(const std::uint8_t* sig_a, std::size_t ua,
                                    const std::uint8_t* sig_b,
                                    std::size_t ub) {
  if (ua == 0 && ub == 0) return 1.0;
  const std::size_t m = SignatureMatchBound(sig_a, sig_b, ua < ub ? ua : ub);
  return static_cast<double>(m) / static_cast<double>(ua + ub - m);
}

// An upper bound on JaroSimilarity(a, b) from the values' ByteSignatures
// and byte lengths: Jaro's closing expression with the match count
// replaced by M and the transposition term (m - t/2)/m by 1.0. Exactly
// 0.0 when no byte can match.
inline double JaroSignatureBound(const std::uint8_t* sig_a, std::size_t len_a,
                                 const std::uint8_t* sig_b,
                                 std::size_t len_b) {
  if (len_a == 0 || len_b == 0) return len_a == len_b ? 1.0 : 0.0;
  const std::size_t matches =
      SignatureMatchBound(sig_a, sig_b, len_a < len_b ? len_a : len_b);
  if (matches == 0) return 0.0;
  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(len_a) + m / static_cast<double>(len_b) +
          1.0) /
         3.0;
}

// Added to the Winkler step's result below: j + p·0.1·(1 - j) increases
// with j in real arithmetic but not necessarily after rounding, so a
// bound on j carries over only up to a few ulps. 1e-9 is orders of
// magnitude above that noise and below any step between two scores.
constexpr double kJaroWinklerBoundSlack = 1e-9;

// An upper bound on JaroWinklerSimilarity(a, b), given `jaro_bound` from
// JaroSignatureBound and the values' JaroPrefixBytes and byte lengths. The
// prefix length is exact; the Winkler step applied to the Jaro bound
// carries kJaroWinklerBoundSlack, capped at 1.0, which the measure never
// exceeds. A Jaro bound of 0.0 or 1.0 passes through exactly: no byte
// matching means no common prefix either.
inline double JaroWinklerSignatureBound(double jaro_bound,
                                        std::uint32_t prefix_a,
                                        std::size_t len_a,
                                        std::uint32_t prefix_b,
                                        std::size_t len_b) {
  if (jaro_bound == 0.0 || jaro_bound == 1.0) return jaro_bound;
  const std::uint32_t differ = prefix_a ^ prefix_b;
  std::size_t prefix =
      differ == 0 ? 4 : static_cast<std::size_t>(std::countr_zero(differ)) / 8;
  const std::size_t shorter = len_a < len_b ? len_a : len_b;
  if (prefix > shorter) prefix = shorter;
  const double bound =
      jaro_bound + static_cast<double>(prefix) * 0.1 * (1.0 - jaro_bound) +
      kJaroWinklerBoundSlack;
  return bound < 1.0 ? bound : 1.0;
}

// Jaccard similarity over whitespace tokens.
double JaccardTokenSimilarity(std::string_view a, std::string_view b);

// Dice coefficient over character bigrams (multiset semantics).
double DiceBigramSimilarity(std::string_view a, std::string_view b);

// Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match in
// `b`'s tokens. Asymmetric; callers usually average both directions.
double MongeElkanSimilarity(std::string_view a, std::string_view b);

// Returns the character bigrams of `s` ("ab","bc",...); a string of length
// < 2 yields the string itself. Shared by Dice and the bi-gram blocker.
std::vector<std::string> CharacterBigrams(std::string_view s);

// Appends the same gram sequence as views into `s` (no allocation per
// gram). Exactly the multiset DiceBigramSimilarity compares, exposed so
// the linking feature cache can intern it once per distinct value.
void CharacterBigramViews(std::string_view s,
                          std::vector<std::string_view>* out);

// TF-IDF cosine similarity over a token corpus. Build once over the local
// source, then score pairs. The vocabulary is interned once: document
// frequencies live in a flat vector keyed by TokenId, and Similarity
// resolves tokens read-only against the vocabulary (no per-call
// string-keyed hash maps; corpus-unseen tokens still participate, matched
// by string among themselves, with the maximum smoothed IDF).
class TfIdfCosine {
 public:
  TfIdfCosine() = default;

  // Adds one document (its token multiset) to the corpus statistics.
  void AddDocument(const std::vector<std::string>& tokens);

  // Finalizes IDF weights; must be called after all AddDocument calls and
  // before Similarity.
  void Finalize();

  // Cosine similarity of the TF-IDF vectors of the two token multisets.
  double Similarity(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) const;

  std::size_t num_documents() const { return num_documents_; }

  // Vocabulary size (distinct corpus tokens).
  std::size_t vocabulary_size() const { return tokens_.size(); }

 private:
  double Idf(TokenId id) const;

  util::StringInterner tokens_;                   // corpus vocabulary
  std::vector<std::size_t> document_frequency_;   // by TokenId
  std::size_t num_documents_ = 0;
  bool finalized_ = false;
};

}  // namespace rulelink::text

#endif  // RULELINK_TEXT_SIMILARITY_H_
