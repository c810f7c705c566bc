// String similarity measures used by the linker and the blocking baselines.
// All functions return a similarity in [0, 1] (1 = identical) unless the
// name says "Distance".
#ifndef RULELINK_TEXT_SIMILARITY_H_
#define RULELINK_TEXT_SIMILARITY_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

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
