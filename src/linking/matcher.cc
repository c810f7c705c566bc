#include "linking/matcher.h"

#include <algorithm>

#include "linking/feature_cache.h"
#include "text/similarity.h"
#include "util/interner.h"
#include "util/logging.h"

namespace rulelink::linking {

double ComputeSimilarity(SimilarityMeasure measure, std::string_view a,
                         std::string_view b) {
  switch (measure) {
    case SimilarityMeasure::kExact:
      return a == b ? 1.0 : 0.0;
    case SimilarityMeasure::kLevenshtein:
      return text::LevenshteinSimilarity(a, b);
    case SimilarityMeasure::kJaro:
      return text::JaroSimilarity(a, b);
    case SimilarityMeasure::kJaroWinkler:
      return text::JaroWinklerSimilarity(a, b);
    case SimilarityMeasure::kJaccardTokens:
      return text::JaccardTokenSimilarity(a, b);
    case SimilarityMeasure::kDiceBigram:
      return text::DiceBigramSimilarity(a, b);
    case SimilarityMeasure::kMongeElkan:
      // Symmetrized.
      return 0.5 * (text::MongeElkanSimilarity(a, b) +
                    text::MongeElkanSimilarity(b, a));
  }
  return 0.0;
}

const char* SimilarityMeasureName(SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kExact: return "exact";
    case SimilarityMeasure::kLevenshtein: return "levenshtein";
    case SimilarityMeasure::kJaro: return "jaro";
    case SimilarityMeasure::kJaroWinkler: return "jaro-winkler";
    case SimilarityMeasure::kJaccardTokens: return "jaccard-tokens";
    case SimilarityMeasure::kDiceBigram: return "dice-bigram";
    case SimilarityMeasure::kMongeElkan: return "monge-elkan";
  }
  return "?";
}

ItemMatcher::ItemMatcher(std::vector<AttributeRule> rules)
    : rules_(std::move(rules)) {
  RL_CHECK(!rules_.empty()) << "ItemMatcher needs at least one rule";
  for (const AttributeRule& rule : rules_) {
    RL_CHECK(rule.weight > 0.0) << "attribute weights must be positive";
  }
}

double ItemMatcher::Score(const core::Item& external, const core::Item& local,
                          std::uint64_t* measures_computed) const {
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (const AttributeRule& rule : rules_) {
    const auto ext_values = external.ValuesOf(rule.external_property);
    const auto local_values = local.ValuesOf(rule.local_property);
    if (ext_values.empty() || local_values.empty()) continue;
    double best = 0.0;
    for (const std::string& ev : ext_values) {
      for (const std::string& lv : local_values) {
        best = std::max(best, ComputeSimilarity(rule.measure, ev, lv));
      }
    }
    if (measures_computed != nullptr) {
      *measures_computed += ext_values.size() * local_values.size();
    }
    weighted_sum += rule.weight * best;
    weight_total += rule.weight;
  }
  return weight_total > 0.0 ? weighted_sum / weight_total : 0.0;
}

namespace {

using ValueFeatures = FeatureDictionary::ValueFeatures;

// |unique(a) ∩ unique(b)| over sorted id sequences that may repeat ids.
// Same cardinality JaccardTokenSimilarity derives from sorted-unique
// string views (intersection size is invariant under renumbering).
std::size_t SortedUniqueIdIntersection(const text::TokenId* a, std::size_t na,
                                       const text::TokenId* b,
                                       std::size_t nb) {
  std::size_t inter = 0, i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      const text::TokenId id = a[i];
      while (i < na && a[i] == id) ++i;
      while (j < nb && b[j] == id) ++j;
    }
  }
  return inter;
}

// Multiset overlap sum(min(count_a, count_b)) over sorted id sequences —
// the id-space twin of similarity.cc's SortedMultisetOverlap.
std::size_t SortedMultisetIdOverlap(const text::TokenId* a, std::size_t na,
                                    const text::TokenId* b, std::size_t nb) {
  std::size_t overlap = 0, i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  return overlap;
}

double CachedJaccard(const ValueFeatures& a, const ValueFeatures& b) {
  if (a.num_tokens == 0 && b.num_tokens == 0) return 1.0;
  const std::size_t inter = SortedUniqueIdIntersection(
      a.sorted_tokens, a.num_tokens, b.sorted_tokens, b.num_tokens);
  return static_cast<double>(inter) /
         static_cast<double>(a.num_unique_tokens + b.num_unique_tokens -
                             inter);
}

double CachedDice(const ValueFeatures& a, const ValueFeatures& b) {
  if (a.num_bigrams == 0 && b.num_bigrams == 0) return 1.0;
  if (a.num_bigrams == 0 || b.num_bigrams == 0) return 0.0;
  const std::size_t overlap = SortedMultisetIdOverlap(
      a.sorted_bigrams, a.num_bigrams, b.sorted_bigrams, b.num_bigrams);
  return 2.0 * static_cast<double>(overlap) /
         static_cast<double>(a.num_bigrams + b.num_bigrams);
}

// One direction of Monge-Elkan over precomputed token ids. Tokens are
// walked in occurrence order so the floating-point sum matches
// text::MongeElkanSimilarity addition for addition.
double CachedMongeElkanOneWay(const FeatureDictionary& dict,
                              const ValueFeatures& a,
                              const ValueFeatures& b) {
  if (a.num_tokens == 0 && b.num_tokens == 0) return 1.0;
  if (a.num_tokens == 0 || b.num_tokens == 0) return 0.0;
  double total = 0.0;
  for (std::uint32_t i = 0; i < a.num_tokens; ++i) {
    const std::string_view x = dict.View(a.ordered_tokens[i]);
    double best = 0.0;
    for (std::uint32_t j = 0; j < b.num_tokens; ++j) {
      best = std::max(
          best, text::JaroWinklerSimilarity(x, dict.View(b.ordered_tokens[j])));
    }
    total += best;
  }
  return total / static_cast<double>(a.num_tokens);
}

// Best similarity over the value-id cross product. `pair_similarity` is
// the measure-specific scorer — resolved once per rule, so the value-pair
// loop is free of measure dispatch. With a `memo` (Monge-Elkan only), each
// (value-id, value-id) score is computed once and replayed after.
template <typename PairSimilarity>
double BestCachedPair(const ValueId* ext, std::size_t num_ext,
                      const ValueId* loc, std::size_t num_loc,
                      ScoreMemo* memo, std::uint64_t* measures_computed,
                      const PairSimilarity& pair_similarity) {
  auto* map = memo != nullptr ? &memo->map() : nullptr;
  double best = 0.0;
  for (std::size_t i = 0; i < num_ext; ++i) {
    for (std::size_t j = 0; j < num_loc; ++j) {
      double similarity;
      if (map != nullptr) {
        ++memo->mutable_stats().lookups;
        const std::uint64_t key = util::PackSymbolPair(ext[i], loc[j]);
        const auto [it, inserted] = map->try_emplace(key, 0.0);
        if (inserted) {
          it->second = pair_similarity(ext[i], loc[j]);
          if (measures_computed != nullptr) ++*measures_computed;
        } else {
          ++memo->mutable_stats().hits;
        }
        similarity = it->second;
      } else {
        similarity = pair_similarity(ext[i], loc[j]);
        if (measures_computed != nullptr) ++*measures_computed;
      }
      best = std::max(best, similarity);
    }
  }
  return best;
}

}  // namespace

double ItemMatcher::ScoreCached(const FeatureCache& external_features,
                                std::size_t external_index,
                                const FeatureCache& local_features,
                                std::size_t local_index, ScoreMemo* memo,
                                std::uint64_t* measures_computed) const {
  RL_DCHECK(&external_features.dict().root() == &local_features.dict().root())
      << "caches must share one FeatureDictionary root";
  RL_DCHECK(external_features.num_rules() == rules_.size());
  RL_DCHECK(local_features.num_rules() == rules_.size());
  const FeatureDictionary& dict = external_features.dict();

  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AttributeRule& rule = rules_[r];
    std::size_t num_ext = 0, num_loc = 0;
    const ValueId* ext = external_features.Values(external_index, r, &num_ext);
    const ValueId* loc = local_features.Values(local_index, r, &num_loc);
    if (num_ext == 0 || num_loc == 0) continue;

    double best = 0.0;
    switch (rule.measure) {
      case SimilarityMeasure::kExact:
        // Identical strings share one value id; no memo needed.
        for (std::size_t i = 0; i < num_ext && best == 0.0; ++i) {
          for (std::size_t j = 0; j < num_loc; ++j) {
            if (measures_computed != nullptr) ++*measures_computed;
            if (ext[i] == loc[j]) {
              best = 1.0;
              break;
            }
          }
        }
        break;
      // Levenshtein and Jaro(-Winkler) do not memoize (see ScoreMemo): on
      // part numbers, where few value pairs repeat, a lookup-or-insert
      // costs more than the bit-parallel kernel it would skip (DESIGN.md
      // §5d).
      case SimilarityMeasure::kLevenshtein:
        best = BestCachedPair(ext, num_ext, loc, num_loc, nullptr,
                              measures_computed,
                              [&dict](ValueId a, ValueId b) {
                                return text::LevenshteinSimilarity(
                                    dict.View(a), dict.View(b));
                              });
        break;
      case SimilarityMeasure::kJaro:
        best = BestCachedPair(ext, num_ext, loc, num_loc, nullptr,
                              measures_computed,
                              [&dict](ValueId a, ValueId b) {
                                return text::JaroSimilarity(dict.View(a),
                                                            dict.View(b));
                              });
        break;
      case SimilarityMeasure::kJaroWinkler:
        best = BestCachedPair(ext, num_ext, loc, num_loc, nullptr,
                              measures_computed,
                              [&dict](ValueId a, ValueId b) {
                                return text::JaroWinklerSimilarity(
                                    dict.View(a), dict.View(b));
                              });
        break;
      case SimilarityMeasure::kJaccardTokens:
        // A sort-merge over precomputed ids is cheaper than a memo
        // lookup-or-insert, so the set measures never memoize (on
        // mostly-distinct values like part numbers the memo is all
        // misses, and every miss grows the table).
        best = BestCachedPair(ext, num_ext, loc, num_loc, nullptr,
                              measures_computed,
                              [&dict](ValueId a, ValueId b) {
                                return CachedJaccard(dict.Features(a),
                                                     dict.Features(b));
                              });
        break;
      case SimilarityMeasure::kDiceBigram:
        best = BestCachedPair(ext, num_ext, loc, num_loc, nullptr,
                              measures_computed,
                              [&dict](ValueId a, ValueId b) {
                                return CachedDice(dict.Features(a),
                                                  dict.Features(b));
                              });
        break;
      case SimilarityMeasure::kMongeElkan:
        // The one measure that keeps the memo (see ScoreMemo).
        best = BestCachedPair(
            ext, num_ext, loc, num_loc, memo, measures_computed,
            [&dict](ValueId a, ValueId b) {
              const ValueFeatures fa = dict.Features(a);
              const ValueFeatures fb = dict.Features(b);
              // Symmetrized exactly like ComputeSimilarity.
              return 0.5 * (CachedMongeElkanOneWay(dict, fa, fb) +
                            CachedMongeElkanOneWay(dict, fb, fa));
            });
        break;
    }
    weighted_sum += rule.weight * best;
    weight_total += rule.weight;
  }
  return weight_total > 0.0 ? weighted_sum / weight_total : 0.0;
}

}  // namespace rulelink::linking
