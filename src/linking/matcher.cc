#include "linking/matcher.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "linking/feature_cache.h"
#include "linking/query_scratch.h"
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

// Gathers every candidate's local values under rule slot `rule`:
// candidate c's ids land in value_ids[value_begin[c], value_begin[c + 1]).
// A single-valued slot reads the id in its record, the record the cascade
// reads; an invalid id (missing property or multi-valued slot) falls back
// to the CSR slot. The loads of different candidates do not depend on
// each other, so they overlap instead of stalling one kernel each.
void GatherValues(const FeatureCache& local_features, std::size_t rule,
                  const std::size_t* candidates, std::size_t count,
                  ScoreRunScratch* scratch) {
  const std::size_t num_rules = local_features.num_rules();
  const SlotRecord* records = local_features.records();
  std::vector<ValueId>& ids = scratch->value_ids;
  scratch->value_begin.resize(count + 1);
  ids.clear();
  for (std::size_t c = 0; c < count; ++c) {
    scratch->value_begin[c] = ids.size();
    const ValueId id = records[candidates[c] * num_rules + rule].value_id;
    if (id != util::kInvalidSymbolId) {
      ids.push_back(id);
      continue;
    }
    std::size_t num = 0;
    const ValueId* values = local_features.Values(candidates[c], rule, &num);
    ids.insert(ids.end(), values, values + num);
  }
  scratch->value_begin[count] = ids.size();
}

}  // namespace

void ItemMatcher::ScoreRun(const FeatureCache& external_features,
                           std::size_t external_index,
                           const FeatureCache& local_features,
                           const std::size_t* candidates, std::size_t count,
                           ScoreMemo* memo, std::uint64_t* measures_computed,
                           ScoreRunScratch* scratch) const {
  RL_DCHECK(&external_features.dict().root() == &local_features.dict().root())
      << "caches must share one FeatureDictionary root";
  RL_DCHECK(external_features.num_rules() == rules_.size());
  RL_DCHECK(local_features.num_rules() == rules_.size());
  const FeatureDictionary& dict = external_features.dict();
  // The weighted sums accumulate in place of the scores.
  std::vector<double>& sum = scratch->scores;
  std::vector<double>& weight_total = scratch->weight_total;
  std::vector<double>& best = scratch->best;
  const std::vector<std::size_t>& value_begin = scratch->value_begin;
  const std::vector<ValueId>& loc = scratch->value_ids;
  std::vector<double>& similarity = scratch->similarity;
  sum.assign(count, 0.0);
  weight_total.assign(count, 0.0);

  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AttributeRule& rule = rules_[r];
    std::size_t num_ext = 0;
    const ValueId* ext = external_features.Values(external_index, r, &num_ext);
    if (num_ext == 0) continue;  // the rule is inactive for every candidate
    GatherValues(local_features, r, candidates, count, scratch);
    const std::size_t num_loc = loc.size();
    best.assign(count, 0.0);
    similarity.resize(num_loc);

    // Scores every external value against every gathered value: `fill`
    // writes one external value's similarities, then each candidate keeps
    // its best. Per candidate that is Score's external-outer, local-inner
    // cross product.
    const auto cross_product = [&](const auto& fill) {
      for (std::size_t i = 0; i < num_ext; ++i) {
        fill(ext[i], similarity.data());
        for (std::size_t c = 0; c < count; ++c) {
          for (std::size_t j = value_begin[c]; j < value_begin[c + 1]; ++j) {
            best[c] = std::max(best[c], similarity[j]);
          }
        }
      }
    };
    const auto count_kernels = [&] {
      if (measures_computed != nullptr) *measures_computed += num_ext * num_loc;
    };
    const auto resolve_views = [&] {
      scratch->views.resize(num_loc);
      for (std::size_t j = 0; j < num_loc; ++j) {
        scratch->views[j] = dict.View(loc[j]);
      }
    };
    const auto resolve_features = [&] {
      scratch->features.resize(num_loc);
      for (std::size_t j = 0; j < num_loc; ++j) {
        scratch->features[j] = dict.Features(loc[j]);
      }
    };

    switch (rule.measure) {
      case SimilarityMeasure::kExact:
        // Identical strings share one value id; no memo needed. Counts the
        // id pairs examined up to the first match, as the pairwise scan.
        for (std::size_t i = 0; i < num_ext; ++i) {
          for (std::size_t c = 0; c < count; ++c) {
            if (best[c] != 0.0) continue;
            for (std::size_t j = value_begin[c]; j < value_begin[c + 1]; ++j) {
              if (measures_computed != nullptr) ++*measures_computed;
              if (ext[i] == loc[j]) {
                best[c] = 1.0;
                break;
              }
            }
          }
        }
        break;
      // Levenshtein and Jaro(-Winkler) do not memoize (see ScoreMemo).
      case SimilarityMeasure::kLevenshtein:
        resolve_views();
        cross_product([&](ValueId a, double* out) {
          const std::string_view va = dict.View(a);
          for (std::size_t j = 0; j < num_loc; ++j) {
            out[j] = text::LevenshteinSimilarity(va, scratch->views[j]);
          }
        });
        count_kernels();
        break;
      case SimilarityMeasure::kJaro:
      case SimilarityMeasure::kJaroWinkler: {
        // The external value's position masks are built once per call,
        // not once per pair.
        const auto batch = rule.measure == SimilarityMeasure::kJaro
                               ? &text::JaroSimilarityBatch
                               : &text::JaroWinklerSimilarityBatch;
        resolve_views();
        cross_product([&](ValueId a, double* out) {
          batch(dict.View(a), scratch->views.data(), num_loc, out);
        });
        count_kernels();
        break;
      }
      case SimilarityMeasure::kJaccardTokens:
      case SimilarityMeasure::kDiceBigram: {
        // A sort-merge over precomputed ids is cheaper than a memo
        // lookup-or-insert, so the set measures never memoize (on
        // mostly-distinct values like part numbers the memo is all
        // misses, and every miss grows the table).
        const auto set_measure =
            rule.measure == SimilarityMeasure::kJaccardTokens ? &CachedJaccard
                                                               : &CachedDice;
        resolve_features();
        cross_product([&](ValueId a, double* out) {
          const ValueFeatures fa = dict.Features(a);
          for (std::size_t j = 0; j < num_loc; ++j) {
            out[j] = set_measure(fa, scratch->features[j]);
          }
        });
        count_kernels();
        break;
      }
      case SimilarityMeasure::kMongeElkan:
        // The one measure that keeps the memo (see ScoreMemo): each
        // (value-id, value-id) score is computed once and replayed after.
        // Whatever the order, hits = lookups - distinct new keys, so the
        // counters match the pairwise scan's.
        cross_product([&](ValueId a, double* out) {
          const auto score = [&](ValueId b) {
            if (measures_computed != nullptr) ++*measures_computed;
            const ValueFeatures fa = dict.Features(a);
            const ValueFeatures fb = dict.Features(b);
            // Symmetrized exactly like ComputeSimilarity.
            return 0.5 * (CachedMongeElkanOneWay(dict, fa, fb) +
                          CachedMongeElkanOneWay(dict, fb, fa));
          };
          for (std::size_t j = 0; j < num_loc; ++j) {
            if (memo == nullptr) {
              out[j] = score(loc[j]);
              continue;
            }
            ++memo->mutable_stats().lookups;
            const auto [it, inserted] =
                memo->map().try_emplace(util::PackSymbolPair(a, loc[j]), 0.0);
            if (inserted) {
              it->second = score(loc[j]);
            } else {
              ++memo->mutable_stats().hits;
            }
            out[j] = it->second;
          }
        });
        break;
    }
    for (std::size_t c = 0; c < count; ++c) {
      if (value_begin[c] == value_begin[c + 1]) continue;  // property missing
      sum[c] += rule.weight * best[c];
      weight_total[c] += rule.weight;
    }
  }
  for (std::size_t c = 0; c < count; ++c) {
    sum[c] = weight_total[c] > 0.0 ? sum[c] / weight_total[c] : 0.0;
  }
}

}  // namespace rulelink::linking
