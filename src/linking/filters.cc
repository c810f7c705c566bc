#include "linking/filters.h"

#include <algorithm>
#include <string_view>
#include <type_traits>

#include "text/similarity.h"
#include "util/logging.h"

namespace rulelink::linking {
namespace {

// Safety slack for stage B only. The stage-A bound is *exactly* at least
// the score ScoreRun computes (each per-rule bound dominates the best
// value-pair similarity as a double, both sides accumulate in the same
// rule order, and IEEE +,*,/ are monotone per argument), so stage A needs
// no slack. Stage B derives a per-rule similarity floor through a
// subtraction and a division whose rounding is not aligned with the
// scorer's; the slack (1e-9, about five orders above the accumulated
// rounding noise and far below any similarity step 1/maxlen) keeps every
// borderline pair on the "score it" side.
constexpr double kStageBSlack = 1e-9;

// Upper bound on a signature plan's best similarity over the value-id
// cross product of a multi-valued slot: stage A's bound per value pair,
// with each value's signature, counts and prefix computed from its string
// as FeatureCache computes the records.
double SignatureCrossProductBound(const FeatureDictionary& dict,
                                  SimilarityMeasure measure,
                                  const ValueId* ext, std::size_t num_ext,
                                  const ValueId* loc, std::size_t num_loc) {
  double bound = 0.0;
  std::uint8_t sig_a[text::kSignatureBytes];
  std::uint8_t sig_b[text::kSignatureBytes];
  for (std::size_t i = 0; i < num_ext; ++i) {
    const auto fa = dict.Features(ext[i]);
    SlotSignature(measure, fa.text, sig_a);
    for (std::size_t j = 0; j < num_loc; ++j) {
      const auto fb = dict.Features(loc[j]);
      SlotSignature(measure, fb.text, sig_b);
      const std::size_t la = fa.text.size();
      const std::size_t lb = fb.text.size();
      double pair = 1.0;
      switch (measure) {
        case SimilarityMeasure::kLevenshtein:
          pair = text::LevenshteinSignatureBound(sig_a, la, sig_b, lb);
          break;
        case SimilarityMeasure::kJaccardTokens:
          pair = text::JaccardSignatureBound(sig_a, fa.num_unique_tokens,
                                             sig_b, fb.num_unique_tokens);
          break;
        case SimilarityMeasure::kDiceBigram:
          pair = text::DiceSignatureBound(sig_a, fa.num_bigrams, sig_b,
                                          fb.num_bigrams);
          break;
        case SimilarityMeasure::kJaro:
        case SimilarityMeasure::kJaroWinkler:
          pair = text::JaroSignatureBound(sig_a, la, sig_b, lb);
          if (measure == SimilarityMeasure::kJaroWinkler) {
            pair = text::JaroWinklerSignatureBound(
                pair, text::JaroPrefixBytes(fa.text), la,
                text::JaroPrefixBytes(fb.text), lb);
          }
          break;
        case SimilarityMeasure::kExact:
        case SimilarityMeasure::kMongeElkan:
          break;
      }
      bound = std::max(bound, pair);
    }
  }
  return bound;
}

// kExact over value ids is already cheaper than any bound, so the
// "filter" computes the measure itself: 1.0 on any shared id, else 0.0.
double ExactValue(const ValueId* ext, std::size_t num_ext,
                  const ValueId* loc, std::size_t num_loc) {
  for (std::size_t i = 0; i < num_ext; ++i) {
    for (std::size_t j = 0; j < num_loc; ++j) {
      if (ext[i] == loc[j]) return 1.0;
    }
  }
  return 0.0;
}

// Stage A's block of candidates evaluated side by side, and how many
// candidates ahead it prefetches a candidate's records.
constexpr std::size_t kBlock = 4;
constexpr std::size_t kPrefetchAhead = 16;

// Participation bits, folded into FilterStats when a pair is pruned.
constexpr std::uint8_t kFlagLength = 1;
constexpr std::uint8_t kFlagToken = 2;
constexpr std::uint8_t kFlagExact = 4;
constexpr std::uint8_t kFlagJaro = 8;

// Counts a pruned pair under every filter its participation bits name.
void RecordPruned(FilterStats* stats, std::uint8_t flags,
                  bool distance_cap) {
  ++stats->pairs_pruned;
  if (flags & kFlagLength) ++stats->by_length;
  if (flags & kFlagToken) ++stats->by_token_count;
  if (flags & kFlagExact) ++stats->by_exact;
  if (flags & kFlagJaro) ++stats->by_jaro;
  if (distance_cap) ++stats->by_distance_cap;
}

}  // namespace

FilterCascade::FilterCascade(const ItemMatcher* matcher, double threshold)
    : matcher_(matcher), threshold_(threshold) {
  RL_CHECK(matcher_ != nullptr);
  RL_CHECK(threshold_ >= 0.0 && threshold_ <= 1.0);
  plans_.reserve(matcher_->rules().size());
  for (const AttributeRule& rule : matcher_->rules()) {
    Plan plan;
    plan.weight = rule.weight;
    switch (rule.measure) {
      case SimilarityMeasure::kLevenshtein:
        plan.kind = Kind::kLevenshtein;
        plan.flag = kFlagLength;
        break;
      case SimilarityMeasure::kJaccardTokens:
        plan.kind = Kind::kJaccard;
        plan.flag = kFlagToken;
        break;
      case SimilarityMeasure::kDiceBigram:
        plan.kind = Kind::kDice;
        plan.flag = kFlagToken;
        break;
      case SimilarityMeasure::kExact:
        plan.kind = Kind::kExact;
        plan.flag = kFlagExact;
        break;
      case SimilarityMeasure::kJaro:
        plan.kind = Kind::kJaro;
        plan.flag = kFlagJaro;
        break;
      case SimilarityMeasure::kJaroWinkler:
        plan.kind = Kind::kJaroWinkler;
        plan.flag = kFlagJaro;
        break;
      case SimilarityMeasure::kMongeElkan:
        plan.kind = Kind::kOptimistic;
        break;
    }
    plans_.push_back(plan);
  }
}

// Kept out of stage A's loop: stage A decides all but a small share of
// the candidates (DESIGN.md §5h).
__attribute__((noinline)) bool FilterCascade::FailsDistanceCap(
    const FilterBatchScratch& scratch, const FeatureDictionary& dict,
    const FeatureCache& local_features, std::size_t local_index,
    const SlotRecord* loc, double bound_sum, double weight_total) const {
  for (const FilterBatchScratch::ActiveRule& rule : scratch.active_rules) {
    if (static_cast<Kind>(rule.kind) != Kind::kLevenshtein) continue;
    const SlotRecord& local = loc[rule.rule];
    if (local.num_values == 0) continue;  // rule inactive for this pair
    std::size_t num_loc = 1;
    const ValueId* values = &local.value_id;
    if (local.num_values != 1) {
      values = local_features.Values(local_index, rule.rule, &num_loc);
    }
    // The rule's own stage-A term, by the call stage A made.
    const double own_bound =
        local.num_values == 1 && !rule.multi_valued
            ? text::LevenshteinSignatureBound(rule.external->signature,
                                              rule.external->count,
                                              local.signature, local.count)
            : SignatureCrossProductBound(dict, SimilarityMeasure::kLevenshtein,
                                         rule.external_values,
                                         rule.num_external_values, values,
                                         num_loc);
    // Bound on every other rule's contribution = stage A's sum minus this
    // rule's own term; the subtraction's rounding is what kStageBSlack is
    // for.
    const double own = rule.weight * own_bound;
    const double floor =
        (threshold_ * weight_total - (bound_sum - own)) / rule.weight;
    const double floor_cap = floor - kStageBSlack;
    if (floor_cap <= 0.0) continue;  // any similarity could suffice
    double best = -1.0;
    for (std::size_t k = 0; k < rule.num_external_values; ++k) {
      const std::string_view va = dict.View(rule.external_values[k]);
      for (std::size_t j = 0; j < num_loc; ++j) {
        const std::string_view vb = dict.View(values[j]);
        const std::size_t longest = std::max(va.size(), vb.size());
        // Distances above this cap put the pair's similarity strictly
        // below floor_cap (the +1 absorbs the product's rounding). Two
        // empty values probe as distance 0, similarity 1.0.
        double allowed = (1.0 - floor_cap) * static_cast<double>(longest);
        if (allowed < 0.0) allowed = 0.0;
        const std::size_t cap = static_cast<std::size_t>(allowed) + 1;
        const std::size_t distance =
            text::BoundedLevenshteinDistance(va, vb, cap);
        if (distance <= cap) {
          best = std::max(best, text::LevenshteinSimilarityFromDistance(
                                    distance, longest));
        }
      }
    }
    // The pair is pruned when its best value pair stays below its floor.
    if (best < floor_cap) return true;
  }
  return false;
}

void FilterCascade::PruneBatch(const FeatureCache& external_features,
                               std::size_t external_index,
                               const FeatureCache& local_features,
                               const std::size_t* candidates,
                               std::size_t count, FilterStats* stats,
                               FilterBatchScratch* scratch) const {
  RL_DCHECK(scratch != nullptr);
  scratch->pruned.assign(count, 0);
  scratch->bound.resize(count);
  if (count == 0) return;

  const FeatureDictionary& dict = external_features.dict();
  const std::size_t num_rules = plans_.size();
  RL_DCHECK(local_features.num_rules() == num_rules);

  // The external item's active rules, in plan order (the scorer's rule
  // order): the rules whose external slot holds a value. Every other rule
  // is inactive for the whole run. Stage B runs only when one of them is
  // a Levenshtein rule and some similarity floor can be positive.
  std::vector<FilterBatchScratch::ActiveRule>& active = scratch->active_rules;
  active.clear();
  bool stage_b = false;
  const SlotRecord* external_records =
      external_features.records() + external_index * num_rules;
  for (std::size_t r = 0; r < num_rules; ++r) {
    const Plan& plan = plans_[r];
    FilterBatchScratch::ActiveRule rule;
    rule.external_values = external_features.Values(
        external_index, r, &rule.num_external_values);
    if (rule.num_external_values == 0) continue;  // property missing
    rule.rule = static_cast<std::uint32_t>(r);
    rule.kind = static_cast<std::uint8_t>(plan.kind);
    rule.flag = plan.flag;
    rule.multi_valued = rule.num_external_values > 1;
    rule.weight = plan.weight;
    rule.external = external_records + r;
    active.push_back(rule);
    stage_b |= plan.kind == Kind::kLevenshtein;
  }
  stage_b &= threshold_ > 0.0;

  // Stage A walks the run kBlock candidates at a time, and for each block
  // the active rules in rule order, so every candidate's sum takes its
  // terms in the scorer's order while the block's sums, weight totals and
  // participation bits stay in registers and the block's records, read in
  // place, stay in L1. A rule whose local slot is missing is skipped where
  // the scorer skips it (adding +0.0 instead would leave the non-negative
  // sums unchanged). Each term is the expression the cross-product helpers
  // evaluate for one value per side, over the same integers, so a slot's
  // term does not depend on which of the two computed it.
  const SlotRecord* local_records = local_features.records();
  const std::size_t item_bytes = num_rules * sizeof(SlotRecord);
  FilterStats pruned;  // the run's prunes, added to `stats` at the end
  const auto evaluate = [&](auto width, std::size_t first) {
    constexpr std::size_t kWidth = decltype(width)::value;
    const SlotRecord* loc[kWidth];
    double bound_sum[kWidth] = {};
    double weight_total[kWidth] = {};
    std::uint8_t flags[kWidth] = {};
    for (std::size_t j = 0; j < kWidth; ++j) {
      // The records of a candidate further on, whose address is
      // scattered, are fetched while this block computes.
      if (first + j + kPrefetchAhead < count) {
        const char* ahead = reinterpret_cast<const char*>(
            local_records + candidates[first + j + kPrefetchAhead] * num_rules);
        for (std::size_t at = 0; at < item_bytes; at += 64) {
          __builtin_prefetch(ahead + at);
        }
        __builtin_prefetch(ahead + item_bytes - 1);
      }
      loc[j] = local_records + candidates[first + j] * num_rules;
    }
    for (const FilterBatchScratch::ActiveRule& rule : active) {
      const SlotRecord& ext = *rule.external;
      const Kind kind = static_cast<Kind>(rule.kind);
      // Adds the rule's term for each candidate of the block; `single`
      // bounds a pair of single-valued slots from their records.
      const auto add_terms = [&](const auto& single)
                                 __attribute__((always_inline)) {
        for (std::size_t j = 0; j < kWidth; ++j) {
          const SlotRecord& local = loc[j][rule.rule];
          double bound = 1.0;
          if (local.num_values == 1 && !rule.multi_valued) {
            bound = single(local);
          } else if (local.num_values == 0) {  // property missing
            continue;
          } else {
            std::size_t num_loc = 0;
            const ValueId* values =
                local_features.Values(candidates[first + j], rule.rule,
                                      &num_loc);
            if (kind == Kind::kExact) {
              bound = ExactValue(rule.external_values,
                                 rule.num_external_values, values, num_loc);
            } else if (kind != Kind::kOptimistic) {
              bound = SignatureCrossProductBound(
                  dict, matcher_->rules()[rule.rule].measure,
                  rule.external_values, rule.num_external_values, values,
                  num_loc);
            }
          }
          if (bound < 1.0) flags[j] |= rule.flag;
          bound_sum[j] += rule.weight * bound;
          weight_total[j] += rule.weight;
        }
      };
      switch (kind) {
        case Kind::kOptimistic:
          add_terms([](const SlotRecord&) { return 1.0; });
          break;
        case Kind::kLevenshtein:
          add_terms([&](const SlotRecord& local) {
            return text::LevenshteinSignatureBound(
                ext.signature, ext.count, local.signature, local.count);
          });
          break;
        case Kind::kJaccard:
          add_terms([&](const SlotRecord& local) {
            return text::JaccardSignatureBound(ext.signature, ext.count,
                                               local.signature, local.count);
          });
          break;
        case Kind::kDice:
          add_terms([&](const SlotRecord& local) {
            return text::DiceSignatureBound(ext.signature, ext.count,
                                            local.signature, local.count);
          });
          break;
        case Kind::kExact:
          add_terms([&](const SlotRecord& local) {
            return local.value_id == ext.value_id ? 1.0 : 0.0;
          });
          break;
        case Kind::kJaro:
          add_terms([&](const SlotRecord& local) {
            return text::JaroSignatureBound(ext.signature, ext.count,
                                            local.signature, local.count);
          });
          break;
        case Kind::kJaroWinkler:
          add_terms([&](const SlotRecord& local) {
            return text::JaroWinklerSignatureBound(
                text::JaroSignatureBound(ext.signature, ext.count,
                                         local.signature, local.count),
                ext.jaro_prefix, ext.count, local.jaro_prefix, local.count);
          });
          break;
      }
    }
    // A renormalized bound below the threshold proves the pair out, and
    // so does stage B on a pair the bound keeps. An all-inactive pair
    // scores exactly 0.0, which is then its bound.
    for (std::size_t j = 0; j < kWidth; ++j) {
      const std::size_t i = first + j;
      const double bound =
          weight_total[j] == 0.0 ? 0.0 : bound_sum[j] / weight_total[j];
      scratch->bound[i] = bound;
      if (bound < threshold_) {
        scratch->pruned[i] = 1;
        RecordPruned(&pruned, flags[j], false);
      } else if (stage_b &&
                 FailsDistanceCap(*scratch, dict, local_features,
                                  candidates[i], loc[j], bound_sum[j],
                                  weight_total[j])) {
        scratch->pruned[i] = 1;
        RecordPruned(&pruned, flags[j], true);
      }
    }
  };
  std::size_t first = 0;
  for (; first + kBlock <= count; first += kBlock) {
    evaluate(std::integral_constant<std::size_t, kBlock>(), first);
  }
  for (; first < count; ++first) {
    evaluate(std::integral_constant<std::size_t, 1>(), first);
  }
  if (stats != nullptr) stats->Add(pruned);
}

}  // namespace rulelink::linking
