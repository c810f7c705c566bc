#include "linking/filters.h"

#include <algorithm>
#include <cstring>

#include "text/similarity.h"
#include "util/logging.h"
#include "util/simd.h"

// Stage A's elementwise kernels are compiled once per ISA via per-function
// target attributes; only x86 has the multi-versioned clones.
#if defined(__x86_64__) || defined(__i386__)
#define RULELINK_X86_TARGETS 1
#else
#define RULELINK_X86_TARGETS 0
#endif

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
// cross product of a multi-valued slot: the lane kernel's bound per value
// pair, with each value's signature, counts and prefix computed from its
// string as FeatureCache computes the lanes.
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

// --- Batched stage A (DESIGN.md §5h) -----------------------------------
//
// One elementwise pass per rule over the whole candidate run, reading the
// FeatureCache SoA lanes. Every lane evaluates the very expression the
// cross-product helpers above evaluate for a single value on each side —
// same integer widths in the denominators, same comparison order — so a
// slot's term does not depend on which of the two computed it. Inactive
// lanes (an invalid id: a missing or multi-valued local slot) contribute
// +0.0, which is an IEEE identity here because the accumulators start at
// +0.0 and only ever add non-negative products; a multi-valued slot's
// cross-product term is added right after the pass (AddCrossProductBound).

// Participation bits, folded into FilterStats when a pair is pruned.
constexpr std::uint8_t kFlagLength = 1;
constexpr std::uint8_t kFlagToken = 2;
constexpr std::uint8_t kFlagExact = 4;
constexpr std::uint8_t kFlagJaro = 8;

// Mirrors FilterCascade::Kind (private) for the free-function kernels.
enum StageAKind : int {
  kStageAOptimistic = 0,
  kStageALevenshtein,
  kStageAJaccard,
  kStageADice,
  kStageAExact,
  kStageAJaro,  // Jaro, and Jaro-Winkler when StageAArgs::winkler
};

struct StageAArgs {
  int kind = kStageAOptimistic;
  double weight = 1.0;
  std::uint32_t ext_scalar = 0;  // length / unique tokens / bigrams
  ValueId ext_id = util::kInvalidSymbolId;
  const std::uint8_t* ext_signature = nullptr;  // the signature kinds only
  std::uint32_t ext_prefix = 0;                 // kStageAJaro only
  bool winkler = false;                         // kStageAJaro only
  const std::uint32_t* loc_scalar = nullptr;  // gathered, one per pair
  const ValueId* loc_id = nullptr;            // gathered, one per pair
  const std::uint8_t* loc_signature = nullptr;  // gathered, 16 B per pair
  const std::uint32_t* loc_prefix = nullptr;    // gathered, one per pair
  std::size_t n = 0;
  double* bound_sum = nullptr;
  double* weight_total = nullptr;
  double* lev_bound = nullptr;  // this rule's row; only for kLevenshtein
  std::uint8_t* flags = nullptr;
};

// The shared elementwise body; always_inline so each target-attributed
// wrapper below compiles its own copy at its own ISA.
__attribute__((always_inline)) inline void StageARuleImpl(
    const StageAArgs& a) {
  switch (a.kind) {
    case kStageAOptimistic:
      for (std::size_t i = 0; i < a.n; ++i) {
        const bool active = a.loc_id[i] != util::kInvalidSymbolId;
        // bound = 1.0, and weight * 1.0 == weight exactly.
        a.bound_sum[i] += active ? a.weight : 0.0;
        a.weight_total[i] += active ? a.weight : 0.0;
      }
      break;
    case kStageALevenshtein:
      for (std::size_t i = 0; i < a.n; ++i) {
        const bool active = a.loc_id[i] != util::kInvalidSymbolId;
        const double bound = text::LevenshteinSignatureBound(
            a.ext_signature, a.ext_scalar,
            a.loc_signature + i * text::kSignatureBytes, a.loc_scalar[i]);
        if (active && bound < 1.0) a.flags[i] |= kFlagLength;
        a.lev_bound[i] = active ? bound : -1.0;
        a.bound_sum[i] += active ? a.weight * bound : 0.0;
        a.weight_total[i] += active ? a.weight : 0.0;
      }
      break;
    case kStageAJaccard:
      for (std::size_t i = 0; i < a.n; ++i) {
        const bool active = a.loc_id[i] != util::kInvalidSymbolId;
        const double bound = text::JaccardSignatureBound(
            a.ext_signature, a.ext_scalar,
            a.loc_signature + i * text::kSignatureBytes, a.loc_scalar[i]);
        if (active && bound < 1.0) a.flags[i] |= kFlagToken;
        a.bound_sum[i] += active ? a.weight * bound : 0.0;
        a.weight_total[i] += active ? a.weight : 0.0;
      }
      break;
    case kStageADice:
      for (std::size_t i = 0; i < a.n; ++i) {
        const bool active = a.loc_id[i] != util::kInvalidSymbolId;
        const double bound = text::DiceSignatureBound(
            a.ext_signature, a.ext_scalar,
            a.loc_signature + i * text::kSignatureBytes, a.loc_scalar[i]);
        if (active && bound < 1.0) a.flags[i] |= kFlagToken;
        a.bound_sum[i] += active ? a.weight * bound : 0.0;
        a.weight_total[i] += active ? a.weight : 0.0;
      }
      break;
    case kStageAExact:
      for (std::size_t i = 0; i < a.n; ++i) {
        const bool active = a.loc_id[i] != util::kInvalidSymbolId;
        const double bound = a.loc_id[i] == a.ext_id ? 1.0 : 0.0;
        if (active && bound < 1.0) a.flags[i] |= kFlagExact;
        a.bound_sum[i] += active ? a.weight * bound : 0.0;
        a.weight_total[i] += active ? a.weight : 0.0;
      }
      break;
    case kStageAJaro:
      for (std::size_t i = 0; i < a.n; ++i) {
        const bool active = a.loc_id[i] != util::kInvalidSymbolId;
        double bound = text::JaroSignatureBound(
            a.ext_signature, a.ext_scalar,
            a.loc_signature + i * text::kSignatureBytes, a.loc_scalar[i]);
        if (a.winkler) {
          bound = text::JaroWinklerSignatureBound(
              bound, a.ext_prefix, a.ext_scalar, a.loc_prefix[i],
              a.loc_scalar[i]);
        }
        if (active && bound < 1.0) a.flags[i] |= kFlagJaro;
        a.bound_sum[i] += active ? a.weight * bound : 0.0;
        a.weight_total[i] += active ? a.weight : 0.0;
      }
      break;
    default:
      break;
  }
}

void StageARuleBaseline(const StageAArgs& a) { StageARuleImpl(a); }

#if RULELINK_X86_TARGETS
__attribute__((target("avx2"))) void StageARuleAvx2(const StageAArgs& a) {
  StageARuleImpl(a);
}
#endif  // RULELINK_X86_TARGETS

using StageAKernel = void (*)(const StageAArgs&);

StageAKernel PickStageAKernel(util::SimdMode mode) {
#if RULELINK_X86_TARGETS
  switch (mode) {
    case util::SimdMode::kAVX2:
      return StageARuleAvx2;
    default:
      return StageARuleBaseline;
  }
#else
  (void)mode;
  return StageARuleBaseline;
#endif
}

// One rule's term for candidate i when a slot holds several values: the
// best bound over the value-id cross product, through the helpers above,
// with the lane kernel's bookkeeping. It runs right after the rule's
// kernel pass (which added +0.0 for the slot's invalid id lane), so each
// candidate's sums still see the rules in the scorer's order.
void AddCrossProductBound(const FeatureDictionary& dict, const StageAArgs& a,
                          SimilarityMeasure measure, const ValueId* ext,
                          std::size_t num_ext, const ValueId* loc,
                          std::size_t num_loc, std::size_t i) {
  double bound = 1.0;
  std::uint8_t flag = 0;
  switch (a.kind) {
    case kStageALevenshtein:
      bound = SignatureCrossProductBound(dict, measure, ext, num_ext, loc,
                                         num_loc);
      flag = kFlagLength;
      a.lev_bound[i] = bound;
      break;
    case kStageAJaccard:
    case kStageADice:
      bound = SignatureCrossProductBound(dict, measure, ext, num_ext, loc,
                                         num_loc);
      flag = kFlagToken;
      break;
    case kStageAExact:
      bound = ExactValue(ext, num_ext, loc, num_loc);
      flag = kFlagExact;
      break;
    case kStageAJaro:
      bound = SignatureCrossProductBound(dict, measure, ext, num_ext, loc,
                                         num_loc);
      flag = kFlagJaro;
      break;
    default:
      break;
  }
  if (bound < 1.0) a.flags[i] |= flag;
  a.bound_sum[i] += a.weight * bound;
  a.weight_total[i] += a.weight;
}

// Counts a pruned pair under every filter its participation bits name.
void RecordPruned(FilterStats* stats, std::uint8_t flags,
                  bool distance_cap) {
  if (stats == nullptr) return;
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
        any_levenshtein_ = true;
        break;
      case SimilarityMeasure::kJaccardTokens:
        plan.kind = Kind::kJaccard;
        break;
      case SimilarityMeasure::kDiceBigram:
        plan.kind = Kind::kDice;
        break;
      case SimilarityMeasure::kExact:
        plan.kind = Kind::kExact;
        break;
      case SimilarityMeasure::kJaro:
        plan.kind = Kind::kJaro;
        break;
      case SimilarityMeasure::kJaroWinkler:
        plan.kind = Kind::kJaroWinkler;
        break;
      case SimilarityMeasure::kMongeElkan:
        plan.kind = Kind::kOptimistic;
        break;
    }
    plans_.push_back(plan);
  }
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
  std::size_t num_lev = 0;
  for (const Plan& plan : plans_) {
    if (plan.kind == Kind::kLevenshtein) ++num_lev;
  }

  scratch->bound_sum.assign(count, 0.0);
  scratch->weight_total.assign(count, 0.0);
  scratch->flags.assign(count, 0);
  scratch->lev_bound.assign(num_lev * count, -1.0);
  scratch->lane_scalar.resize(count);
  scratch->lane_id.resize(count);

  const std::uint32_t* ext_lengths = external_features.lane_byte_lengths();
  const std::uint32_t* ext_tokens = external_features.lane_unique_tokens();
  const std::uint32_t* ext_bigrams = external_features.lane_bigrams();
  const ValueId* loc_ids = local_features.lane_value_ids();
  const std::uint32_t* loc_lengths = local_features.lane_byte_lengths();
  const std::uint32_t* loc_tokens = local_features.lane_unique_tokens();
  const std::uint32_t* loc_bigrams = local_features.lane_bigrams();
  const std::uint8_t* ext_signatures = external_features.lane_signatures();
  const std::uint32_t* ext_prefixes = external_features.lane_jaro_prefixes();
  const std::uint8_t* loc_signatures = local_features.lane_signatures();
  const std::uint32_t* loc_prefixes = local_features.lane_jaro_prefixes();
  const StageAKernel kernel = PickStageAKernel(util::ActiveSimdMode());

  // Stage A, rule-outer, in plan order (the scorer's rule order): gather
  // the local lanes this rule's bound reads into contiguous scratch, run
  // one elementwise kernel pass, then add the cross-product terms of the
  // multi-valued slots. An external item with several values under the
  // rule takes the cross product for every candidate instead.
  std::size_t lev_row = 0;
  for (std::size_t r = 0; r < num_rules; ++r) {
    const Plan& plan = plans_[r];
    const SimilarityMeasure measure = matcher_->rules()[r].measure;
    const std::size_t row =
        plan.kind == Kind::kLevenshtein ? lev_row++ : 0;
    std::size_t num_ext = 0;
    const ValueId* ext =
        external_features.Values(external_index, r, &num_ext);
    if (num_ext == 0) continue;  // property missing

    const std::size_t ext_slot = external_index * num_rules + r;
    StageAArgs args;
    args.weight = plan.weight;
    args.ext_id = ext[0];
    args.n = count;
    args.bound_sum = scratch->bound_sum.data();
    args.weight_total = scratch->weight_total.data();
    args.flags = scratch->flags.data();
    args.loc_scalar = scratch->lane_scalar.data();
    args.loc_id = scratch->lane_id.data();
    const std::uint32_t* gather_from = nullptr;
    switch (plan.kind) {
      case Kind::kOptimistic:
        args.kind = kStageAOptimistic;
        break;
      case Kind::kLevenshtein:
        args.kind = kStageALevenshtein;
        args.ext_scalar = ext_lengths[ext_slot];
        args.lev_bound = scratch->lev_bound.data() + row * count;
        gather_from = loc_lengths;
        break;
      case Kind::kJaccard:
        args.kind = kStageAJaccard;
        args.ext_scalar = ext_tokens[ext_slot];
        gather_from = loc_tokens;
        break;
      case Kind::kDice:
        args.kind = kStageADice;
        args.ext_scalar = ext_bigrams[ext_slot];
        gather_from = loc_bigrams;
        break;
      case Kind::kExact:
        args.kind = kStageAExact;
        break;
      case Kind::kJaro:
      case Kind::kJaroWinkler:
        RL_DCHECK(ext_prefixes != nullptr && loc_prefixes != nullptr)
            << "caches built without the Jaro prefix lane";
        args.kind = kStageAJaro;
        args.winkler = plan.kind == Kind::kJaroWinkler;
        args.ext_scalar = ext_lengths[ext_slot];
        args.ext_prefix = ext_prefixes[ext_slot];
        gather_from = loc_lengths;
        scratch->lane_prefix.resize(count);
        args.loc_prefix = scratch->lane_prefix.data();
        break;
    }
    // Every plan with a scalar lane also reads the slots' signatures.
    const bool signature = gather_from != nullptr;
    if (signature) {
      RL_DCHECK(ext_signatures != nullptr && loc_signatures != nullptr)
          << "caches built without the signature lane";
      args.ext_signature = ext_signatures + ext_slot * text::kSignatureBytes;
      scratch->lane_signature.resize(count * text::kSignatureBytes);
      args.loc_signature = scratch->lane_signature.data();
    }
    if (num_ext > 1) {
      for (std::size_t i = 0; i < count; ++i) {
        std::size_t num_loc = 0;
        const ValueId* loc = local_features.Values(candidates[i], r, &num_loc);
        if (num_loc == 0) continue;
        AddCrossProductBound(dict, args, measure, ext, num_ext, loc, num_loc,
                             i);
      }
      continue;
    }
    scratch->multi_valued.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot = candidates[i] * num_rules + r;
      const ValueId id = loc_ids[slot];
      scratch->lane_id[i] = id;
      if (signature) {
        scratch->lane_scalar[i] = gather_from[slot];
        std::memcpy(scratch->lane_signature.data() + i * text::kSignatureBytes,
                    loc_signatures + slot * text::kSignatureBytes,
                    text::kSignatureBytes);
      }
      if (args.kind == kStageAJaro) {
        scratch->lane_prefix[i] = loc_prefixes[slot];
      }
      if (id == util::kInvalidSymbolId) {
        std::size_t num_loc = 0;
        local_features.Values(candidates[i], r, &num_loc);
        if (num_loc > 1) scratch->multi_valued.push_back(i);
      }
    }
    kernel(args);
    for (const std::size_t i : scratch->multi_valued) {
      std::size_t num_loc = 0;
      const ValueId* loc = local_features.Values(candidates[i], r, &num_loc);
      AddCrossProductBound(dict, args, measure, ext, 1, loc, num_loc, i);
    }
  }

  // Stage-A decision: a renormalized bound below the threshold proves the
  // pair out. All-inactive pairs score exactly 0.0, which is then their
  // bound.
  for (std::size_t i = 0; i < count; ++i) {
    const double bound =
        scratch->weight_total[i] == 0.0
            ? 0.0
            : scratch->bound_sum[i] / scratch->weight_total[i];
    scratch->bound[i] = bound;
    if (bound < threshold_) {
      scratch->pruned[i] = 1;
      RecordPruned(stats, scratch->flags[i], false);
    }
  }

  // Stage B: the length bound survived, but capped bit-parallel probes may
  // still prove every Levenshtein value pair sits below the similarity
  // floor that rule would need for the aggregate to reach the threshold.
  // Per Levenshtein rule in plan order, derive each surviving pair's floor
  // and queue one capped probe per value pair, then run them all through
  // the interleaved kernel. A pair pruned by an earlier rule skips the
  // later ones.
  if (!any_levenshtein_ || threshold_ <= 0.0) return;
  lev_row = 0;
  for (std::size_t r = 0; r < num_rules; ++r) {
    if (plans_[r].kind != Kind::kLevenshtein) continue;
    const std::size_t row = lev_row++;
    std::size_t num_ext = 0;
    const ValueId* ext =
        external_features.Values(external_index, r, &num_ext);
    if (num_ext == 0) continue;
    std::vector<std::string_view>& ext_views = scratch->external_views;
    ext_views.resize(num_ext);
    for (std::size_t k = 0; k < num_ext; ++k) ext_views[k] = dict.View(ext[k]);
    const double weight = plans_[r].weight;
    const double* lev_bounds = scratch->lev_bound.data() + row * count;
    scratch->probe_a.clear();
    scratch->probe_b.clear();
    scratch->probe_cap.clear();
    scratch->probe_pair.clear();
    scratch->probe_longest.clear();
    scratch->probe_floor.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (scratch->pruned[i] != 0) continue;
      const double own_bound = lev_bounds[i];
      if (own_bound < 0.0) continue;  // rule inactive for this pair
      // Bound on every other rule's contribution = stage A's sum minus
      // this rule's own term; the subtraction's rounding is what
      // kStageBSlack is for.
      const double own = weight * own_bound;
      const double floor = (threshold_ * scratch->weight_total[i] -
                            (scratch->bound_sum[i] - own)) /
                           weight;
      const double floor_cap = floor - kStageBSlack;
      if (floor_cap <= 0.0) continue;  // any similarity could suffice
      const std::size_t slot = candidates[i] * num_rules + r;
      std::size_t num_loc = 1;
      const ValueId* loc = loc_ids + slot;
      if (*loc == util::kInvalidSymbolId) {
        loc = local_features.Values(candidates[i], r, &num_loc);
      }
      for (const std::string_view va : ext_views) {
        for (std::size_t j = 0; j < num_loc; ++j) {
          const std::string_view vb = dict.View(loc[j]);
          const std::size_t longest = std::max(va.size(), vb.size());
          // Distances above this cap put the pair's similarity strictly
          // below floor_cap (the +1 absorbs the product's rounding). Two
          // empty values probe as distance 0, similarity 1.0.
          double allowed = (1.0 - floor_cap) * static_cast<double>(longest);
          if (allowed < 0.0) allowed = 0.0;
          scratch->probe_a.push_back(va);
          scratch->probe_b.push_back(vb);
          scratch->probe_cap.push_back(static_cast<std::size_t>(allowed) +
                                       1);
          scratch->probe_pair.push_back(i);
          scratch->probe_longest.push_back(longest);
          scratch->probe_floor.push_back(floor_cap);
        }
      }
    }
    const std::size_t num_probes = scratch->probe_a.size();
    if (num_probes == 0) continue;
    scratch->probe_out.resize(num_probes);
    text::BoundedLevenshteinDistanceBatch(
        scratch->probe_a.data(), scratch->probe_b.data(),
        scratch->probe_cap.data(), num_probes, scratch->probe_out.data());
    // A pair is pruned when its best value pair stays below its floor.
    for (std::size_t p = 0; p < num_probes;) {
      const std::size_t i = scratch->probe_pair[p];
      const double floor_cap = scratch->probe_floor[p];
      double best = -1.0;
      for (; p < num_probes && scratch->probe_pair[p] == i; ++p) {
        if (scratch->probe_out[p] <= scratch->probe_cap[p]) {
          best = std::max(best, text::LevenshteinSimilarityFromDistance(
                                    scratch->probe_out[p],
                                    scratch->probe_longest[p]));
        }
      }
      if (best < floor_cap) {
        scratch->pruned[i] = 1;
        RecordPruned(stats, scratch->flags[i], true);
      }
    }
  }
}

}  // namespace rulelink::linking
