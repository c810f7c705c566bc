// Threshold-aware filter cascade for the streaming linker: cheap, *sound*
// upper bounds on the aggregate match score, evaluated on FeatureCache
// data before any similarity kernel runs. A pair is pruned only when the
// bound proves its score would land below the linker threshold, so the
// surviving pairs — and therefore the emitted links — are exactly the
// ones the unfiltered scorer produces (the soundness argument, including
// why IEEE rounding cannot flip a decision, is in DESIGN.md §5e).
#ifndef RULELINK_LINKING_FILTERS_H_
#define RULELINK_LINKING_FILTERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linking/feature_cache.h"
#include "linking/matcher.h"

namespace rulelink::linking {

// Prune counters. A pair the cascade prunes increments every filter whose
// bound was below the optimistic 1.0 for some active rule, so the
// per-filter counters can sum to more than `pairs_pruned`. A pair the
// streaming linker's running-best floor drops counts in `pairs_pruned`
// and `by_running_best` only. Folded into LinkerStats by AddFilterStats
// (streaming_linker.h).
struct FilterStats {
  std::uint64_t pairs_pruned = 0;
  std::uint64_t by_length = 0;        // Levenshtein bag-distance bound
  std::uint64_t by_token_count = 0;   // Jaccard/Dice signature counts
  std::uint64_t by_exact = 0;         // kExact id mismatch
  std::uint64_t by_distance_cap = 0;  // capped bit-parallel probe (stage B)
  std::uint64_t by_jaro = 0;          // Jaro/Jaro-Winkler count bound
  std::uint64_t by_running_best = 0;  // bound below the best-so-far score

  void Add(const FilterStats& other) {
    pairs_pruned += other.pairs_pruned;
    by_length += other.by_length;
    by_token_count += other.by_token_count;
    by_exact += other.by_exact;
    by_distance_cap += other.by_distance_cap;
    by_jaro += other.by_jaro;
    by_running_best += other.by_running_best;
  }
};

// Reusable per-worker scratch for FilterCascade::PruneBatch: the external
// item's active rules, plus the outputs. Owned by the caller (one per
// streaming shard) so a run's batch pass allocates nothing after warm-up.
// `pruned[i]` is 1 when candidate i of the last PruneBatch call was
// pruned, and `bound[i]` is its stage-A bound on the aggregate score.
struct FilterBatchScratch {
  // One rule whose external slot holds a value, in rule order.
  struct ActiveRule {
    std::uint32_t rule = 0;
    std::uint8_t kind = 0;   // FilterCascade's plan kind
    std::uint8_t flag = 0;   // participation bit for FilterStats
    bool multi_valued = false;  // the external slot holds several values
    double weight = 1.0;
    const SlotRecord* external = nullptr;
    const ValueId* external_values = nullptr;
    std::size_t num_external_values = 0;
  };
  std::vector<ActiveRule> active_rules;
  // Outputs of the last call.
  std::vector<std::uint8_t> pruned;
  std::vector<double> bound;
};

class FilterCascade {
 public:
  // `matcher` is borrowed and must outlive the cascade; `threshold` is the
  // linker's decision threshold in [0, 1].
  FilterCascade(const ItemMatcher* matcher, double threshold);

  // Prunes one external item's whole candidate run: sets
  // scratch->pruned[i] to 1 exactly when candidate i's aggregate score is
  // provably below the threshold, and counts every prune in `stats`.
  // Stage A combines per-rule upper bounds (from each slot's count
  // signature: the bag distance for Levenshtein, the hashed bigram and
  // token overlaps for Dice and Jaccard, the byte overlap for Jaro and
  // Jaro-Winkler; the exact id scan for kExact, 1.0 for Monge-Elkan) with
  // the matcher's weight renormalization. It walks the run a few
  // candidates at a time, reading each candidate's adjacent FeatureCache
  // slot records in place and summing the external item's active rules
  // in rule order; a multi-valued slot on either side adds its best bound
  // over the value cross product in its place. Stage B checks each
  // candidate stage A keeps, where stage A keeps it: per active
  // Levenshtein rule, one capped bit-parallel probe
  // (text::BoundedLevenshteinDistance) per value pair. scratch->bound[i]
  // is set to stage A's bound for every candidate: it is at least the
  // score ItemMatcher::ScoreRun computes for the pair, as a double, which
  // the streaming linker's running-best floor relies on (DESIGN.md §5e,
  // §5h). Thread-safe as long as each worker owns its scratch.
  void PruneBatch(const FeatureCache& external_features,
                  std::size_t external_index,
                  const FeatureCache& local_features,
                  const std::size_t* candidates, std::size_t count,
                  FilterStats* stats, FilterBatchScratch* scratch) const;

  double threshold() const { return threshold_; }

 private:
  enum class Kind : std::uint8_t {
    kOptimistic,   // no cheap bound: assume 1.0
    kLevenshtein,  // bag-distance bound + capped probe
    kJaccard,      // token-set signature bound
    kDice,         // bigram signature bound
    kExact,        // evaluated exactly on value ids
    kJaro,         // byte signature bound
    kJaroWinkler,  // the same, through the Winkler prefix step
  };
  struct Plan {
    Kind kind = Kind::kOptimistic;
    std::uint8_t flag = 0;  // the FilterStats participation bit it sets
    double weight = 1.0;
  };

  // Stage B for one candidate stage A kept: true when some active
  // Levenshtein rule's probes prove the pair below the threshold. `loc` is
  // the candidate's slot records; `bound_sum` and `weight_total` are
  // stage A's sums for it.
  bool FailsDistanceCap(const FilterBatchScratch& scratch,
                        const FeatureDictionary& dict,
                        const FeatureCache& local_features,
                        std::size_t local_index, const SlotRecord* loc,
                        double bound_sum, double weight_total) const;

  const ItemMatcher* matcher_;
  double threshold_;
  std::vector<Plan> plans_;  // positional, parallel to matcher_->rules()
};

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_FILTERS_H_
