// Pairwise item matching: weighted combination of per-attribute string
// similarities. This is the expensive comparison step the paper's rules
// exist to avoid running on the full cartesian space.
#ifndef RULELINK_LINKING_MATCHER_H_
#define RULELINK_LINKING_MATCHER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/item.h"

namespace rulelink::linking {

class FeatureCache;      // feature_cache.h; broken include cycle
struct ScoreRunScratch;  // query_scratch.h; likewise

enum class SimilarityMeasure {
  kExact,
  kLevenshtein,
  kJaro,
  kJaroWinkler,
  kJaccardTokens,
  kDiceBigram,
  kMongeElkan,
};

// Dispatches to the text:: similarity functions; kExact returns 1.0 on
// equality and 0.0 otherwise.
double ComputeSimilarity(SimilarityMeasure measure, std::string_view a,
                         std::string_view b);

const char* SimilarityMeasureName(SimilarityMeasure measure);

// One attribute comparison: which property to read on each side, which
// measure to apply, and its weight in the aggregate.
struct AttributeRule {
  std::string external_property;
  std::string local_property;
  SimilarityMeasure measure = SimilarityMeasure::kJaroWinkler;
  double weight = 1.0;
};

// Counters of the cached-score memo (see ScoreMemo below). These depend
// on how work was chunked across workers — unlike the scores themselves —
// so they live outside LinkerStats and are reported by benchmarks only.
struct ScoreMemoStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;

  void Add(const ScoreMemoStats& other) {
    lookups += other.lookups;
    hits += other.hits;
  }
  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

// Memo table for the cached-score path, keyed by (value-id, value-id).
// Only Monge-Elkan consults it; every other measure runs its kernel on
// each pair. The memo pays only where value pairs repeat: a hit replays
// a score, a miss adds a lookup-or-insert to the kernel and grows the
// table. DESIGN.md §5d gives the measured per-measure costs and each
// workload's share of repeated value pairs. An entry is a pure function
// of the two strings, so one map serves every Monge-Elkan rule and
// replaying it is always exact.
// Not thread-safe: each linker worker keeps its own memo.
class ScoreMemo {
 public:
  void Clear() {
    map_.clear();
    stats_ = ScoreMemoStats();
  }
  const ScoreMemoStats& stats() const { return stats_; }

  // Internal accessors for the cached scorer; not meant for callers.
  std::unordered_map<std::uint64_t, double>& map() { return map_; }
  ScoreMemoStats& mutable_stats() { return stats_; }

 private:
  std::unordered_map<std::uint64_t, double> map_;
  ScoreMemoStats stats_;
};

class ItemMatcher {
 public:
  explicit ItemMatcher(std::vector<AttributeRule> rules);

  // Weighted mean over attribute rules of the best value-pair similarity.
  // Rules whose property is missing on either side are skipped and the
  // weights renormalized; if every rule is skipped the score is 0.
  // `measures_computed` (optional) is incremented once per similarity
  // kernel actually executed (one per value pair per active rule).
  double Score(const core::Item& external, const core::Item& local,
               std::uint64_t* measures_computed = nullptr) const;

  // Scores one external item against a run of local items from
  // precomputed features: afterwards scratch->scores[i] is
  // Score(external, local[candidates[i]]) bit for bit on the items the
  // caches were built from, for every i < count. Both caches must have
  // been built against this matcher and share one FeatureDictionary root.
  // Rule by rule, a gather pass resolves every candidate's local values
  // into the scratch (single-valued slots through their record's id),
  // then a score pass runs the rule's kernel over the gathered values against
  // each external value, prepared once per run (DESIGN.md §5d); token
  // measures run as sort-merges over dense ids instead of re-tokenizing
  // strings. Each candidate adds weight * best in rule order, exactly as
  // Score does. `memo` (optional) short-circuits repeated Monge-Elkan
  // value pairs. `measures_computed` (optional) counts kernels actually
  // run: memo hits are replays, not computations, so they do not count
  // (which makes the counter depend on memo state, unlike the scores);
  // kExact counts the id pairs it examined before short-circuiting. Both
  // move exactly as a pair-by-pair loop over the run in order would move
  // them.
  void ScoreRun(const FeatureCache& external_features,
                std::size_t external_index,
                const FeatureCache& local_features,
                const std::size_t* candidates, std::size_t count,
                ScoreMemo* memo, std::uint64_t* measures_computed,
                ScoreRunScratch* scratch) const;

  const std::vector<AttributeRule>& rules() const { return rules_; }

 private:
  std::vector<AttributeRule> rules_;
};

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_MATCHER_H_
