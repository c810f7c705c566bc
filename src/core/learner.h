// The rule learning algorithm (Algorithm 1, §4.3): frequent-conjunction
// mining of p(X,Y) ∧ subsegment(Y,a) ⇒ c(X) rules over the training set.
//
// Counting semantics (one "count" = one training example / same-as link):
//   * premise_count(p,a) counts examples whose external item has SOME value
//     of p containing segment a (distinct per example, as the logical
//     reading of the premise requires);
//   * class_count(c) counts examples whose local item belongs to the
//     most-specific class c;
//   * joint_count(p,a,c) counts examples satisfying both.
// A conjunction is frequent when count / |TS| > th (strict, matching the
// paper's "frequency greater than th").
#ifndef RULELINK_CORE_LEARNER_H_
#define RULELINK_CORE_LEARNER_H_

#include <string>
#include <vector>

#include "core/rule.h"
#include "core/training_set.h"
#include "obs/metrics.h"
#include "text/segmenter.h"
#include "util/status.h"

namespace rulelink::core {

// The one frequency predicate every learner shares: a conjunction seen in
// `count` of `total` examples is frequent iff count / total > th — strict,
// matching the paper's "frequency greater than th". Stated as
// count > th * total (one multiply, no division) and kept in a single
// place so the batch, reference and incremental learners cannot drift at
// the boundary: count == th * total exactly (e.g. 2 of 8 at th = 0.25) is
// NOT frequent for all of them, bit-for-bit.
inline bool IsFrequentCount(std::size_t count, double support_threshold,
                            std::size_t total) {
  return static_cast<double>(count) >
         support_threshold * static_cast<double>(total);
}

struct LearnerOptions {
  // Support threshold th (relative to |TS|). The paper uses 0.002.
  double support_threshold = 0.002;

  // Segmentation scheme (borrowed pointer, must outlive Learn()).
  const text::Segmenter* segmenter = nullptr;

  // The expert-selected property set P (property IRIs). Empty = all
  // properties present in the training facts, as Algorithm 1 allows.
  std::vector<std::string> properties;

  // Optional post-filter: drop rules below this confidence. 0 keeps all.
  double min_confidence = 0.0;

  // Worker threads for the counting passes. 0 = hardware concurrency,
  // 1 = the serial code path (no pool). Every thread count produces
  // byte-identical rules, ordering and statistics: counting is sharded
  // over contiguous example ranges into per-worker maps that are merged
  // additively, and the RuleSet ordering is a total order.
  std::size_t num_threads = 0;
};

// Corpus statistics reported by the learner; these are the §5 in-text
// numbers (7842 distinct segments, 26077 occurrences, 7058 selected
// occurrences, 68 frequent classes, 144 rules, 16 classes with rules).
struct LearnStats {
  std::size_t num_examples = 0;
  std::size_t distinct_segments = 0;        // distinct segment strings
  std::size_t segment_occurrences = 0;      // total occurrences emitted
  std::size_t selected_segment_occurrences = 0;  // occurrences of frequent premises
  std::size_t frequent_premises = 0;        // (p,a) pairs above th
  std::size_t frequent_classes = 0;         // classes above th
  std::size_t num_rules = 0;
  std::size_t classes_with_rules = 0;       // distinct rule conclusions
  // Interned-pipeline internals (bench/diagnostics): symbol-table size and
  // footprint (arena, id table and hash slots) of the corpus segment
  // interner built in phase 0.
  std::size_t interner_symbols = 0;
  std::size_t interner_bytes = 0;
};

class RuleLearner {
 public:
  explicit RuleLearner(LearnerOptions options);

  // Mines the rule set. Fails on an empty training set, a missing
  // segmenter, or a threshold outside (0, 1). `metrics`, when non-null,
  // gets the learner phase stages ("learn/segment", "learn/count_*",
  // "learn/emit_rules"), the corpus counters mirroring LearnStats and a
  // log2 histogram of per-example segment occurrences — all
  // thread-invariant, so snapshots are byte-identical at every
  // num_threads (DESIGN.md §5f).
  util::Result<RuleSet> Learn(const TrainingSet& ts,
                              LearnStats* stats = nullptr,
                              obs::MetricsRegistry* metrics = nullptr) const;

  const LearnerOptions& options() const { return options_; }

 private:
  LearnerOptions options_;
};

}  // namespace rulelink::core

#endif  // RULELINK_CORE_LEARNER_H_
