// The one counter behind Algorithm 1 (§4.3). The batch, incremental and
// generalizing learners all feed it their training examples, one at a
// time, and read their rules from it, so there is one definition of how
// an example counts and of when a conjunction becomes a rule.
//
// Counting semantics (one "count" = one training example / same-as link):
//   * premise_count(p,a) counts examples with SOME value of p containing
//     segment a (distinct per example, as the logical reading of the
//     premise requires);
//   * class_count(c) counts examples whose conclusions include c;
//   * joint_count(p,a,c) counts examples satisfying both.
// A conjunction is frequent when IsFrequentCount(count, th, |TS|).
#ifndef RULELINK_CORE_CONTINGENCY_H_
#define RULELINK_CORE_CONTINGENCY_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/learner.h"
#include "core/rule.h"
#include "ontology/ontology.h"
#include "text/segmenter.h"
#include "util/id_hash_index.h"
#include "util/interner.h"

namespace rulelink::core {

class ContingencyCounts {
 public:
  // `segmenter` is borrowed and must outlive the counter.
  explicit ContingencyCounts(const text::Segmenter* segmenter);

  // Segments `value`, a value of `property` on the open example, interns
  // the segments and records the example's (property, segment) premises.
  void AddValue(PropertyId property, std::string_view value);

  // Closes the open example with conclusions `classes` and counts it:
  // every premise occurrence (repeats included), each premise once, each
  // class once per entry of `classes`. The example's distinct premises
  // and its classes are kept for the joint pass in Rules().
  void EndExample(const std::vector<ontology::ClassId>& classes);

  std::size_t num_examples() const { return class_offsets_.size() - 1; }
  // Premise occurrences of every value added so far.
  std::size_t segment_occurrences() const { return segment_occurrences_; }
  // Every distinct segment added so far; the rules' segment ids index it.
  const util::StringInterner& segments() const { return segments_; }

  // The rules at support threshold `th`: every (premise, class) whose
  // joint count is frequent and whose confidence is >= `min_confidence`.
  // Joint counts are counted here, over the kept examples, into a dense
  // grid of frequent premises by frequent classes. Rules come grouped by
  // premise, premises in first-occurrence order and each premise's
  // classes in ClassId order. `stats`, when non-null, is filled.
  std::vector<ClassificationRule> Rules(double th, double min_confidence,
                                        LearnStats* stats = nullptr) const;

 private:
  // Dense id of a distinct (property, segment) premise, in first-occurrence
  // order.
  using PremiseId = std::uint32_t;

  const text::Segmenter* segmenter_;
  util::StringInterner segments_;
  std::vector<std::string_view> segment_scratch_;

  util::IdHashIndex premise_index_;  // PremiseId by packed (p, a)
  std::vector<std::uint64_t> premise_keys_;  // PackSymbolPair(p, a)
  std::vector<std::uint32_t> premise_examples_;
  std::vector<std::uint32_t> premise_occurrences_;
  // 1 + the last example that recorded the premise: dedups a premise
  // within one example without a sort.
  std::vector<std::uint32_t> premise_stamp_;
  std::vector<std::uint32_t> class_examples_;  // by ClassId
  std::size_t segment_occurrences_ = 0;

  // The examples as CSR rows: example i's distinct premises are
  // example_premises_[premise_offsets_[i], premise_offsets_[i + 1]), the
  // open example's the tail past premise_offsets_.back(); its classes
  // likewise through class_offsets_.
  std::vector<PremiseId> example_premises_;
  std::vector<std::size_t> premise_offsets_{0};
  std::vector<ontology::ClassId> example_classes_;
  std::vector<std::size_t> class_offsets_{0};
};

}  // namespace rulelink::core

#endif  // RULELINK_CORE_CONTINGENCY_H_
