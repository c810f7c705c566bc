// The paper's approach exposed through the CandidateGenerator interface:
// classify each external item with the learnt rules, then propose only the
// local items whose class is subsumed by a predicted class. This is what
// the blocking-comparison bench pits against the classic baselines.
#ifndef RULELINK_BLOCKING_RULE_BLOCKER_H_
#define RULELINK_BLOCKING_RULE_BLOCKER_H_

#include <vector>

#include "blocking/blocker.h"
#include "core/classifier.h"
#include "ontology/ontology.h"

namespace rulelink::blocking {

class RuleBlocker : public CandidateGenerator {
 public:
  // `local_classes[l]` is the (most specific) class of local item l, or
  // ontology::kInvalidClassId for untyped items. Pointers are borrowed.
  // Items no rule fires on produce no candidates (UnclassifiedPolicy::kSkip
  // semantics); pass `compare_all_when_unclassified` to fall back to the
  // whole local source instead.
  RuleBlocker(const core::RuleClassifier* classifier,
              const ontology::Ontology* onto,
              const std::vector<ontology::ClassId>* local_classes,
              double min_confidence = 0.0,
              bool compare_all_when_unclassified = false);

  // FlattenRuns over BuildIndex.
  std::vector<CandidatePair> Generate(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const override;
  // Keeps one ascending row per class, holding the locals of the class's
  // subtree, and classifies each probed item on demand: a run is the row
  // of each predicted class no other predicted class subsumes, merged
  // when there are several, so no pair list is ever materialized and no
  // run is sorted. The key scratch is unused; a probe classifies through
  // RuleClassifier::ClassifyInto into per-thread buffers, so it allocates
  // nothing once they have grown. The returned index borrows this blocker's
  // classifier/ontology, which must outlive it. There is no
  // ExtendItemIndex yet, so a served catalog under this blocker cannot
  // take appended items.
  std::unique_ptr<ItemCandidateIndex> BuildItemIndex(
      const std::vector<core::Item>& local) const override;
  std::string name() const override;

 private:
  const core::RuleClassifier* classifier_;
  const ontology::Ontology* onto_;
  const std::vector<ontology::ClassId>* local_classes_;
  double min_confidence_;
  bool compare_all_when_unclassified_;
};

}  // namespace rulelink::blocking

#endif  // RULELINK_BLOCKING_RULE_BLOCKER_H_
