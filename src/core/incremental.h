// Incremental rule learning: the expert validates links in batches (§3's
// workflow is inherently incremental — every new provider file adds
// reconciliations), so the learner should not re-scan all of TS each time.
// IncrementalRuleLearner feeds each example to the one counter
// (ContingencyCounts) as it arrives, segmenting every value once. A
// rebuild walks the kept premise ids of every example, O(distinct
// occurrences), not count tables, and yields exactly what the batch
// RuleLearner would produce on the same examples.
#ifndef RULELINK_CORE_INCREMENTAL_H_
#define RULELINK_CORE_INCREMENTAL_H_

#include <string>
#include <vector>

#include "core/contingency.h"
#include "core/item.h"
#include "core/learner.h"
#include "core/rule.h"
#include "ontology/ontology.h"
#include "text/segmenter.h"

namespace rulelink::core {

class IncrementalRuleLearner {
 public:
  // `onto` and `segmenter` are borrowed and must outlive the learner.
  // `properties` is the expert's P; empty = all properties.
  IncrementalRuleLearner(const ontology::Ontology* onto,
                         const text::Segmenter* segmenter,
                         std::vector<std::string> properties = {});

  // Ingests one validated link: the external item's facts plus the local
  // item's classes (reduced to most-specific internally). O(#segments).
  void AddExample(const Item& external,
                  const std::vector<ontology::ClassId>& classes);

  // Number of examples ingested so far.
  std::size_t size() const { return counts_.num_examples(); }

  // Materializes the rules at the current counts. Equivalent to running
  // the batch RuleLearner with the same options over all ingested
  // examples. Fails if no examples were ingested or the threshold is
  // outside (0, 1).
  util::Result<RuleSet> BuildRules(double support_threshold,
                                   double min_confidence = 0.0,
                                   LearnStats* stats = nullptr) const;

 private:
  const ontology::Ontology* onto_;
  bool select_properties_;  // false: every property is in P
  PropertyCatalog properties_;
  ContingencyCounts counts_;
};

}  // namespace rulelink::core

#endif  // RULELINK_CORE_INCREMENTAL_H_
