#include "core/incremental.h"

#include "util/logging.h"

namespace rulelink::core {

IncrementalRuleLearner::IncrementalRuleLearner(
    const ontology::Ontology* onto, const text::Segmenter* segmenter,
    std::vector<std::string> properties)
    : onto_(onto),
      select_properties_(!properties.empty()),
      counts_(segmenter) {
  RL_CHECK(onto_ != nullptr);
  // Intern the expert's P once: AddExample then resolves each fact's
  // property with one read-only Find instead of a linear scan over the
  // selected names per fact.
  for (const std::string& name : properties) properties_.Intern(name);
}

void IncrementalRuleLearner::AddExample(
    const Item& external, const std::vector<ontology::ClassId>& classes) {
  for (const PropertyValue& pv : external.facts) {
    PropertyId property;
    if (!select_properties_) {
      property = properties_.Intern(pv.property);
    } else {
      // P was interned at construction, so membership is the same hash
      // lookup that resolves the id.
      property = properties_.Find(pv.property);
      if (property == kInvalidPropertyId) continue;
    }
    counts_.AddValue(property, pv.value);
  }
  counts_.EndExample(onto_->MostSpecific(classes));
}

util::Result<RuleSet> IncrementalRuleLearner::BuildRules(
    double support_threshold, double min_confidence,
    LearnStats* stats) const {
  if (!(support_threshold > 0.0) || support_threshold >= 1.0) {
    return util::InvalidArgumentError("support threshold must be in (0, 1)");
  }
  if (counts_.num_examples() == 0) {
    return util::InvalidArgumentError("no examples ingested");
  }
  // RuleSet re-interns compactly, so the returned set does not pin the
  // counter's (growing) symbol table.
  return RuleSet(counts_.Rules(support_threshold, min_confidence, stats),
                 properties_, counts_.segments());
}

}  // namespace rulelink::core
