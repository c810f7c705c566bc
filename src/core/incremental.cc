#include "core/incremental.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/logging.h"

namespace rulelink::core {

IncrementalRuleLearner::IncrementalRuleLearner(
    const ontology::Ontology* onto, const text::Segmenter* segmenter,
    std::vector<std::string> properties)
    : onto_(onto),
      segmenter_(segmenter),
      selected_properties_(std::move(properties)) {
  RL_CHECK(onto_ != nullptr);
  RL_CHECK(segmenter_ != nullptr);
  // Intern the expert's P once: AddExample then resolves each fact's
  // property with one read-only Find instead of a linear scan over the
  // selected names per fact.
  for (const std::string& name : selected_properties_) {
    properties_.Intern(name);
  }
}

void IncrementalRuleLearner::AddExample(
    const Item& external, const std::vector<ontology::ClassId>& classes) {
  ++num_examples_;

  // One segmentation pass: every occurrence is interned and recorded as a
  // packed (property, segment) key; occurrences count every repetition,
  // the sorted-unique pass below gives the distinct-per-example premises.
  std::vector<std::uint64_t> keys;
  std::vector<SegmentId> seg_scratch;
  for (const PropertyValue& pv : external.facts) {
    PropertyId property;
    if (selected_properties_.empty()) {
      property = properties_.Intern(pv.property);
    } else {
      // P was interned at construction, so membership is the same hash
      // lookup that resolves the id.
      property = properties_.Find(pv.property);
      if (property == kInvalidPropertyId) continue;
    }
    seg_scratch.clear();
    segmenter_->SegmentInto(pv.value, &segments_, &seg_scratch);
    for (const SegmentId seg : seg_scratch) {
      keys.push_back(util::PackSymbolPair(property, seg));
    }
  }
  total_occurrences_ += keys.size();
  for (const std::uint64_t key : keys) ++premises_[key].occurrences;

  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  const std::vector<ontology::ClassId> most_specific =
      onto_->MostSpecific(classes);
  for (ontology::ClassId c : most_specific) ++class_counts_[c];

  for (const std::uint64_t key : keys) {
    PremiseStat& stat = premises_[key];
    ++stat.example_count;
    for (ontology::ClassId c : most_specific) ++stat.joint[c];
  }
}

util::Result<RuleSet> IncrementalRuleLearner::BuildRules(
    double support_threshold, double min_confidence,
    LearnStats* stats) const {
  if (!(support_threshold > 0.0) || support_threshold >= 1.0) {
    return util::InvalidArgumentError("support threshold must be in (0, 1)");
  }
  if (num_examples_ == 0) {
    return util::InvalidArgumentError("no examples ingested");
  }
  // The shared strict-'>' predicate (IsFrequentCount) keeps this learner
  // bit-identical to the batch RuleLearner at the support boundary.
  const auto is_frequent = [&](std::size_t count) {
    return IsFrequentCount(count, support_threshold, num_examples_);
  };

  std::unordered_map<ontology::ClassId, std::size_t> frequent_classes;
  for (const auto& [cls, count] : class_counts_) {
    if (is_frequent(count)) frequent_classes.emplace(cls, count);
  }

  std::vector<ClassificationRule> rules;
  std::unordered_set<ontology::ClassId> conclusion_classes;
  std::size_t frequent_premises = 0;
  std::size_t selected_occurrences = 0;
  for (const auto& [key, stat] : premises_) {
    if (!is_frequent(stat.example_count)) continue;
    ++frequent_premises;
    selected_occurrences += stat.occurrences;
    for (const auto& [cls, joint] : stat.joint) {
      if (!is_frequent(joint)) continue;
      auto freq_it = frequent_classes.find(cls);
      if (freq_it == frequent_classes.end()) continue;
      ClassificationRule rule;
      rule.property = util::PackedHi(key);
      rule.segment = util::PackedLo(key);
      rule.cls = cls;
      rule.counts.premise_count = stat.example_count;
      rule.counts.class_count = freq_it->second;
      rule.counts.joint_count = joint;
      rule.counts.total = num_examples_;
      rule.ComputeMeasures();
      if (rule.confidence < min_confidence) continue;
      conclusion_classes.insert(cls);
      rules.push_back(std::move(rule));
    }
  }

  if (stats != nullptr) {
    stats->num_examples = num_examples_;
    stats->distinct_segments = segments_.size();
    stats->segment_occurrences = total_occurrences_;
    stats->selected_segment_occurrences = selected_occurrences;
    stats->frequent_premises = frequent_premises;
    stats->frequent_classes = frequent_classes.size();
    stats->num_rules = rules.size();
    stats->classes_with_rules = conclusion_classes.size();
    stats->interner_symbols = segments_.size();
    stats->interner_bytes = segments_.memory_bytes();
  }
  // RuleSet re-interns compactly, so the returned set does not pin this
  // learner's (growing) symbol table.
  return RuleSet(std::move(rules), properties_, segments_);
}

}  // namespace rulelink::core
