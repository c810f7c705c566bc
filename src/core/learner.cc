#include "core/learner.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "core/contingency.h"

namespace rulelink::core {

RuleLearner::RuleLearner(LearnerOptions options)
    : options_(std::move(options)) {}

util::Result<RuleSet> RuleLearner::Learn(const TrainingSet& ts,
                                         LearnStats* stats,
                                         obs::MetricsRegistry* metrics) const {
  const obs::MetricsRegistry::StageScope learn_stage(metrics, "learn");
  if (options_.segmenter == nullptr) {
    return util::InvalidArgumentError("LearnerOptions.segmenter is null");
  }
  if (!(options_.support_threshold > 0.0) ||
      options_.support_threshold >= 1.0) {
    return util::InvalidArgumentError(
        "support threshold must be in (0, 1)");
  }
  if (ts.size() == 0) {
    return util::InvalidArgumentError("empty training set");
  }

  // Property selection P: empty means all.
  std::unordered_set<PropertyId> selected_properties;
  for (const std::string& name : options_.properties) {
    const PropertyId id = ts.properties().Find(name);
    if (id != kInvalidPropertyId) selected_properties.insert(id);
  }
  if (!options_.properties.empty() && selected_properties.empty()) {
    return util::InvalidArgumentError(
        "none of the selected properties occur in the training set");
  }
  const auto property_selected = [&](PropertyId p) {
    return options_.properties.empty() || selected_properties.count(p) > 0;
  };

  ContingencyCounts counts(options_.segmenter);
  obs::Histogram segments_per_example;
  {
    const obs::MetricsRegistry::StageScope stage(metrics, "learn/count");
    for (const TrainingExample& example : ts.examples()) {
      const std::size_t occurrences_before = counts.segment_occurrences();
      for (const auto& [property, value] : example.facts) {
        if (property_selected(property)) counts.AddValue(property, value);
      }
      counts.EndExample(example.classes);
      if (metrics != nullptr) {
        segments_per_example.Observe(counts.segment_occurrences() -
                                     occurrences_before);
      }
    }
  }

  LearnStats learn_stats;
  std::vector<ClassificationRule> rules;
  {
    const obs::MetricsRegistry::StageScope stage(metrics, "learn/emit_rules");
    rules = counts.Rules(options_.support_threshold, options_.min_confidence,
                         &learn_stats);
  }

  if (metrics != nullptr) {
    metrics->AddCounter("learn/examples", learn_stats.num_examples);
    metrics->AddCounter("learn/distinct_segments",
                        learn_stats.distinct_segments);
    metrics->AddCounter("learn/segment_occurrences",
                        learn_stats.segment_occurrences);
    metrics->AddCounter("learn/selected_segment_occurrences",
                        learn_stats.selected_segment_occurrences);
    metrics->AddCounter("learn/frequent_premises",
                        learn_stats.frequent_premises);
    metrics->AddCounter("learn/frequent_classes",
                        learn_stats.frequent_classes);
    metrics->AddCounter("learn/rules_emitted", learn_stats.num_rules);
    metrics->AddCounter("learn/classes_with_rules",
                        learn_stats.classes_with_rules);
    metrics->MergeHistogram("learn/segments_per_example",
                            segments_per_example);
  }
  if (stats != nullptr) *stats = learn_stats;

  return RuleSet(std::move(rules), ts.properties(), counts.segments());
}

}  // namespace rulelink::core
