#include "core/generalizer.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/contingency.h"

namespace rulelink::core {
namespace {

// Ancestor-or-self classes of an example's most-specific classes, capped at
// `max_levels_up` levels above any asserted class.
std::vector<ontology::ClassId> WidenedClasses(
    const ontology::Ontology& onto,
    const std::vector<ontology::ClassId>& asserted,
    std::size_t max_levels_up) {
  std::unordered_set<ontology::ClassId> out;
  for (ontology::ClassId c : asserted) {
    out.insert(c);
    const std::size_t base_depth = onto.Depth(c);
    for (ontology::ClassId a : onto.Ancestors(c)) {
      const std::size_t levels = base_depth - onto.Depth(a);
      if (levels <= max_levels_up) out.insert(a);
    }
  }
  return {out.begin(), out.end()};
}

}  // namespace

util::Result<RuleSet> LearnGeneralizedRules(
    const TrainingSet& ts, const GeneralizerOptions& options) {
  if (options.segmenter == nullptr) {
    return util::InvalidArgumentError("GeneralizerOptions.segmenter is null");
  }
  if (!(options.support_threshold > 0.0) ||
      options.support_threshold >= 1.0) {
    return util::InvalidArgumentError("support threshold must be in (0, 1)");
  }
  if (ts.size() == 0) {
    return util::InvalidArgumentError("empty training set");
  }
  const ontology::Ontology& onto = ts.ontology();

  // Every fact counts (no property selection), under widened classes.
  ContingencyCounts counts(options.segmenter);
  for (const TrainingExample& example : ts.examples()) {
    for (const auto& [property, value] : example.facts) {
      counts.AddValue(property, value);
    }
    counts.EndExample(
        WidenedClasses(onto, example.classes, options.max_levels_up));
  }
  std::vector<ClassificationRule> drafts =
      counts.Rules(options.support_threshold, options.min_confidence);
  std::erase_if(drafts, [&](const ClassificationRule& rule) {
    return rule.lift <= options.min_lift;
  });

  // Per premise (Rules() keeps a premise's conclusions together), only the
  // most specific qualifying conclusions: a leaf that already reaches the
  // confidence bar suppresses its (also qualifying) ancestors, which would
  // only enlarge the subspace.
  std::vector<ClassificationRule> rules;
  std::vector<ontology::ClassId> qualifying;
  for (auto first = drafts.begin(); first != drafts.end();) {
    const auto last = std::find_if(first, drafts.end(), [&](const auto& r) {
      return r.property != first->property || r.segment != first->segment;
    });
    qualifying.clear();
    for (auto it = first; it != last; ++it) qualifying.push_back(it->cls);
    for (const ontology::ClassId cls : onto.MostSpecific(qualifying)) {
      rules.push_back(*std::find_if(
          first, last, [&](const auto& r) { return r.cls == cls; }));
    }
    first = last;
  }

  return RuleSet(std::move(rules), ts.properties(), counts.segments());
}

}  // namespace rulelink::core
