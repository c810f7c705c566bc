#include "core/conjunctive.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/learner.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rulelink::core {

void ConjunctiveRule::ComputeMeasures() {
  support = Support(counts);
  confidence = Confidence(counts);
  lift = Lift(counts);
}

std::string ConjunctiveRuleToString(const ConjunctiveRule& rule,
                                    const PropertyCatalog& properties,
                                    const ontology::Ontology& onto) {
  std::string out;
  for (std::size_t i = 0; i < rule.premises.size(); ++i) {
    if (i) out += " ∧ ";
    const auto& premise = rule.premises[i];
    out += properties.name(premise.property) + "(X,Y" +
           std::to_string(i) + ") ∧ subsegment(Y" + std::to_string(i) +
           ",\"" + premise.segment + "\")";
  }
  const std::string cls = onto.label(rule.cls).empty()
                              ? onto.iri(rule.cls)
                              : onto.label(rule.cls);
  return out + " ⇒ " + cls + "(X)";
}

ConjunctiveRuleSet::ConjunctiveRuleSet(std::vector<ConjunctiveRule> rules,
                                       PropertyCatalog properties)
    : rules_(std::move(rules)), properties_(std::move(properties)) {
  std::sort(rules_.begin(), rules_.end(),
            [](const ConjunctiveRule& a, const ConjunctiveRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.lift != b.lift) return a.lift > b.lift;
              if (a.premises.size() != b.premises.size()) {
                return a.premises.size() > b.premises.size();
              }
              if (a.premises != b.premises) return a.premises < b.premises;
              return a.cls < b.cls;
            });
}

std::vector<ConjunctiveRuleSet::Prediction> ConjunctiveRuleSet::Classify(
    const Item& item, const text::Segmenter& segmenter,
    double min_confidence) const {
  std::set<ConjunctivePremise> held;
  for (const PropertyValue& pv : item.facts) {
    const PropertyId property = properties_.Find(pv.property);
    if (property == kInvalidPropertyId) continue;
    for (std::string& seg : segmenter.Segment(pv.value)) {
      held.insert(ConjunctivePremise{property, std::move(seg)});
    }
  }

  std::unordered_map<ontology::ClassId, Prediction> best;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const ConjunctiveRule& rule = rules_[r];
    if (rule.confidence < min_confidence) continue;
    const bool fires = std::all_of(
        rule.premises.begin(), rule.premises.end(),
        [&](const ConjunctivePremise& p) { return held.count(p) > 0; });
    if (!fires) continue;
    // rules_ is sorted best-first, so the first hit per class wins.
    best.try_emplace(rule.cls,
                     Prediction{rule.cls, rule.confidence, rule.lift, r});
  }

  std::vector<Prediction> out;
  out.reserve(best.size());
  for (const auto& [cls, prediction] : best) out.push_back(prediction);
  std::sort(out.begin(), out.end(),
            [](const Prediction& a, const Prediction& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.lift != b.lift) return a.lift > b.lift;
              return a.cls < b.cls;
            });
  return out;
}

std::size_t ConjunctiveRuleSet::CountWithPremises(std::size_t n) const {
  std::size_t count = 0;
  for (const auto& rule : rules_) count += rule.premises.size() == n;
  return count;
}

util::Result<ConjunctiveRuleSet> LearnConjunctiveRules(
    const TrainingSet& ts, const ConjunctiveLearnerOptions& options) {
  if (options.segmenter == nullptr) {
    return util::InvalidArgumentError("segmenter is null");
  }
  if (!(options.support_threshold > 0.0) ||
      options.support_threshold >= 1.0) {
    return util::InvalidArgumentError("support threshold must be in (0, 1)");
  }
  if (ts.size() == 0) {
    return util::InvalidArgumentError("empty training set");
  }
  const auto is_frequent = [&](std::size_t count) {
    return IsFrequentCount(count, options.support_threshold, ts.size());
  };
  std::unordered_set<PropertyId> selected;
  for (const std::string& name : options.properties) {
    const PropertyId id = ts.properties().Find(name);
    if (id != kInvalidPropertyId) selected.insert(id);
  }
  const auto property_selected = [&](PropertyId p) {
    return options.properties.empty() || selected.count(p) > 0;
  };

  // ---- Pass 1: per-example premise sets; single-premise counts. ----
  std::vector<std::vector<ConjunctivePremise>> example_premises(ts.size());
  std::map<ConjunctivePremise, std::size_t> premise_count;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    std::set<ConjunctivePremise> premises;
    for (const auto& [property, value] : ts.examples()[i].facts) {
      if (!property_selected(property)) continue;
      for (std::string& seg : options.segmenter->Segment(value)) {
        premises.insert(ConjunctivePremise{property, std::move(seg)});
      }
    }
    example_premises[i].assign(premises.begin(), premises.end());
    for (const ConjunctivePremise& p : example_premises[i]) {
      ++premise_count[p];
    }
  }

  // Class counts.
  std::unordered_map<ontology::ClassId, std::size_t> class_count;
  for (const TrainingExample& example : ts.examples()) {
    for (ontology::ClassId c : example.classes) ++class_count[c];
  }

  // ---- Pass 2: joint counts for single frequent premises and frequent
  // premise pairs. ----
  std::map<ConjunctivePremise,
           std::unordered_map<ontology::ClassId, std::size_t>>
      single_joint;
  using Pair = std::pair<ConjunctivePremise, ConjunctivePremise>;
  std::map<Pair, std::size_t> pair_count;
  std::map<Pair, std::unordered_map<ontology::ClassId, std::size_t>>
      pair_joint;

  for (std::size_t i = 0; i < ts.size(); ++i) {
    // Frequent premises of this example, capped for pairing.
    std::vector<ConjunctivePremise> frequent;
    for (const ConjunctivePremise& p : example_premises[i]) {
      if (is_frequent(premise_count.at(p))) frequent.push_back(p);
    }
    const auto& classes = ts.examples()[i].classes;
    for (const ConjunctivePremise& p : frequent) {
      auto& per_class = single_joint[p];
      for (ontology::ClassId c : classes) ++per_class[c];
    }
    if (frequent.size() > options.max_premises_per_example) {
      frequent.resize(options.max_premises_per_example);
    }
    for (std::size_t a = 0; a < frequent.size(); ++a) {
      for (std::size_t b = a + 1; b < frequent.size(); ++b) {
        const Pair key{frequent[a], frequent[b]};
        ++pair_count[key];
        auto& per_class = pair_joint[key];
        for (ontology::ClassId c : classes) ++per_class[c];
      }
    }
  }

  // ---- Emit rules. ----
  std::vector<ConjunctiveRule> rules;
  // Best single-premise confidence per (premise, class), for the gain test.
  std::map<std::pair<ConjunctivePremise, ontology::ClassId>, double>
      single_confidence;
  for (const auto& [premise, per_class] : single_joint) {
    for (const auto& [cls, joint] : per_class) {
      if (!is_frequent(joint)) continue;
      auto class_it = class_count.find(cls);
      if (class_it == class_count.end() || !is_frequent(class_it->second)) {
        continue;
      }
      ConjunctiveRule rule;
      rule.premises = {premise};
      rule.cls = cls;
      rule.counts.premise_count = premise_count.at(premise);
      rule.counts.class_count = class_it->second;
      rule.counts.joint_count = joint;
      rule.counts.total = ts.size();
      rule.ComputeMeasures();
      single_confidence[{premise, cls}] = rule.confidence;
      rules.push_back(std::move(rule));
    }
  }
  for (const auto& [pair, per_class] : pair_joint) {
    if (!is_frequent(pair_count.at(pair))) continue;
    for (const auto& [cls, joint] : per_class) {
      if (!is_frequent(joint)) continue;
      auto class_it = class_count.find(cls);
      if (class_it == class_count.end() || !is_frequent(class_it->second)) {
        continue;
      }
      ConjunctiveRule rule;
      rule.premises = {pair.first, pair.second};
      rule.cls = cls;
      rule.counts.premise_count = pair_count.at(pair);
      rule.counts.class_count = class_it->second;
      rule.counts.joint_count = joint;
      rule.counts.total = ts.size();
      rule.ComputeMeasures();
      // Occam gate: must beat both parents' confidence by the margin.
      double parent = 0.0;
      for (const ConjunctivePremise& p : rule.premises) {
        auto it = single_confidence.find({p, cls});
        if (it != single_confidence.end()) {
          parent = std::max(parent, it->second);
        }
      }
      if (rule.confidence < parent + options.min_confidence_gain) continue;
      rules.push_back(std::move(rule));
    }
  }
  return ConjunctiveRuleSet(std::move(rules), ts.properties());
}

}  // namespace rulelink::core
