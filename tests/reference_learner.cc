#include "reference_learner.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/interner.h"
#include "util/thread_pool.h"

namespace rulelink::core {
namespace {

using PremiseKey = std::pair<PropertyId, std::string>;

struct PremiseStat {
  std::size_t example_count = 0;  // distinct examples whose value contains a
  std::size_t occurrences = 0;    // raw segment occurrences
};

// Per-worker accumulators of the counting passes, merged additively in
// chunk order (see learner.cc for the deterministic-parallelism contract).
struct PremiseShard {
  std::unordered_map<PremiseKey, PremiseStat, util::PairHash> premise_stats;
  std::unordered_set<std::string> distinct_segments;
  std::size_t total_occurrences = 0;
};

using ClassCountMap = std::unordered_map<ontology::ClassId, std::size_t>;
using JointCountMap =
    std::unordered_map<PremiseKey, ClassCountMap, util::PairHash>;

}  // namespace

util::Result<RuleSet> ReferenceLearn(const LearnerOptions& options,
                                     const TrainingSet& ts,
                                     LearnStats* stats) {
  if (options.segmenter == nullptr) {
    return util::InvalidArgumentError("LearnerOptions.segmenter is null");
  }
  if (!(options.support_threshold > 0.0) ||
      options.support_threshold >= 1.0) {
    return util::InvalidArgumentError(
        "support threshold must be in (0, 1)");
  }
  if (ts.size() == 0) {
    return util::InvalidArgumentError("empty training set");
  }

  const auto is_frequent = [&](std::size_t count) {
    return IsFrequentCount(count, options.support_threshold, ts.size());
  };

  std::unordered_set<PropertyId> selected_properties;
  for (const std::string& name : options.properties) {
    const PropertyId id = ts.properties().Find(name);
    if (id != kInvalidPropertyId) selected_properties.insert(id);
  }
  if (!options.properties.empty() && selected_properties.empty()) {
    return util::InvalidArgumentError(
        "none of the selected properties occur in the training set");
  }
  const auto property_selected = [&](PropertyId p) {
    return options.properties.empty() || selected_properties.count(p) > 0;
  };

  const auto& examples = ts.examples();
  const std::size_t num_examples = examples.size();
  // One map shard per morsel slot, merged in slot order after each pass.
  // Coarse explicit morsels: each shard carries whole string-keyed count
  // maps, so the merge cost scales with the slot count — same reasoning
  // as the interned learner's kExamplesPerMorsel.
  constexpr std::size_t kExamplesPerMorsel = 512;
  const std::size_t num_shards = util::ParallelSlots(
      options.num_threads, num_examples, kExamplesPerMorsel);

  const auto collect_example_premises =
      [&](const TrainingExample& example,
          std::unordered_set<PremiseKey, util::PairHash>* out) {
        out->clear();
        for (const auto& [property, value] : example.facts) {
          if (!property_selected(property)) continue;
          for (std::string& seg : options.segmenter->Segment(value)) {
            out->emplace(property, std::move(seg));
          }
        }
      };

  // ---- Pass 1: premise frequencies and segment statistics. ----
  std::vector<PremiseShard> shards(num_shards);
  util::ParallelFor(
      options.num_threads, num_examples,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        PremiseShard& shard = shards[chunk];
        std::unordered_set<PremiseKey, util::PairHash> example_premises;
        for (std::size_t i = begin; i < end; ++i) {
          example_premises.clear();
          for (const auto& [property, value] : examples[i].facts) {
            if (!property_selected(property)) continue;
            for (std::string& seg : options.segmenter->Segment(value)) {
              ++shard.total_occurrences;
              shard.distinct_segments.insert(seg);
              example_premises.emplace(property, std::move(seg));
            }
          }
          for (const PremiseKey& key : example_premises) {
            ++shard.premise_stats[key].example_count;
          }
        }
      },
      kExamplesPerMorsel);

  std::unordered_map<PremiseKey, PremiseStat, util::PairHash> premise_stats =
      std::move(shards[0].premise_stats);
  std::unordered_set<std::string> distinct_segment_strings =
      std::move(shards[0].distinct_segments);
  std::size_t total_occurrences = shards[0].total_occurrences;
  for (std::size_t s = 1; s < num_shards; ++s) {
    for (auto& [key, stat] : shards[s].premise_stats) {
      PremiseStat& merged = premise_stats[key];
      merged.example_count += stat.example_count;
      merged.occurrences += stat.occurrences;
    }
    distinct_segment_strings.merge(shards[s].distinct_segments);
    total_occurrences += shards[s].total_occurrences;
  }
  shards.clear();

  // Raw occurrence counts per premise (for "selected occurrences").
  std::vector<std::unordered_map<PremiseKey, std::size_t, util::PairHash>>
      occurrence_shards(num_shards);
  util::ParallelFor(
      options.num_threads, num_examples,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& occurrences = occurrence_shards[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          for (const auto& [property, value] : examples[i].facts) {
            if (!property_selected(property)) continue;
            for (std::string& seg : options.segmenter->Segment(value)) {
              ++occurrences[PremiseKey(property, std::move(seg))];
            }
          }
        }
      },
      kExamplesPerMorsel);
  for (auto& occurrences : occurrence_shards) {
    for (const auto& [key, count] : occurrences) {
      auto it = premise_stats.find(key);
      if (it != premise_stats.end()) it->second.occurrences += count;
    }
  }
  occurrence_shards.clear();

  std::unordered_map<PremiseKey, std::size_t, util::PairHash>
      frequent_premise_count;
  std::size_t selected_occurrences = 0;
  for (const auto& [key, stat] : premise_stats) {
    if (is_frequent(stat.example_count)) {
      frequent_premise_count.emplace(key, stat.example_count);
      selected_occurrences += stat.occurrences;
    }
  }

  // ---- Class frequencies. ----
  std::vector<ClassCountMap> class_shards(num_shards);
  util::ParallelFor(
      options.num_threads, num_examples,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ClassCountMap& counts = class_shards[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          for (ontology::ClassId c : examples[i].classes) ++counts[c];
        }
      },
      kExamplesPerMorsel);
  ClassCountMap class_count = std::move(class_shards[0]);
  for (std::size_t s = 1; s < num_shards; ++s) {
    for (const auto& [cls, count] : class_shards[s]) {
      class_count[cls] += count;
    }
  }
  class_shards.clear();

  ClassCountMap frequent_class_count;
  for (const auto& [cls, count] : class_count) {
    if (is_frequent(count)) frequent_class_count.emplace(cls, count);
  }

  // ---- Pass 2: joint counts for frequent premises x frequent classes. ----
  std::vector<JointCountMap> joint_shards(num_shards);
  util::ParallelFor(
      options.num_threads, num_examples,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        JointCountMap& joint = joint_shards[chunk];
        std::unordered_set<PremiseKey, util::PairHash> example_premises;
        for (std::size_t i = begin; i < end; ++i) {
          collect_example_premises(examples[i], &example_premises);
          for (const PremiseKey& key : example_premises) {
            if (frequent_premise_count.find(key) ==
                frequent_premise_count.end()) {
              continue;
            }
            auto& per_class = joint[key];
            for (ontology::ClassId c : examples[i].classes) {
              if (frequent_class_count.find(c) !=
                  frequent_class_count.end()) {
                ++per_class[c];
              }
            }
          }
        }
      },
      kExamplesPerMorsel);
  JointCountMap joint_count = std::move(joint_shards[0]);
  for (std::size_t s = 1; s < num_shards; ++s) {
    for (auto& [key, per_class] : joint_shards[s]) {
      ClassCountMap& merged = joint_count[key];
      for (const auto& [cls, count] : per_class) merged[cls] += count;
    }
  }
  joint_shards.clear();

  // ---- Rule construction. The rules' segment strings go through a local
  // interner (the only interned-model concession this port makes, since
  // ClassificationRule now carries SegmentId).
  util::StringInterner rule_segments;
  std::vector<ClassificationRule> rules;
  std::unordered_set<ontology::ClassId> conclusion_classes;
  for (const auto& [key, per_class] : joint_count) {
    for (const auto& [cls, joint] : per_class) {
      if (!is_frequent(joint)) continue;
      ClassificationRule rule;
      rule.property = key.first;
      rule.segment = rule_segments.Intern(key.second);
      rule.cls = cls;
      rule.counts.premise_count = frequent_premise_count.at(key);
      rule.counts.class_count = frequent_class_count.at(cls);
      rule.counts.joint_count = joint;
      rule.counts.total = ts.size();
      rule.ComputeMeasures();
      if (rule.confidence < options.min_confidence) continue;
      conclusion_classes.insert(cls);
      rules.push_back(std::move(rule));
    }
  }

  if (stats != nullptr) {
    stats->num_examples = ts.size();
    stats->distinct_segments = distinct_segment_strings.size();
    stats->segment_occurrences = total_occurrences;
    stats->selected_segment_occurrences = selected_occurrences;
    stats->frequent_premises = frequent_premise_count.size();
    stats->frequent_classes = frequent_class_count.size();
    stats->num_rules = rules.size();
    stats->classes_with_rules = conclusion_classes.size();
    stats->interner_symbols = 0;
    stats->interner_bytes = 0;
  }

  return RuleSet(std::move(rules), ts.properties(), rule_segments);
}

}  // namespace rulelink::core
