#include "core/learner.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/interner.h"
#include "util/thread_pool.h"

namespace rulelink::core {
namespace {

// Dense id of a distinct (property, segment) premise, local to one Learn()
// call. The counting passes index flat vectors with it instead of hashing
// string keys.
using PremiseId = std::uint32_t;

// Hash for the packed (property, segment) composite during premise-id
// assignment; Mix64 because both halves are dense low-entropy ids.
struct PackedHash {
  std::size_t operator()(std::uint64_t key) const {
    return static_cast<std::size_t>(util::Mix64(key));
  }
};

// The one-shot segmentation pass: every fact value is segmented exactly
// once (the string pipeline segmented each value three times), segments
// are interned to dense SegmentIds, and (property, segment) pairs to dense
// PremiseIds. Everything the counting passes need afterwards is the flat
// occurrence array below — no strings survive past this point.
struct SegmentedCorpus {
  util::StringInterner segments;       // all distinct segments (stat 7842)
  std::vector<std::uint64_t> premise_keys;  // PremiseId -> packed (p, a)
  std::vector<PremiseId> occurrences;  // concatenated per-example streams
  std::vector<std::size_t> offsets;    // example i: [offsets[i], offsets[i+1])

  std::size_t num_premises() const { return premise_keys.size(); }
};

}  // namespace

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

  // Strict '>' per the paper, via the shared predicate so every learner
  // agrees bit-for-bit at the boundary (see IsFrequentCount).
  const auto is_frequent = [&](std::size_t count) {
    return IsFrequentCount(count, options_.support_threshold, ts.size());
  };

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

  const auto& examples = ts.examples();
  const std::size_t num_examples = examples.size();

  // ---- Phase 0 (serial): segment + intern every selected fact value
  // once. Serial interning keeps SegmentId/PremiseId assignment a pure
  // function of the corpus, so every later pass — at any thread count —
  // sees identical ids.
  SegmentedCorpus corpus;
  std::unordered_map<std::uint64_t, PremiseId, PackedHash> premise_index;
  obs::Histogram segments_per_example;
  {
    const obs::MetricsRegistry::StageScope stage(metrics, "learn/segment");
    std::vector<std::string_view> seg_scratch;
    corpus.offsets.reserve(num_examples + 1);
    corpus.offsets.push_back(0);
    for (const TrainingExample& example : examples) {
      for (const auto& [property, value] : example.facts) {
        if (!property_selected(property)) continue;
        seg_scratch.clear();
        options_.segmenter->SegmentViews(value, &seg_scratch);
        for (std::string_view seg : seg_scratch) {
          const text::SegmentId seg_id = corpus.segments.Intern(seg);
          const std::uint64_t key = util::PackSymbolPair(property, seg_id);
          auto [it, inserted] = premise_index.try_emplace(
              key, static_cast<PremiseId>(corpus.premise_keys.size()));
          if (inserted) corpus.premise_keys.push_back(key);
          corpus.occurrences.push_back(it->second);
        }
      }
      if (metrics != nullptr) {
        segments_per_example.Observe(corpus.occurrences.size() -
                                     corpus.offsets.back());
      }
      corpus.offsets.push_back(corpus.occurrences.size());
    }
  }
  const std::size_t num_premises = corpus.num_premises();
  // One accumulator shard per morsel slot (slot-order merge below replays
  // the serial order). Coarse explicit morsels: every shard is an
  // O(num_premises) flat vector (and an O(premises x classes) grid in
  // pass 2), so the default ~16-slots-per-worker heuristic would make the
  // serial merge the dominant cost. Per-example work is uniform, so a few
  // hundred examples per morsel still balance well.
  constexpr std::size_t kExamplesPerMorsel = 512;
  const std::size_t num_shards = util::ParallelSlots(
      options_.num_threads, num_examples, kExamplesPerMorsel);

  // ---- Pass 1: per-premise example counts (distinct per example, as the
  // logical reading of the premise requires) and raw occurrence counts,
  // sharded over contiguous example ranges into flat per-shard vectors
  // that merge additively in any order.
  util::Stopwatch phase_timer;  // re-armed at every phase boundary below
  std::vector<std::vector<std::uint32_t>> example_count_shards(
      num_shards, std::vector<std::uint32_t>(num_premises, 0));
  std::vector<std::vector<std::uint32_t>> occurrence_shards(
      num_shards, std::vector<std::uint32_t>(num_premises, 0));
  util::ParallelFor(
      options_.num_threads, num_examples,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& example_count = example_count_shards[chunk];
        auto& occurrence_count = occurrence_shards[chunk];
        std::vector<PremiseId> distinct;  // reused per-example scratch
        for (std::size_t i = begin; i < end; ++i) {
          const auto first = corpus.occurrences.begin() +
                             static_cast<std::ptrdiff_t>(corpus.offsets[i]);
          const auto last = corpus.occurrences.begin() +
                            static_cast<std::ptrdiff_t>(corpus.offsets[i + 1]);
          for (auto it = first; it != last; ++it) ++occurrence_count[*it];
          distinct.assign(first, last);
          std::sort(distinct.begin(), distinct.end());
          distinct.erase(std::unique(distinct.begin(), distinct.end()),
                         distinct.end());
          for (PremiseId id : distinct) ++example_count[id];
        }
      },
      kExamplesPerMorsel);
  std::vector<std::uint32_t> premise_example_count =
      std::move(example_count_shards[0]);
  std::vector<std::uint32_t> premise_occurrences =
      std::move(occurrence_shards[0]);
  for (std::size_t s = 1; s < num_shards; ++s) {
    for (std::size_t p = 0; p < num_premises; ++p) {
      premise_example_count[p] += example_count_shards[s][p];
      premise_occurrences[p] += occurrence_shards[s][p];
    }
  }
  example_count_shards.clear();
  occurrence_shards.clear();

  // Frequent premises, remapped to a dense frequent-id space so the joint
  // pass can count into a flat (frequent premise) x (frequent class) grid.
  constexpr std::uint32_t kNotFrequent = 0xFFFFFFFFu;
  std::vector<std::uint32_t> frequent_id(num_premises, kNotFrequent);
  std::vector<PremiseId> frequent_premises;  // frequent id -> premise id
  std::size_t selected_occurrences = 0;
  for (std::size_t p = 0; p < num_premises; ++p) {
    if (is_frequent(premise_example_count[p])) {
      frequent_id[p] = static_cast<std::uint32_t>(frequent_premises.size());
      frequent_premises.push_back(static_cast<PremiseId>(p));
      selected_occurrences += premise_occurrences[p];
    }
  }
  if (metrics != nullptr) {
    metrics->RecordStage("learn/count_premises", phase_timer.ElapsedMillis());
    phase_timer.Restart();
  }

  // ---- Class frequencies (most-specific classes only, already reduced by
  // TrainingSet). ----
  using ClassCountMap = std::unordered_map<ontology::ClassId, std::size_t>;
  std::vector<ClassCountMap> class_shards(num_shards);
  util::ParallelFor(
      options_.num_threads, num_examples,
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

  // Frequent classes, dense-remapped (sorted by ClassId so the remap is
  // deterministic; the additive joint counts never depend on it anyway).
  std::vector<std::pair<ontology::ClassId, std::size_t>> frequent_classes;
  for (const auto& [cls, count] : class_count) {
    if (is_frequent(count)) frequent_classes.emplace_back(cls, count);
  }
  std::sort(frequent_classes.begin(), frequent_classes.end());
  std::unordered_map<ontology::ClassId, std::uint32_t> class_to_dense;
  class_to_dense.reserve(frequent_classes.size());
  for (std::size_t c = 0; c < frequent_classes.size(); ++c) {
    class_to_dense.emplace(frequent_classes[c].first,
                           static_cast<std::uint32_t>(c));
  }
  const std::size_t num_frequent_premises = frequent_premises.size();
  const std::size_t num_frequent_classes = frequent_classes.size();
  if (metrics != nullptr) {
    metrics->RecordStage("learn/count_classes", phase_timer.ElapsedMillis());
    phase_timer.Restart();
  }

  // ---- Pass 2: joint counts over the flat frequent grid. ----
  std::vector<std::vector<std::uint32_t>> joint_shards(
      num_shards, std::vector<std::uint32_t>(
                      num_frequent_premises * num_frequent_classes, 0));
  util::ParallelFor(
      options_.num_threads, num_examples,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& joint = joint_shards[chunk];
        std::vector<PremiseId> distinct;
        std::vector<std::uint32_t> dense_classes;
        for (std::size_t i = begin; i < end; ++i) {
          dense_classes.clear();
          for (ontology::ClassId c : examples[i].classes) {
            auto it = class_to_dense.find(c);
            if (it != class_to_dense.end()) dense_classes.push_back(it->second);
          }
          if (dense_classes.empty()) continue;
          const auto first = corpus.occurrences.begin() +
                             static_cast<std::ptrdiff_t>(corpus.offsets[i]);
          const auto last = corpus.occurrences.begin() +
                            static_cast<std::ptrdiff_t>(corpus.offsets[i + 1]);
          distinct.assign(first, last);
          std::sort(distinct.begin(), distinct.end());
          distinct.erase(std::unique(distinct.begin(), distinct.end()),
                         distinct.end());
          for (PremiseId id : distinct) {
            const std::uint32_t fid = frequent_id[id];
            if (fid == kNotFrequent) continue;
            const std::size_t row = fid * num_frequent_classes;
            for (std::uint32_t cid : dense_classes) ++joint[row + cid];
          }
        }
      },
      kExamplesPerMorsel);
  std::vector<std::uint32_t> joint_count = std::move(joint_shards[0]);
  for (std::size_t s = 1; s < num_shards; ++s) {
    for (std::size_t j = 0; j < joint_count.size(); ++j) {
      joint_count[j] += joint_shards[s][j];
    }
  }
  joint_shards.clear();
  if (metrics != nullptr) {
    metrics->RecordStage("learn/count_joint", phase_timer.ElapsedMillis());
    phase_timer.Restart();
  }

  // ---- Rule construction over the flat grid (serial; tiny vs counting).
  std::vector<ClassificationRule> rules;
  std::unordered_set<ontology::ClassId> conclusion_classes;
  for (std::size_t f = 0; f < num_frequent_premises; ++f) {
    const PremiseId premise = frequent_premises[f];
    const std::uint64_t key = corpus.premise_keys[premise];
    for (std::size_t c = 0; c < num_frequent_classes; ++c) {
      const std::uint32_t joint = joint_count[f * num_frequent_classes + c];
      if (!is_frequent(joint)) continue;
      ClassificationRule rule;
      rule.property = util::PackedHi(key);
      rule.segment = util::PackedLo(key);
      rule.cls = frequent_classes[c].first;
      rule.counts.premise_count = premise_example_count[premise];
      rule.counts.class_count = frequent_classes[c].second;
      rule.counts.joint_count = joint;
      rule.counts.total = ts.size();
      rule.ComputeMeasures();
      if (rule.confidence < options_.min_confidence) continue;
      conclusion_classes.insert(rule.cls);
      rules.push_back(std::move(rule));
    }
  }

  if (metrics != nullptr) {
    metrics->RecordStage("learn/emit_rules", phase_timer.ElapsedMillis());
    metrics->AddCounter("learn/examples", ts.size());
    metrics->AddCounter("learn/distinct_segments", corpus.segments.size());
    metrics->AddCounter("learn/segment_occurrences",
                        corpus.occurrences.size());
    metrics->AddCounter("learn/selected_segment_occurrences",
                        selected_occurrences);
    metrics->AddCounter("learn/frequent_premises", num_frequent_premises);
    metrics->AddCounter("learn/frequent_classes", num_frequent_classes);
    metrics->AddCounter("learn/rules_emitted", rules.size());
    metrics->AddCounter("learn/classes_with_rules",
                        conclusion_classes.size());
    metrics->MergeHistogram("learn/segments_per_example",
                            segments_per_example);
  }

  if (stats != nullptr) {
    stats->num_examples = ts.size();
    stats->distinct_segments = corpus.segments.size();
    stats->segment_occurrences = corpus.occurrences.size();
    stats->selected_segment_occurrences = selected_occurrences;
    stats->frequent_premises = num_frequent_premises;
    stats->frequent_classes = num_frequent_classes;
    stats->num_rules = rules.size();
    stats->classes_with_rules = conclusion_classes.size();
    stats->interner_symbols = corpus.segments.size();
    stats->interner_bytes = corpus.segments.memory_bytes();
  }

  return RuleSet(std::move(rules), ts.properties(), corpus.segments);
}

}  // namespace rulelink::core
