#include "core/contingency.h"

#include "util/hash.h"
#include "util/logging.h"

namespace rulelink::core {

ContingencyCounts::ContingencyCounts(const text::Segmenter* segmenter)
    : segmenter_(segmenter) {
  RL_CHECK(segmenter_ != nullptr);
}

void ContingencyCounts::AddValue(PropertyId property,
                                 std::string_view value) {
  const auto stamp = static_cast<std::uint32_t>(num_examples() + 1);
  segment_scratch_.clear();
  segmenter_->SegmentViews(value, &segment_scratch_);
  segment_occurrences_ += segment_scratch_.size();
  for (const std::string_view segment : segment_scratch_) {
    const std::uint64_t key =
        util::PackSymbolPair(property, segments_.Intern(segment));
    const auto next = static_cast<PremiseId>(premise_keys_.size());
    const PremiseId id = premise_index_.FindOrInsert(
        util::Mix64(key), next,
        [&](PremiseId filed) { return premise_keys_[filed] == key; });
    if (id == next) {
      premise_keys_.push_back(key);
      premise_examples_.push_back(0);
      premise_occurrences_.push_back(0);
      premise_stamp_.push_back(0);
    }
    ++premise_occurrences_[id];
    if (premise_stamp_[id] != stamp) {
      premise_stamp_[id] = stamp;
      example_premises_.push_back(id);
    }
  }
}

void ContingencyCounts::EndExample(
    const std::vector<ontology::ClassId>& classes) {
  for (std::size_t k = premise_offsets_.back(); k < example_premises_.size();
       ++k) {
    ++premise_examples_[example_premises_[k]];
  }
  premise_offsets_.push_back(example_premises_.size());
  for (const ontology::ClassId c : classes) {
    if (c >= class_examples_.size()) class_examples_.resize(c + 1, 0);
    ++class_examples_[c];
    example_classes_.push_back(c);
  }
  class_offsets_.push_back(example_classes_.size());
}

std::vector<ClassificationRule> ContingencyCounts::Rules(
    double th, double min_confidence, LearnStats* stats) const {
  const std::size_t total = num_examples();
  const auto is_frequent = [&](std::size_t count) {
    return IsFrequentCount(count, th, total);
  };

  // Frequent premises are the grid's rows, frequent classes its columns.
  constexpr std::uint32_t kNotFrequent = 0xFFFFFFFFu;
  std::vector<std::uint32_t> row_of(premise_keys_.size(), kNotFrequent);
  std::vector<PremiseId> rows;
  std::size_t selected_occurrences = 0;
  for (PremiseId p = 0; p < premise_keys_.size(); ++p) {
    if (!is_frequent(premise_examples_[p])) continue;
    row_of[p] = static_cast<std::uint32_t>(rows.size());
    rows.push_back(p);
    selected_occurrences += premise_occurrences_[p];
  }
  std::vector<std::uint32_t> column_of(class_examples_.size(), kNotFrequent);
  std::vector<ontology::ClassId> columns;
  for (ontology::ClassId c = 0; c < class_examples_.size(); ++c) {
    if (!is_frequent(class_examples_[c])) continue;
    column_of[c] = static_cast<std::uint32_t>(columns.size());
    columns.push_back(c);
  }

  // Joint counts: one walk over the kept examples into the flat grid.
  const std::size_t width = columns.size();
  std::vector<std::uint32_t> joint(rows.size() * width, 0);
  std::vector<std::uint32_t> example_columns;
  for (std::size_t i = 0; i < total; ++i) {
    example_columns.clear();
    for (std::size_t k = class_offsets_[i]; k < class_offsets_[i + 1]; ++k) {
      const std::uint32_t column = column_of[example_classes_[k]];
      if (column != kNotFrequent) example_columns.push_back(column);
    }
    if (example_columns.empty()) continue;
    for (std::size_t k = premise_offsets_[i]; k < premise_offsets_[i + 1];
         ++k) {
      const std::uint32_t row = row_of[example_premises_[k]];
      if (row == kNotFrequent) continue;
      std::uint32_t* cells = joint.data() + row * width;
      for (const std::uint32_t column : example_columns) ++cells[column];
    }
  }

  std::vector<ClassificationRule> rules;
  std::vector<bool> concluded(width, false);
  std::size_t classes_with_rules = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const PremiseId premise = rows[r];
    for (std::size_t c = 0; c < width; ++c) {
      const std::uint32_t joint_count = joint[r * width + c];
      if (!is_frequent(joint_count)) continue;
      ClassificationRule rule;
      rule.property = util::PackedHi(premise_keys_[premise]);
      rule.segment = util::PackedLo(premise_keys_[premise]);
      rule.cls = columns[c];
      rule.counts.premise_count = premise_examples_[premise];
      rule.counts.class_count = class_examples_[columns[c]];
      rule.counts.joint_count = joint_count;
      rule.counts.total = total;
      rule.ComputeMeasures();
      if (rule.confidence < min_confidence) continue;
      if (!concluded[c]) {
        concluded[c] = true;
        ++classes_with_rules;
      }
      rules.push_back(rule);
    }
  }

  if (stats != nullptr) {
    stats->num_examples = total;
    stats->distinct_segments = segments_.size();
    stats->segment_occurrences = segment_occurrences_;
    stats->selected_segment_occurrences = selected_occurrences;
    stats->frequent_premises = rows.size();
    stats->frequent_classes = width;
    stats->num_rules = rules.size();
    stats->classes_with_rules = classes_with_rules;
    stats->interner_symbols = segments_.size();
    stats->interner_bytes = segments_.memory_bytes();
  }
  return rules;
}

}  // namespace rulelink::core
