#include "blocking/rule_blocker.h"

#include <cstdint>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace rulelink::blocking {

RuleBlocker::RuleBlocker(const core::RuleClassifier* classifier,
                         const ontology::Ontology* onto,
                         const std::vector<ontology::ClassId>* local_classes,
                         double min_confidence,
                         bool compare_all_when_unclassified)
    : classifier_(classifier),
      onto_(onto),
      local_classes_(local_classes),
      min_confidence_(min_confidence),
      compare_all_when_unclassified_(compare_all_when_unclassified) {
  RL_CHECK(classifier_ != nullptr);
  RL_CHECK(onto_ != nullptr);
  RL_CHECK(local_classes_ != nullptr);
}

std::vector<CandidatePair> RuleBlocker::Generate(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  return FlattenRuns(*BuildIndex(external, local));
}

namespace {

// One class's subtree row in the merge: the ids not yet emitted.
struct RowCursor {
  const std::uint32_t* at;
  const std::uint32_t* end;
};

// Rows merged from cursors on the stack; more predicted classes than this
// (none of which subsumes another) spill the cursors to a per-thread
// buffer.
constexpr std::size_t kInlineRows = 16;

class RuleItemIndex : public ItemCandidateIndex {
 public:
  // Row c of the CSR (`row_offsets_`, `row_ids_`) holds, ascending, every
  // typed local whose class is c or a descendant of c: the extent a
  // prediction of c blocks to (PAPER.md §4.4). Walking the locals in
  // order and appending each to its class's row and to the row of each of
  // that class's ancestors (Ontology keeps them deduplicated) writes every
  // row in ascending order without a sort.
  RuleItemIndex(const core::RuleClassifier* classifier,
                const ontology::Ontology* onto,
                const std::vector<ontology::ClassId>& local_classes,
                double min_confidence, bool compare_all_when_unclassified)
      : classifier_(classifier),
        onto_(onto),
        num_local_(local_classes.size()),
        min_confidence_(min_confidence),
        compare_all_when_unclassified_(compare_all_when_unclassified) {
    RL_CHECK(num_local_ <= std::numeric_limits<std::uint32_t>::max());
    const std::size_t num_classes = onto->num_classes();
    // Ancestors-or-self of each class that types some local, fetched once.
    std::vector<std::vector<ontology::ClassId>> rows_of(num_classes);
    row_offsets_.assign(num_classes + 1, 0);
    for (const ontology::ClassId c : local_classes) {
      if (c == ontology::kInvalidClassId) continue;
      RL_CHECK(c < num_classes) << "local class " << c << " not in ontology";
      std::vector<ontology::ClassId>& rows = rows_of[c];
      if (rows.empty()) {
        rows = onto->Ancestors(c);
        rows.push_back(c);
      }
      for (const ontology::ClassId row : rows) ++row_offsets_[row + 1];
    }
    for (std::size_t c = 0; c < num_classes; ++c) {
      row_offsets_[c + 1] += row_offsets_[c];
    }
    row_ids_.resize(row_offsets_[num_classes]);
    std::vector<std::size_t> fill(row_offsets_.begin(), row_offsets_.end() - 1);
    for (std::size_t l = 0; l < num_local_; ++l) {
      const ontology::ClassId c = local_classes[l];
      if (c == ontology::kInvalidClassId) continue;
      for (const ontology::ClassId row : rows_of[c]) {
        row_ids_[fill[row]++] = static_cast<std::uint32_t>(l);
      }
    }
  }

  // Allocation-free once the calling thread's buffers have grown, so a
  // served query under the paper's blocker allocates nothing either.
  void CandidatesOfItem(const core::Item& item, std::string*,
                        std::vector<std::size_t>* out) const override {
    out->clear();
    thread_local std::vector<core::ClassPrediction> predictions;
    thread_local std::vector<RowCursor> spilled;
    classifier_->ClassifyInto(item, min_confidence_, &predictions);
    if (predictions.empty()) {
      if (compare_all_when_unclassified_) {
        out->resize(num_local_);
        for (std::size_t l = 0; l < num_local_; ++l) (*out)[l] = l;
      }
      return;
    }
    // A predicted class with a predicted ancestor adds nothing: its row is
    // a subset of the ancestor's. The rest are merged.
    RowCursor inline_cursors[kInlineRows];
    RowCursor* cursors = inline_cursors;
    if (predictions.size() > kInlineRows) {
      spilled.resize(predictions.size());
      cursors = spilled.data();
    }
    std::size_t live = 0;
    std::size_t total = 0;
    for (const core::ClassPrediction& prediction : predictions) {
      bool subsumed = false;
      for (const core::ClassPrediction& other : predictions) {
        if (other.cls != prediction.cls &&
            onto_->IsSubClassOf(prediction.cls, other.cls)) {
          subsumed = true;
          break;
        }
      }
      const std::size_t begin = row_offsets_[prediction.cls];
      const std::size_t end = row_offsets_[prediction.cls + 1];
      if (subsumed || begin == end) continue;
      cursors[live++] = {row_ids_.data() + begin, row_ids_.data() + end};
      total += end - begin;
    }
    if (live == 1) {
      out->assign(cursors[0].at, cursors[0].end);
      return;
    }
    // Several rows: a k-way merge, smallest head first. The ontology
    // allows several parents, so two unrelated classes can share a
    // descendant; a head equal to the last id written is that overlap.
    out->resize(total);
    std::size_t* const first = out->data();
    std::size_t* written = first;
    while (live > 0) {
      std::size_t smallest = 0;
      for (std::size_t k = 1; k < live; ++k) {
        if (*cursors[k].at < *cursors[smallest].at) smallest = k;
      }
      const std::uint32_t id = *cursors[smallest].at;
      if (written == first || written[-1] != id) *written++ = id;
      if (++cursors[smallest].at == cursors[smallest].end) {
        cursors[smallest] = cursors[--live];
      }
    }
    out->resize(static_cast<std::size_t>(written - first));
  }
  std::size_t num_local() const override { return num_local_; }

 private:
  const core::RuleClassifier* classifier_;
  const ontology::Ontology* onto_;
  std::size_t num_local_;
  double min_confidence_;
  bool compare_all_when_unclassified_;
  std::vector<std::size_t> row_offsets_;  // num_classes + 1 edges
  std::vector<std::uint32_t> row_ids_;    // local indices, per class row
};

}  // namespace

std::unique_ptr<ItemCandidateIndex> RuleBlocker::BuildItemIndex(
    const std::vector<core::Item>& local) const {
  RL_CHECK(local_classes_->size() == local.size())
      << "local_classes must parallel the local item list";
  return std::make_unique<RuleItemIndex>(classifier_, onto_, *local_classes_,
                                         min_confidence_,
                                         compare_all_when_unclassified_);
}

std::string RuleBlocker::name() const {
  return "rule-classifier(minconf=" +
         util::FormatDouble(min_confidence_, 2) +
         (compare_all_when_unclassified_ ? ",fallback=all)" : ",fallback=skip)");
}

}  // namespace rulelink::blocking
