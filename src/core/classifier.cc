#include "core/classifier.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "util/interner.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rulelink::core {

RuleClassifier::RuleClassifier(const RuleSet* rules,
                               const text::Segmenter* segmenter)
    : rules_(rules), segmenter_(segmenter) {
  RL_CHECK(rules_ != nullptr);
  RL_CHECK(segmenter_ != nullptr);
  for (const ClassificationRule& rule : rules_->rules()) {
    RL_DCHECK(rule.cls != ontology::kInvalidClassId);
    num_class_slots_ =
        std::max(num_class_slots_, static_cast<std::size_t>(rule.cls) + 1);
  }
}

std::vector<ClassPrediction> RuleClassifier::Classify(
    const Item& item, double min_confidence) const {
  std::vector<ClassPrediction> predictions;
  ClassifyInto(item, min_confidence, &predictions);
  return predictions;
}

void RuleClassifier::ClassifyInto(const Item& item, double min_confidence,
                                  std::vector<ClassPrediction>* out) const {
  // Per-thread buffers, reused across calls so a warmed thread allocates
  // nothing: the premises, one value's segment views, and best-per-class
  // (below).
  struct ClassifyScratch {
    std::vector<std::uint64_t> premises;
    std::vector<std::string_view> segments;
    std::vector<ClassPrediction> best;        // slot c: best rule for class c
    std::vector<ontology::ClassId> touched;   // slots to reset afterwards
  };
  thread_local ClassifyScratch scratch;

  // Distinct (property, segment) premises the item satisfies, as packed
  // (PropertyId, SegmentId) keys. Segments are resolved read-only against
  // the RuleSet's compact interner: a segment it has never seen cannot
  // fire any rule, so unknown segments are skipped (and the shared
  // interner is never mutated — concurrent Classify calls stay safe).
  const util::StringInterner& segments = rules_->segments();
  std::vector<std::uint64_t>& premises = scratch.premises;
  premises.clear();
  for (const auto& pv : item.facts) {
    const PropertyId property = rules_->properties().Find(pv.property);
    if (property == kInvalidPropertyId) continue;
    scratch.segments.clear();
    segmenter_->SegmentViews(pv.value, &scratch.segments);
    for (std::string_view seg : scratch.segments) {
      const SegmentId seg_id = segments.Find(seg);
      if (seg_id == kInvalidSegmentId) continue;
      premises.push_back(util::PackSymbolPair(property, seg_id));
    }
  }
  // Sorted-unique premise order makes the scan (and therefore the
  // rule_index chosen on exact (confidence, lift) ties) deterministic,
  // where the old string pipeline depended on hash iteration order.
  std::sort(premises.begin(), premises.end());
  premises.erase(std::unique(premises.begin(), premises.end()),
                 premises.end());

  // Fire rules; keep only the best rule per predicted class so identical
  // subspaces are not ranked twice. ClassIds are dense (interned by the
  // ontology), so best-per-class lives in a flat scratch vector indexed
  // by ClassId instead of a hash map — no hashing per fired rule.
  // `touched` records which slots were written so the reset is
  // O(fired classes), not O(num_class_slots_).
  if (scratch.best.size() < num_class_slots_) {
    scratch.best.resize(num_class_slots_);
  }
  scratch.touched.clear();

  const auto& all_rules = rules_->rules();
  for (const std::uint64_t premise : premises) {
    for (std::size_t rule_index :
         rules_->RulesFor(util::PackedHi(premise), util::PackedLo(premise))) {
      const ClassificationRule& rule = all_rules[rule_index];
      if (rule.confidence < min_confidence) continue;
      ClassPrediction& cur = scratch.best[rule.cls];
      if (cur.cls == ontology::kInvalidClassId) {
        cur = ClassPrediction{rule.cls, rule.confidence, rule.lift,
                              rule_index};
        scratch.touched.push_back(rule.cls);
      } else if (rule.confidence > cur.confidence ||
                 (rule.confidence == cur.confidence &&
                  rule.lift > cur.lift)) {
        cur = ClassPrediction{rule.cls, rule.confidence, rule.lift,
                              rule_index};
      }
    }
  }

  out->clear();
  for (const ontology::ClassId cls : scratch.touched) {
    out->push_back(scratch.best[cls]);
    scratch.best[cls] = ClassPrediction{};  // restore the sentinel
  }
  std::sort(out->begin(), out->end(),
            [](const ClassPrediction& a, const ClassPrediction& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.lift != b.lift) return a.lift > b.lift;
              return a.cls < b.cls;
            });
}

std::vector<std::vector<ClassPrediction>> RuleClassifier::ClassifyBatch(
    const std::vector<Item>& items, double min_confidence,
    std::size_t num_threads) const {
  std::vector<std::vector<ClassPrediction>> results(items.size());
  util::ParallelFor(
      num_threads, items.size(),
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = Classify(items[i], min_confidence);
        }
      },
      /*items_per_morsel=*/64);  // write-by-index: fine morsels are free
  return results;
}

}  // namespace rulelink::core
