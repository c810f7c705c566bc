// Rule application (§4.4): classifying an external item into candidate
// local classes, producing the ordered list of data-linking subspaces.
#ifndef RULELINK_CORE_CLASSIFIER_H_
#define RULELINK_CORE_CLASSIFIER_H_

#include <vector>

#include "core/item.h"
#include "core/rule.h"
#include "text/segmenter.h"

namespace rulelink::core {

// One predicted class for an item, i.e. one data-linking subspace d_ik.
struct ClassPrediction {
  ontology::ClassId cls = ontology::kInvalidClassId;
  double confidence = 0.0;
  double lift = 0.0;
  std::size_t rule_index = 0;  // index into the RuleSet's rules()
};

class RuleClassifier {
 public:
  // Both pointers are borrowed and must outlive the classifier.
  RuleClassifier(const RuleSet* rules, const text::Segmenter* segmenter);

  // All class predictions for `item`, ordered by the paper's ranking:
  // confidence first, lift second (higher lift = smaller subspace first).
  // When two rules predict the same class (identical subspaces), only the
  // better rule's prediction is kept (§4.4, last paragraph).
  // Predictions below `min_confidence` are dropped.
  std::vector<ClassPrediction> Classify(const Item& item,
                                        double min_confidence = 0.0) const;

  // Classify into `*out`, which it replaces: the same predictions in the
  // same order, worked out in per-thread scratch, so a caller that reuses
  // `out` allocates nothing once the buffers have grown. RuleBlocker's
  // item index classifies every probe, served queries included, this way.
  void ClassifyInto(const Item& item, double min_confidence,
                    std::vector<ClassPrediction>* out) const;

  // Classifies a batch of items, partitioning them across `num_threads`
  // workers (0 = hardware concurrency, 1 = serial). Items are independent,
  // so result[i] is exactly Classify(items[i], min_confidence) at every
  // thread count. Classify() is const and touches only the borrowed
  // RuleSet/Segmenter, both read-only, so concurrent calls are safe.
  std::vector<std::vector<ClassPrediction>> ClassifyBatch(
      const std::vector<Item>& items, double min_confidence = 0.0,
      std::size_t num_threads = 0) const;

  const RuleSet& rules() const { return *rules_; }

 private:
  const RuleSet* rules_;
  const text::Segmenter* segmenter_;
  // One scratch slot per dense ClassId a rule can predict (max cls + 1),
  // so Classify can keep best-per-class in a flat vector instead of a
  // hash map. Computed once here; the borrowed RuleSet is immutable.
  std::size_t num_class_slots_ = 0;
};

}  // namespace rulelink::core

#endif  // RULELINK_CORE_CLASSIFIER_H_
