// Standard key blocking (Jaro 1989, as recalled in §2): items sharing the
// same blocking key — e.g. the first five characters of a name — fall in
// the same block, and only intra-block cross-source pairs are compared.
#ifndef RULELINK_BLOCKING_STANDARD_BLOCKING_H_
#define RULELINK_BLOCKING_STANDARD_BLOCKING_H_

#include <string>
#include <vector>

#include "blocking/blocker.h"

namespace rulelink::blocking {

class StandardBlocker : public CandidateGenerator {
 public:
  // Blocks on the first `prefix_length` characters (0 = full value) of
  // `property`. Items with an empty key are never candidates.
  StandardBlocker(std::string property, std::size_t prefix_length);

  // FlattenRuns over BuildIndex.
  std::vector<CandidatePair> Generate(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const override;
  // The block structure already is an inverted index over keys, so the
  // index keeps the blocks plus the key interner instead of materializing
  // the pair list, and resolves each probed item's key at probe time with
  // a read-only Find: no allocation beyond the caller's key scratch.
  // Borrows nothing.
  std::unique_ptr<ItemCandidateIndex> BuildItemIndex(
      const std::vector<core::Item>& local) const override;
  // Extends a BuildItemIndex/ExtendItemIndex result of a StandardBlocker
  // with the same (property, prefix) key scheme: the delta items get their
  // own small key interner + blocks keyed with global indices past the
  // base's locals, and probes answer base-then-delta. Chains freely — the
  // K-th delta publish probes K small delta layers plus the original
  // inverted index. Returns null for a foreign or key-mismatched base.
  std::unique_ptr<ItemCandidateIndex> ExtendItemIndex(
      std::shared_ptr<const ItemCandidateIndex> base,
      const std::vector<core::Item>& delta) const override;
  std::string name() const override;

 private:
  std::string property_;
  std::size_t prefix_length_;
};

}  // namespace rulelink::blocking

#endif  // RULELINK_BLOCKING_STANDARD_BLOCKING_H_
