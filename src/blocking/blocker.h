// Candidate-pair generation interface shared by the classic blocking
// baselines the paper surveys (§2) and by the rule-based class filter the
// paper proposes. A generator sees an external and a local item list and
// proposes the (external, local) index pairs a linker should compare.
#ifndef RULELINK_BLOCKING_BLOCKER_H_
#define RULELINK_BLOCKING_BLOCKER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/item.h"

namespace rulelink::blocking {

struct CandidatePair {
  std::size_t external_index = 0;
  std::size_t local_index = 0;

  friend bool operator==(const CandidatePair& a, const CandidatePair& b) {
    return a.external_index == b.external_index &&
           a.local_index == b.local_index;
  }
  friend bool operator<(const CandidatePair& a, const CandidatePair& b) {
    if (a.external_index != b.external_index) {
      return a.external_index < b.external_index;
    }
    return a.local_index < b.local_index;
  }
};

// A per-external view of the candidate space. Instead of materializing
// every (external, local) pair into one O(candidates) vector, an index
// answers "which locals should external item e be compared against?" one
// run at a time, so a streaming consumer's working set is bounded by the
// largest single run. Indexes are immutable once built and safe to probe
// from multiple threads concurrently.
class CandidateIndex {
 public:
  virtual ~CandidateIndex() = default;

  // Replaces `out` with the local candidates of `external_index`, in
  // ascending order with no duplicates — the same locals Generate pairs
  // with that external item.
  virtual void CandidatesOf(std::size_t external_index,
                            std::vector<std::size_t>* out) const = 0;

  // Number of external items the index was built over; CandidatesOf
  // accepts indexes in [0, num_external()).
  virtual std::size_t num_external() const = 0;
};

// A local-only candidate index probed with an arbitrary query item rather
// than a pre-registered external index — the serving engine's interface.
// CandidateIndex precomputes each external item's key at build time, so it
// cannot answer items it has never seen; an ItemCandidateIndex keeps the
// inverted structure over the locals only and resolves the probe's key per
// call. Immutable once built and safe to probe from many threads; the
// caller passes its own key scratch so a warm probe allocates nothing.
class ItemCandidateIndex {
 public:
  virtual ~ItemCandidateIndex() = default;

  // Replaces `out` with the local candidates of `item`, ascending with no
  // duplicates — exactly what BuildIndex({item}, local)->CandidatesOf(0)
  // would return. `key_scratch` is a caller-owned reusable buffer for key
  // extraction (contents unspecified afterwards).
  virtual void CandidatesOfItem(const core::Item& item,
                                std::string* key_scratch,
                                std::vector<std::size_t>* out) const = 0;

  // Number of local items the index was built over.
  virtual std::size_t num_local() const = 0;
};

// Every run of `index`, in external order: the sorted, duplicate-free
// pair list Generate returns for a blocker whose BuildIndex answers runs
// from its own inverted structure.
std::vector<CandidatePair> FlattenRuns(const CandidateIndex& index);

class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;

  // Proposes candidate pairs. Pairs are deduplicated and sorted.
  virtual std::vector<CandidatePair> Generate(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const = 0;

  // Builds a candidate index equivalent to Generate: for every e,
  // CandidatesOf(e) returns exactly the locals Generate would pair with e.
  // The base implementation materializes Generate's output into CSR form
  // (correct for any generator, but still O(candidates) memory once);
  // blockers that already hold an inverted structure override it to answer
  // runs directly. Item vectors may be borrowed by the returned index and
  // must outlive it.
  virtual std::unique_ptr<CandidateIndex> BuildIndex(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const;

  // Builds a probe-by-item index over `local` (see ItemCandidateIndex).
  // Returns null when this generator cannot probe item-at-a-time (the
  // base behaviour); key-based blockers override it. `local` may be
  // borrowed by the returned index and must outlive it.
  virtual std::unique_ptr<ItemCandidateIndex> BuildItemIndex(
      const std::vector<core::Item>& local) const;

  // Extends `base` — an index this generator previously built — with
  // `delta` items logically appended after the base's locals, without
  // re-inverting the base catalog: the returned index answers with
  // global indices, the base's candidates first and then the delta's
  // (delta locals are numbered base->num_local() + j, so the combined
  // run stays ascending and duplicate-free). Returns null when `base`
  // was built by a different generator or with different key parameters
  // (the base behaviour — extension would be unsound). The returned
  // index shares ownership of `base` and copies what it needs from
  // `delta`; `delta` is not borrowed. This is the serving engine's
  // delta publish path (DESIGN.md §5j).
  virtual std::unique_ptr<ItemCandidateIndex> ExtendItemIndex(
      std::shared_ptr<const ItemCandidateIndex> base,
      const std::vector<core::Item>& delta) const;

  virtual std::string name() const = 0;
};

// The naive |S_E| x |S_L| space (§3): every pair is a candidate.
class CartesianBlocker : public CandidateGenerator {
 public:
  // FlattenRuns over BuildIndex.
  std::vector<CandidatePair> Generate(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const override;
  // Every run is 0..|local|-1; nothing to materialize.
  std::unique_ptr<CandidateIndex> BuildIndex(
      const std::vector<core::Item>& external,
      const std::vector<core::Item>& local) const override;
  std::unique_ptr<ItemCandidateIndex> BuildItemIndex(
      const std::vector<core::Item>& local) const override;
  std::unique_ptr<ItemCandidateIndex> ExtendItemIndex(
      std::shared_ptr<const ItemCandidateIndex> base,
      const std::vector<core::Item>& delta) const override;
  std::string name() const override { return "cartesian"; }
};

// Extracts the blocking key of an item: the first value of `property`,
// optionally truncated to `prefix_length` characters (0 = whole value),
// ASCII-lowercased. Shared by the key-based blockers.
std::string BlockingKey(const core::Item& item, const std::string& property,
                        std::size_t prefix_length);

// BlockingKey into a caller-owned buffer (cleared first, capacity reused):
// the allocation-free form the per-query probe path uses. *key is empty
// when the item has no value under `property`.
void AppendBlockingKey(const core::Item& item, const std::string& property,
                       std::size_t prefix_length, std::string* key);

}  // namespace rulelink::blocking

#endif  // RULELINK_BLOCKING_BLOCKER_H_
