// Open-addressing index from keys to dense 32-bit ids that stores no key.
//
// Each slot holds an id and the low 32 bits of its key's hash; the owner
// keeps the keys in its own id-indexed table and compares them through a
// `matches(id)` callback. Linear probing over a power-of-two table kept at
// most half full; growth re-places every id from its stored hash, so no key
// is hashed twice. util::StringInterner (string views), rdf::TermDictionary
// (terms) and rdf::Graph (triples) index their tables with it.
//
// The hash tag picks the home slot and turns away most mismatches before a
// key is compared. Not thread-safe for concurrent FindOrInsert; a const
// index is safe to Find from any number of threads.
#ifndef RULELINK_UTIL_ID_HASH_INDEX_H_
#define RULELINK_UTIL_ID_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace rulelink::util {

class IdHashIndex {
 public:
  // The id no key ever gets; Find returns it on a miss.
  static constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

  IdHashIndex() = default;
  IdHashIndex(const IdHashIndex&) = default;
  IdHashIndex& operator=(const IdHashIndex&) = default;
  // A moved-from index is empty.
  IdHashIndex(IdHashIndex&& other) noexcept
      : slots_(std::move(other.slots_)), size_(std::exchange(other.size_, 0)) {
    other.slots_.clear();
  }
  IdHashIndex& operator=(IdHashIndex&& other) noexcept {
    slots_ = std::move(other.slots_);
    other.slots_.clear();
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  // The filed id whose key `matches` accepts, or kNoId. `hash` is the
  // key's hash, as given to FindOrInsert.
  template <typename Matches>
  std::uint32_t Find(std::uint64_t hash, Matches&& matches) const {
    if (slots_.empty()) return kNoId;
    const auto tag = static_cast<std::uint32_t>(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask; slots_[i].id != kNoId;
         i = (i + 1) & mask) {
      if (slots_[i].hash == tag && matches(slots_[i].id)) return slots_[i].id;
    }
    return kNoId;
  }

  // The filed id whose key `matches` accepts; on a miss files `new_id` and
  // returns it, so the caller appends the key exactly when the result is
  // `new_id`. `matches` is only ever called with filed ids.
  template <typename Matches>
  std::uint32_t FindOrInsert(std::uint64_t hash, std::uint32_t new_id,
                             Matches&& matches) {
    if (2 * (size_ + 1) > slots_.size()) {
      RL_CHECK(new_id != kNoId) << "ids exhausted";
      Rehash(SlotsFor(size_ + 1));
    }
    const auto tag = static_cast<std::uint32_t>(hash);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = tag & mask;
    for (; slots_[i].id != kNoId; i = (i + 1) & mask) {
      if (slots_[i].hash == tag && matches(slots_[i].id)) return slots_[i].id;
    }
    slots_[i] = Slot{new_id, tag};
    ++size_;
    return new_id;
  }

  // Pre-sizes the table for `expected_ids`.
  void Reserve(std::size_t expected_ids) {
    const std::size_t slots = SlotsFor(expected_ids);
    if (slots > slots_.size()) Rehash(slots);
  }

  // Bytes held by the slots (capacity, not just used).
  std::size_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint32_t id = kNoId;
    std::uint32_t hash = 0;
  };

  // The smallest power-of-two table, at least kMinSlots, that holds `ids`
  // at most half full.
  static std::size_t SlotsFor(std::size_t ids) {
    std::size_t slots = kMinSlots;
    while (slots < 2 * ids) slots *= 2;
    return slots;
  }

  // Re-places every filed id into a table of `num_slots` (a power of two).
  void Rehash(std::size_t num_slots) {
    std::vector<Slot> slots(num_slots);
    const std::size_t mask = num_slots - 1;
    for (const Slot& slot : slots_) {
      if (slot.id == kNoId) continue;
      std::size_t i = slot.hash & mask;
      while (slots[i].id != kNoId) i = (i + 1) & mask;
      slots[i] = slot;
    }
    slots_ = std::move(slots);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // filed ids
};

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_ID_HASH_INDEX_H_
