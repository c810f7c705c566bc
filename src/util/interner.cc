#include "util/interner.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace rulelink::util {
namespace {

// First block size; blocks double up to the cap so huge symbol tables do
// not pay one allocation per few strings.
constexpr std::size_t kMinBlockBytes = std::size_t{1} << 12;   // 4 KiB
constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 20;   // 1 MiB
constexpr std::size_t kMinSlots = 16;

// The smallest power-of-two table, at least kMinSlots, that holds
// `symbols` at most half full.
std::size_t SlotsFor(std::size_t symbols) {
  std::size_t slots = kMinSlots;
  while (slots < 2 * symbols) slots *= 2;
  return slots;
}

}  // namespace

StringInterner::StringInterner(const StringInterner& other)
    : slots_(other.slots_) {
  // Same ids, so the copied slots index the copy's views unchanged.
  views_.reserve(other.size());
  for (std::string_view view : other.views_) {
    views_.push_back(StoreInArena(view));
  }
}

StringInterner& StringInterner::operator=(const StringInterner& other) {
  if (this != &other) {
    StringInterner copy(other);
    *this = std::move(copy);
  }
  return *this;
}

std::string_view StringInterner::StoreInArena(std::string_view s) {
  if (blocks_.empty() || blocks_.back().capacity - blocks_.back().used <
                             s.size()) {
    std::size_t capacity =
        blocks_.empty() ? kMinBlockBytes
                        : std::min(blocks_.back().capacity * 2,
                                   kMaxBlockBytes);
    capacity = std::max(capacity, s.size());
    Block block;
    block.data = std::make_unique<char[]>(capacity);
    block.capacity = capacity;
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_.back();
  char* dest = block.data.get() + block.used;
  if (!s.empty()) std::memcpy(dest, s.data(), s.size());
  block.used += s.size();
  return std::string_view(dest, s.size());
}

void StringInterner::Rehash(std::size_t num_slots) {
  std::vector<Slot> slots(num_slots);
  const std::size_t mask = num_slots - 1;
  for (const Slot& slot : slots_) {
    if (slot.id == kInvalidSymbolId) continue;
    std::size_t i = slot.hash & mask;
    while (slots[i].id != kInvalidSymbolId) i = (i + 1) & mask;
    slots[i] = slot;
  }
  slots_ = std::move(slots);
}

SymbolId StringInterner::Intern(std::string_view s, std::uint64_t hash) {
  RL_DCHECK(hash == Hash(s));
  if (2 * (views_.size() + 1) > slots_.size()) {
    RL_CHECK(views_.size() < kInvalidSymbolId) << "symbol ids exhausted";
    Rehash(SlotsFor(views_.size() + 1));
  }
  const auto tag = static_cast<std::uint32_t>(hash);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = tag & mask;
  for (; slots_[i].id != kInvalidSymbolId; i = (i + 1) & mask) {
    if (slots_[i].hash == tag && views_[slots_[i].id] == s) {
      return slots_[i].id;
    }
  }
  const auto id = static_cast<SymbolId>(views_.size());
  views_.push_back(StoreInArena(s));
  slots_[i] = Slot{id, tag};
  return id;
}

SymbolId StringInterner::Find(std::string_view s, std::uint64_t hash) const {
  RL_DCHECK(hash == Hash(s));
  if (slots_.empty()) return kInvalidSymbolId;
  const auto tag = static_cast<std::uint32_t>(hash);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = tag & mask; slots_[i].id != kInvalidSymbolId;
       i = (i + 1) & mask) {
    if (slots_[i].hash == tag && views_[slots_[i].id] == s) {
      return slots_[i].id;
    }
  }
  return kInvalidSymbolId;
}

std::size_t StringInterner::memory_bytes() const {
  std::size_t total = views_.capacity() * sizeof(std::string_view) +
                      slots_.capacity() * sizeof(Slot);
  for (const Block& block : blocks_) total += block.capacity;
  return total;
}

void StringInterner::Reserve(std::size_t expected_symbols) {
  views_.reserve(expected_symbols);
  const std::size_t slots = SlotsFor(expected_symbols);
  if (slots > slots_.size()) Rehash(slots);
}

}  // namespace rulelink::util
