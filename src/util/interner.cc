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

}  // namespace

StringInterner::StringInterner(const StringInterner& other)
    : index_(other.index_) {
  // Same ids, so the copied index serves the copy's views unchanged.
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

SymbolId StringInterner::Intern(std::string_view s, std::uint64_t hash) {
  RL_DCHECK(hash == Hash(s));
  const auto next = static_cast<SymbolId>(views_.size());
  const SymbolId id = index_.FindOrInsert(
      hash, next, [&](SymbolId known) { return views_[known] == s; });
  if (id == next) views_.push_back(StoreInArena(s));
  return id;
}

SymbolId StringInterner::Find(std::string_view s, std::uint64_t hash) const {
  RL_DCHECK(hash == Hash(s));
  return index_.Find(hash,
                     [&](SymbolId known) { return views_[known] == s; });
}

std::size_t StringInterner::memory_bytes() const {
  std::size_t total = views_.capacity() * sizeof(std::string_view) +
                      index_.memory_bytes();
  for (const Block& block : blocks_) total += block.capacity;
  return total;
}

void StringInterner::Reserve(std::size_t expected_symbols) {
  views_.reserve(expected_symbols);
  index_.Reserve(expected_symbols);
}

}  // namespace rulelink::util
