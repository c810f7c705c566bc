// Interned symbol table: maps strings to stable dense uint32 ids.
//
// The learning core's hot loops count (property, segment, class) triples;
// hashing and comparing full std::string keys in those loops caps
// throughput (see DESIGN.md §"Interned data model"). StringInterner turns
// every distinct string into a dense SymbolId exactly once, after which
// the counting passes operate on flat integer arrays.
//
// Design:
//   * arena-backed storage: string bytes live in chunked char blocks that
//     are never reallocated, so the string_views handed out stay valid for
//     the interner's lifetime (including across moves);
//   * dense ids: the i-th distinct string interned gets id i, so callers
//     can replace hash maps keyed by string with vectors indexed by id;
//   * string_view lookup: Intern/Find take string_views and never allocate
//     unless a new symbol is actually added;
//   * one flat index: a util::IdHashIndex of (id, hash) slots over the
//     arena views, linear probing, at most half full. Callers that probe
//     several interners with one string (FeatureDictionary's overlay
//     chain) hash it once with Hash() and pass the hash down;
//   * ordering: ids follow first-occurrence order, NOT lexical order.
//     Callers that need lexical ordering (RuleSet's tie-break, report
//     emission) resolve ids back to views and compare those — see the
//     "ordering contract" in DESIGN.md;
//   * snapshots: Snapshot() copies the id->view table (16 bytes/symbol;
//     the underlying bytes are shared with the arena). A snapshot is safe
//     to read from any number of threads while the owning interner keeps
//     interning on another thread, because readers never touch the
//     interner's growing containers.
//
// Not thread-safe for concurrent Intern(); the deterministic pattern used
// throughout this codebase is: intern serially (or merge per-shard tables
// in chunk order), then hand read-only snapshots to parallel phases.
#ifndef RULELINK_UTIL_INTERNER_H_
#define RULELINK_UTIL_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/hash.h"
#include "util/id_hash_index.h"

namespace rulelink::util {

// Dense id of an interned string. Layers alias this (text::SegmentId,
// text::TokenId) to document which symbol universe an id belongs to.
using SymbolId = std::uint32_t;
inline constexpr SymbolId kInvalidSymbolId = 0xFFFFFFFFu;

class StringInterner {
 public:
  StringInterner() = default;

  // Deep copy: the copy owns its own arena and yields identical ids.
  StringInterner(const StringInterner& other);
  StringInterner& operator=(const StringInterner& other);

  // Moves keep all handed-out views valid (the arena blocks move along).
  StringInterner(StringInterner&&) noexcept = default;
  StringInterner& operator=(StringInterner&&) noexcept = default;

  // The hash Intern and Find key on. Any interner accepts it, so one hash
  // serves a probe of several interners.
  static std::uint64_t Hash(std::string_view s) { return HashBytes(s); }

  // Returns the id of `s`, interning it on first sight. Ids are dense and
  // assigned in first-occurrence order. `hash` must be Hash(s).
  SymbolId Intern(std::string_view s) { return Intern(s, Hash(s)); }
  SymbolId Intern(std::string_view s, std::uint64_t hash);

  // Returns the id of `s` or kInvalidSymbolId when it was never interned.
  // Never allocates; safe on a const interner that nobody is mutating.
  // `hash` must be Hash(s).
  SymbolId Find(std::string_view s) const { return Find(s, Hash(s)); }
  SymbolId Find(std::string_view s, std::uint64_t hash) const;

  // The string for `id`. Valid for the interner's lifetime.
  std::string_view View(SymbolId id) const { return views_[id]; }

  std::size_t size() const { return views_.size(); }
  bool empty() const { return views_.empty(); }

  // Bytes held by the arena blocks, the id->view table and the hash slots
  // (capacity, not just used), for memory accounting in benchmarks and
  // stats.
  std::size_t memory_bytes() const;

  // Pre-sizes the id table and hash slots for `expected_symbols`.
  void Reserve(std::size_t expected_symbols);

  // Read-only view of the id->string table, decoupled from the interner's
  // growing containers: concurrent readers of a Snapshot race with nothing
  // even while the source interner keeps interning new symbols.
  class Snapshot {
   public:
    Snapshot() = default;
    std::string_view View(SymbolId id) const { return views_[id]; }
    std::size_t size() const { return views_.size(); }

   private:
    friend class StringInterner;
    explicit Snapshot(std::vector<std::string_view> views)
        : views_(std::move(views)) {}
    std::vector<std::string_view> views_;
  };
  Snapshot MakeSnapshot() const { return Snapshot(views_); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t used = 0;
    std::size_t capacity = 0;
  };

  // Copies `s` into the arena and returns a stable view of the copy.
  std::string_view StoreInArena(std::string_view s);

  std::vector<Block> blocks_;
  std::vector<std::string_view> views_;  // id -> arena-backed view
  // Keys are ids into views_, so the index never owns string bytes.
  IdHashIndex index_;
};
static_assert(kInvalidSymbolId == IdHashIndex::kNoId);

// Packs two 32-bit ids into the 64-bit composite keys the counting layers
// use for (property, segment) premises and similar pairs.
inline std::uint64_t PackSymbolPair(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
inline std::uint32_t PackedHi(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 32);
}
inline std::uint32_t PackedLo(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed & 0xFFFFFFFFu);
}

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_INTERNER_H_
