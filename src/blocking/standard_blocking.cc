#include "blocking/standard_blocking.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/interner.h"

namespace rulelink::blocking {

StandardBlocker::StandardBlocker(std::string property,
                                 std::size_t prefix_length)
    : property_(std::move(property)), prefix_length_(prefix_length) {}

namespace {

// The key -> block table over one run of items: block `id` lists, in
// ascending order, offset + position of every item whose key interned to
// `id`. Items with an empty key join no block, so Find("") is null.
struct KeyBlocks {
  util::StringInterner keys;
  std::vector<std::vector<std::size_t>> blocks;  // by key id

  // The block of `key`, or null. Find never mutates the interner, so
  // concurrent probes are safe.
  const std::vector<std::size_t>* Find(std::string_view key) const {
    const util::SymbolId id = keys.Find(key);
    return id == util::kInvalidSymbolId ? nullptr : &blocks[id];
  }
};

// Keys are interned to dense ids, so the table is a flat vector of blocks
// instead of a string-keyed hash map.
KeyBlocks BuildKeyBlocks(const std::vector<core::Item>& items,
                         const std::string& property,
                         std::size_t prefix_length, std::size_t offset) {
  KeyBlocks table;
  std::string key;
  for (std::size_t i = 0; i < items.size(); ++i) {
    AppendBlockingKey(items[i], property, prefix_length, &key);
    if (key.empty()) continue;
    const util::SymbolId id = table.keys.Intern(key);
    if (id == table.blocks.size()) table.blocks.emplace_back();
    table.blocks[id].push_back(offset + i);
  }
  return table;
}

class StandardBlockIndex : public CandidateIndex {
 public:
  StandardBlockIndex(std::vector<std::vector<std::size_t>> blocks,
                     std::vector<util::SymbolId> external_key)
      : blocks_(std::move(blocks)), external_key_(std::move(external_key)) {}

  void CandidatesOf(std::size_t external_index,
                    std::vector<std::size_t>* out) const override {
    const util::SymbolId id = external_key_[external_index];
    if (id == util::kInvalidSymbolId) {
      out->clear();
      return;
    }
    // Locals were inserted in ascending order, so each block already is a
    // sorted-unique run.
    out->assign(blocks_[id].begin(), blocks_[id].end());
  }
  std::size_t num_external() const override { return external_key_.size(); }

 private:
  std::vector<std::vector<std::size_t>> blocks_;  // by key id
  std::vector<util::SymbolId> external_key_;      // by external index
};

// The probe-by-item index: the blocks of one run of locals over a base
// layer with the same key scheme that holds every earlier local — null at
// the root, one more layer per delta publish. A probe derives the query's
// key once and every layer, root first, appends its block; a layer's
// indices all lie past its base's, so the run stays ascending and
// duplicate-free.
class StandardItemIndex : public ItemCandidateIndex {
 public:
  StandardItemIndex(std::shared_ptr<const StandardItemIndex> base,
                    std::string property, std::size_t prefix_length,
                    KeyBlocks blocks, std::size_t num_local)
      : base_(std::move(base)),
        property_(std::move(property)),
        prefix_length_(prefix_length),
        blocks_(std::move(blocks)),
        num_local_(num_local) {}

  void CandidatesOfItem(const core::Item& item, std::string* key_scratch,
                        std::vector<std::size_t>* out) const override {
    out->clear();
    AppendBlockingKey(item, property_, prefix_length_, key_scratch);
    if (key_scratch->empty()) return;
    AppendBlocks(*key_scratch, out);
  }
  std::size_t num_local() const override { return num_local_; }

  bool HasScheme(const std::string& property,
                 std::size_t prefix_length) const {
    return property == property_ && prefix_length == prefix_length_;
  }

 private:
  void AppendBlocks(std::string_view key,
                    std::vector<std::size_t>* out) const {
    if (base_ != nullptr) base_->AppendBlocks(key, out);
    if (const std::vector<std::size_t>* block = blocks_.Find(key)) {
      out->insert(out->end(), block->begin(), block->end());
    }
  }

  std::shared_ptr<const StandardItemIndex> base_;
  std::string property_;
  std::size_t prefix_length_;
  KeyBlocks blocks_;  // global local indices
  std::size_t num_local_;
};

}  // namespace

std::vector<CandidatePair> StandardBlocker::Generate(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  return FlattenRuns(*BuildIndex(external, local));
}

std::unique_ptr<CandidateIndex> StandardBlocker::BuildIndex(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  // The blocks, kept instead of expanding the cross product, plus each
  // external item's key id.
  KeyBlocks table =
      BuildKeyBlocks(local, property_, prefix_length_, /*offset=*/0);
  std::vector<util::SymbolId> external_key(external.size());
  std::string key;
  for (std::size_t e = 0; e < external.size(); ++e) {
    AppendBlockingKey(external[e], property_, prefix_length_, &key);
    external_key[e] = table.keys.Find(key);
  }
  return std::make_unique<StandardBlockIndex>(std::move(table.blocks),
                                              std::move(external_key));
}

std::unique_ptr<ItemCandidateIndex> StandardBlocker::BuildItemIndex(
    const std::vector<core::Item>& local) const {
  return std::make_unique<StandardItemIndex>(
      nullptr, property_, prefix_length_,
      BuildKeyBlocks(local, property_, prefix_length_, /*offset=*/0),
      local.size());
}

std::unique_ptr<ItemCandidateIndex> StandardBlocker::ExtendItemIndex(
    std::shared_ptr<const ItemCandidateIndex> base,
    const std::vector<core::Item>& delta) const {
  // Only an index built with this exact key scheme can be extended: the
  // delta layer must block on the same (property, prefix) or the combined
  // index would mix incompatible keys.
  const auto* layer = dynamic_cast<const StandardItemIndex*>(base.get());
  if (layer == nullptr || !layer->HasScheme(property_, prefix_length_)) {
    return nullptr;
  }
  const std::size_t offset = base->num_local();
  return std::make_unique<StandardItemIndex>(
      std::static_pointer_cast<const StandardItemIndex>(std::move(base)),
      property_, prefix_length_,
      BuildKeyBlocks(delta, property_, prefix_length_, offset),
      offset + delta.size());
}

std::string StandardBlocker::name() const {
  return "standard(" + property_ + "," + std::to_string(prefix_length_) + ")";
}

}  // namespace rulelink::blocking
