#include "blocking/blocker.h"

#include <algorithm>

#include "util/string_util.h"

namespace rulelink::blocking {
namespace {

// The fallback index for generators without an inverted structure of their
// own: Generate's sorted pair list in CSR form. Still O(candidates) memory
// at build time, but the streaming consumer keeps its per-run interface.
class MaterializedCandidateIndex : public CandidateIndex {
 public:
  MaterializedCandidateIndex(std::vector<CandidatePair> pairs,
                             std::size_t num_external)
      : offsets_(num_external + 1, 0) {
    locals_.reserve(pairs.size());
    for (const CandidatePair& pair : pairs) {
      ++offsets_[pair.external_index + 1];
      locals_.push_back(pair.local_index);
    }
    for (std::size_t e = 1; e < offsets_.size(); ++e) {
      offsets_[e] += offsets_[e - 1];
    }
  }

  void CandidatesOf(std::size_t external_index,
                    std::vector<std::size_t>* out) const override {
    out->assign(locals_.begin() + offsets_[external_index],
                locals_.begin() + offsets_[external_index + 1]);
  }
  std::size_t num_external() const override { return offsets_.size() - 1; }

 private:
  std::vector<std::size_t> offsets_;  // by external index
  std::vector<std::size_t> locals_;
};

class CartesianCandidateIndex : public CandidateIndex {
 public:
  CartesianCandidateIndex(std::size_t num_external, std::size_t num_local)
      : num_external_(num_external), num_local_(num_local) {}

  void CandidatesOf(std::size_t,
                    std::vector<std::size_t>* out) const override {
    out->resize(num_local_);
    for (std::size_t l = 0; l < num_local_; ++l) (*out)[l] = l;
  }
  std::size_t num_external() const override { return num_external_; }

 private:
  std::size_t num_external_;
  std::size_t num_local_;
};

class CartesianItemIndex : public ItemCandidateIndex {
 public:
  explicit CartesianItemIndex(std::size_t num_local)
      : num_local_(num_local) {}

  void CandidatesOfItem(const core::Item&, std::string*,
                        std::vector<std::size_t>* out) const override {
    out->resize(num_local_);
    for (std::size_t l = 0; l < num_local_; ++l) (*out)[l] = l;
  }
  std::size_t num_local() const override { return num_local_; }

 private:
  std::size_t num_local_;
};

}  // namespace

std::vector<CandidatePair> FlattenRuns(const CandidateIndex& index) {
  std::vector<CandidatePair> pairs;
  std::vector<std::size_t> run;
  for (std::size_t e = 0; e < index.num_external(); ++e) {
    index.CandidatesOf(e, &run);
    for (const std::size_t l : run) pairs.push_back(CandidatePair{e, l});
  }
  return pairs;
}

std::unique_ptr<CandidateIndex> CandidateGenerator::BuildIndex(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  return std::make_unique<MaterializedCandidateIndex>(
      Generate(external, local), external.size());
}

std::unique_ptr<ItemCandidateIndex> CandidateGenerator::BuildItemIndex(
    const std::vector<core::Item>&) const {
  // Most generators resolve candidates from the external *list* (sorting,
  // windowing, cross-item statistics) and cannot probe one unseen item;
  // the ones that can (key-based, cartesian) override this.
  return nullptr;
}

std::unique_ptr<ItemCandidateIndex> CandidateGenerator::ExtendItemIndex(
    std::shared_ptr<const ItemCandidateIndex>,
    const std::vector<core::Item>&) const {
  // A generator that cannot build an item index cannot extend one either,
  // and even an item-capable generator can only extend indexes built with
  // its own key scheme — overrides check and fall back to null.
  return nullptr;
}

std::unique_ptr<CandidateIndex> CartesianBlocker::BuildIndex(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  return std::make_unique<CartesianCandidateIndex>(external.size(),
                                                   local.size());
}

std::unique_ptr<ItemCandidateIndex> CartesianBlocker::BuildItemIndex(
    const std::vector<core::Item>& local) const {
  return std::make_unique<CartesianItemIndex>(local.size());
}

std::unique_ptr<ItemCandidateIndex> CartesianBlocker::ExtendItemIndex(
    std::shared_ptr<const ItemCandidateIndex> base,
    const std::vector<core::Item>& delta) const {
  // Every local is a candidate either way; the extension is just a wider
  // iota, so nothing of the base needs to be kept.
  if (dynamic_cast<const CartesianItemIndex*>(base.get()) == nullptr) {
    return nullptr;
  }
  return std::make_unique<CartesianItemIndex>(base->num_local() +
                                              delta.size());
}

std::vector<CandidatePair> CartesianBlocker::Generate(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local) const {
  return FlattenRuns(*BuildIndex(external, local));
}

std::string BlockingKey(const core::Item& item, const std::string& property,
                        std::size_t prefix_length) {
  std::string key;
  AppendBlockingKey(item, property, prefix_length, &key);
  return key;
}

void AppendBlockingKey(const core::Item& item, const std::string& property,
                       std::size_t prefix_length, std::string* key) {
  key->clear();
  for (const auto& pv : item.facts) {
    if (pv.property != property) continue;
    // In-place equivalent of AsciiToLower + truncate: same bytes out, but
    // the caller's buffer capacity is reused.
    key->assign(pv.value, 0,
                prefix_length > 0
                    ? std::min(prefix_length, pv.value.size())
                    : pv.value.size());
    for (char& c : *key) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return;
  }
}

}  // namespace rulelink::blocking
