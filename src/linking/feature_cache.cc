#include "linking/feature_cache.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace rulelink::linking {
namespace {

// The separators JaccardTokenSimilarity and MongeElkanSimilarity split on;
// the cached measures are only byte-identical if tokenization matches.
constexpr char kTokenSeparators[] = " \t\n\r";

}  // namespace

FeatureDictionary::FeatureDictionary(const FeatureDictionary* base)
    : base_(base),
      base_offset_(static_cast<ValueId>(base->num_symbols())) {
  RL_CHECK(base != nullptr);
}

void FeatureDictionary::EnsureSlot(ValueId local) {
  if (local >= spans_.size()) spans_.resize(local + 1);
}

ValueId FeatureDictionary::FindSymbol(std::string_view s) const {
  if (base_ != nullptr) {
    const ValueId found = base_->FindSymbol(s);
    if (found != util::kInvalidSymbolId) return found;
  }
  const ValueId local = strings_.Find(s);
  return local == util::kInvalidSymbolId ? util::kInvalidSymbolId
                                         : local + base_offset_;
}

ValueId FeatureDictionary::FindBuiltValue(std::string_view s) const {
  // Deepest-first: the level closest to the root that built the value is
  // the id every cache over this chain agreed on when it was built (and at
  // most one level holds a given string as a built value, since building
  // at level k implies no level below k had built it).
  if (base_ != nullptr) {
    const ValueId found = base_->FindBuiltValue(s);
    if (found != util::kInvalidSymbolId) return found;
  }
  const ValueId local = strings_.Find(s);
  if (local != util::kInvalidSymbolId && local < spans_.size() &&
      spans_[local].built) {
    return local + base_offset_;
  }
  return util::kInvalidSymbolId;
}

bool FeatureDictionary::IsBuiltValue(ValueId id) const {
  if (base_ != nullptr && id < base_offset_) return base_->IsBuiltValue(id);
  const ValueId local = id - base_offset_;
  return local < spans_.size() && spans_[local].built;
}

text::TokenId FeatureDictionary::InternSymbol(std::string_view s) {
  if (base_ != nullptr) {
    // Any symbol kind will do for tokens/bigrams — only equality and sort
    // order matter downstream, and the base's id is the canonical one for
    // this string in the combined universe.
    const ValueId found = base_->FindSymbol(s);
    if (found != util::kInvalidSymbolId) return found;
  }
  return strings_.Intern(s) + base_offset_;
}

std::uint32_t FeatureDictionary::AppendSorted(
    const std::vector<text::TokenId>& ids, std::vector<text::TokenId>* pool) {
  const std::size_t begin = pool->size();
  pool->insert(pool->end(), ids.begin(), ids.end());
  std::sort(pool->begin() + begin, pool->end());
  std::uint32_t unique = 0;
  for (std::size_t i = begin; i < pool->size(); ++i) {
    if (i == begin || (*pool)[i] != (*pool)[i - 1]) ++unique;
  }
  return unique;
}

void FeatureDictionary::BuildFeatures(ValueId local) {
  const std::string_view value = strings_.View(local);

  std::vector<text::TokenId> token_ids;
  {
    const auto token_views = util::SplitAny(value, kTokenSeparators);
    token_ids.reserve(token_views.size());
    for (std::string_view token : token_views) {
      token_ids.push_back(InternSymbol(token));
    }
  }
  std::vector<text::TokenId> bigram_ids;
  {
    std::vector<std::string_view> gram_views;
    text::CharacterBigramViews(value, &gram_views);
    bigram_ids.reserve(gram_views.size());
    for (std::string_view gram : gram_views) {
      bigram_ids.push_back(InternSymbol(gram));
    }
  }

  RL_CHECK(ordered_tokens_.size() + token_ids.size() <
           std::numeric_limits<std::uint32_t>::max());
  RL_CHECK(sorted_bigrams_.size() + bigram_ids.size() <
           std::numeric_limits<std::uint32_t>::max());

  // Interning the tokens/bigrams may have grown the symbol table past the
  // spans table; re-establish the slot before writing through it.
  EnsureSlot(local);
  Spans& spans = spans_[local];
  spans.tok_begin = static_cast<std::uint32_t>(ordered_tokens_.size());
  ordered_tokens_.insert(ordered_tokens_.end(), token_ids.begin(),
                         token_ids.end());
  spans.tok_end = static_cast<std::uint32_t>(ordered_tokens_.size());
  spans.tok_unique = AppendSorted(token_ids, &sorted_tokens_);
  spans.big_begin = static_cast<std::uint32_t>(sorted_bigrams_.size());
  AppendSorted(bigram_ids, &sorted_bigrams_);
  spans.big_end = static_cast<std::uint32_t>(sorted_bigrams_.size());
  spans.built = true;
  ++num_values_;
}

ValueId FeatureDictionary::AddValue(std::string_view value) {
  if (base_ != nullptr) {
    // Reuse a chain id only where it carries built features; a chain
    // symbol that is merely a token/bigram gets a fresh overlay value id
    // instead (no built value anywhere in the chain shares its string, so
    // id equality still implies string equality across the union). The
    // search must be by built-value, not FindSymbol: with stacked overlays
    // a string can be an unbuilt token at the root and a built value at a
    // middle level, and FindSymbol would surface the root token id.
    const ValueId found = base_->FindBuiltValue(value);
    if (found != util::kInvalidSymbolId) {
      ++values_reused_;
      return found;
    }
  }
  const ValueId local = strings_.Intern(value);
  EnsureSlot(local);
  if (spans_[local].built) {
    ++values_reused_;
    return local + base_offset_;
  }
  BuildFeatures(local);
  return local + base_offset_;
}

FeatureDictionary::ValueFeatures FeatureDictionary::Features(
    ValueId id) const {
  if (base_ != nullptr && id < base_offset_) return base_->Features(id);
  const ValueId local = id - base_offset_;
  RL_DCHECK(local < spans_.size() && spans_[local].built)
      << "Features() of a symbol that is not a built value";
  const Spans& spans = spans_[local];
  ValueFeatures features;
  features.text = strings_.View(local);
  features.ordered_tokens = ordered_tokens_.data() + spans.tok_begin;
  features.sorted_tokens = sorted_tokens_.data() + spans.tok_begin;
  features.num_tokens = spans.tok_end - spans.tok_begin;
  features.num_unique_tokens = spans.tok_unique;
  features.sorted_bigrams = sorted_bigrams_.data() + spans.big_begin;
  features.num_bigrams = spans.big_end - spans.big_begin;
  return features;
}

std::vector<ValueId> FeatureDictionary::Absorb(
    const FeatureDictionary& local) {
  RL_DCHECK(base_ == nullptr && local.base_ == nullptr)
      << "Absorb is a root-dictionary merge; overlays never absorb";
  std::vector<ValueId> remap(local.strings_.size(), util::kInvalidSymbolId);
  for (ValueId id = 0; id < local.strings_.size(); ++id) {
    remap[id] = strings_.Intern(local.strings_.View(id));
  }
  std::vector<text::TokenId> scratch;
  for (ValueId id = 0; id < local.spans_.size(); ++id) {
    const Spans& src = local.spans_[id];
    if (!src.built) continue;
    const ValueId global = remap[id];
    EnsureSlot(global);
    if (spans_[global].built) {
      ++values_reused_;
      continue;
    }
    // Re-state the value's features in this dictionary's id universe. The
    // sorted sequences must be re-sorted because the remap does not
    // preserve id order; cardinalities (all any scorer reads from them)
    // are unaffected.
    Spans& dst = spans_[global];
    dst.tok_begin = static_cast<std::uint32_t>(ordered_tokens_.size());
    scratch.clear();
    for (std::uint32_t i = src.tok_begin; i < src.tok_end; ++i) {
      scratch.push_back(remap[local.ordered_tokens_[i]]);
    }
    ordered_tokens_.insert(ordered_tokens_.end(), scratch.begin(),
                           scratch.end());
    dst.tok_end = static_cast<std::uint32_t>(ordered_tokens_.size());
    dst.tok_unique = AppendSorted(scratch, &sorted_tokens_);
    scratch.clear();
    for (std::uint32_t i = src.big_begin; i < src.big_end; ++i) {
      scratch.push_back(remap[local.sorted_bigrams_[i]]);
    }
    dst.big_begin = static_cast<std::uint32_t>(sorted_bigrams_.size());
    AppendSorted(scratch, &sorted_bigrams_);
    dst.big_end = static_cast<std::uint32_t>(sorted_bigrams_.size());
    dst.built = true;
    ++num_values_;
  }
  return remap;
}

std::size_t FeatureDictionary::memory_bytes() const {
  return strings_.arena_bytes() + spans_.capacity() * sizeof(Spans) +
         (ordered_tokens_.capacity() + sorted_tokens_.capacity() +
          sorted_bigrams_.capacity()) *
             sizeof(text::TokenId);
}

FeatureCache FeatureCache::Build(const std::vector<core::Item>& items,
                                 const ItemMatcher& matcher, Side side,
                                 FeatureDictionary* dict,
                                 std::size_t num_threads,
                                 obs::MetricsRegistry* metrics) {
  RL_CHECK(dict != nullptr);
  const obs::MetricsRegistry::StageScope stage(metrics,
                                               "linking/cache_build");
  if (metrics != nullptr) {
    // `values_reused` and the dictionary's id numbering depend on the
    // chunking, so only thread-invariant quantities are recorded here.
    metrics->AddCounter(side == Side::kExternal
                            ? "linking/cache/external_items"
                            : "linking/cache/local_items",
                        items.size());
  }
  const auto& rules = matcher.rules();
  std::vector<const std::string*> properties;
  properties.reserve(rules.size());
  for (const AttributeRule& rule : rules) {
    properties.push_back(side == Side::kExternal ? &rule.external_property
                                                 : &rule.local_property);
  }

  FeatureCache cache;
  cache.dict_ = dict;
  cache.num_items_ = items.size();
  cache.num_rules_ = rules.size();
  cache.offsets_.reserve(items.size() * rules.size() + 1);
  cache.offsets_.push_back(0);

  // One slot per (item, rule): append the ids of the item's values under
  // that rule's property. `emit` flushes one slot's ids into the cache.
  const auto finish_slot = [&cache] {
    RL_CHECK(cache.value_ids_.size() <
             std::numeric_limits<std::uint32_t>::max());
    cache.offsets_.push_back(
        static_cast<std::uint32_t>(cache.value_ids_.size()));
  };

  // Each slot carries a private FeatureDictionary (interner + arena), so
  // morsels are deliberately coarse: fewer, bigger slots amortize the
  // dictionary cost and keep the Absorb merge short.
  constexpr std::size_t kItemsPerMorsel = 4096;
  const std::size_t chunks =
      util::ParallelSlots(num_threads, items.size(), kItemsPerMorsel);
  if (chunks <= 1) {
    // Serial path: intern straight into the shared dictionary.
    for (const core::Item& item : items) {
      for (const std::string* property : properties) {
        for (const core::PropertyValue& fact : item.facts) {
          if (fact.property != *property) continue;
          cache.value_ids_.push_back(dict->AddValue(fact.value));
        }
        finish_slot();
      }
    }
    cache.BuildLanes(num_threads);
    return cache;
  }

  // Parallel path: each chunk builds into a private dictionary (interning
  // is not thread-safe), then the chunks are folded into the shared one in
  // chunk order — the same merge discipline as the learner's sharded
  // counting (DESIGN.md §5b).
  struct Shard {
    FeatureDictionary dict;
    std::vector<ValueId> ids;           // slot-major, chunk-local ids
    std::vector<std::uint32_t> counts;  // ids per slot
  };
  std::vector<Shard> shards(chunks);
  util::ParallelFor(
      num_threads, items.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        Shard& shard = shards[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          for (const std::string* property : properties) {
            std::uint32_t count = 0;
            for (const core::PropertyValue& fact : items[i].facts) {
              if (fact.property != *property) continue;
              shard.ids.push_back(shard.dict.AddValue(fact.value));
              ++count;
            }
            shard.counts.push_back(count);
          }
        }
      },
      kItemsPerMorsel);
  for (Shard& shard : shards) {
    const std::vector<ValueId> remap = dict->Absorb(shard.dict);
    std::size_t next = 0;
    for (const std::uint32_t count : shard.counts) {
      for (std::uint32_t k = 0; k < count; ++k) {
        cache.value_ids_.push_back(remap[shard.ids[next++]]);
      }
      finish_slot();
    }
  }
  RL_CHECK(cache.offsets_.size() == items.size() * rules.size() + 1);
  cache.BuildLanes(num_threads);
  return cache;
}

FeatureCache FeatureCache::ExtendFrom(const FeatureCache& base,
                                      const std::vector<core::Item>& delta_items,
                                      const ItemMatcher& matcher, Side side,
                                      FeatureDictionary* dict,
                                      obs::MetricsRegistry* metrics) {
  RL_CHECK(dict != nullptr);
  // The new dictionary must extend the base cache's own dictionary (not
  // merely share its root): the copied value ids were issued by
  // base.dict(), and only a direct overlay (or the same still-growing
  // root) keeps every one of them resolvable without collisions.
  RL_CHECK(dict == &base.dict() || dict->base() == &base.dict())
      << "ExtendFrom needs base.dict() itself or a direct overlay over it";
  const obs::MetricsRegistry::StageScope stage(metrics,
                                               "linking/cache_extend");
  if (metrics != nullptr) {
    metrics->AddCounter(side == Side::kExternal
                            ? "linking/cache/external_delta_items"
                            : "linking/cache/local_delta_items",
                        delta_items.size());
  }
  const auto& rules = matcher.rules();
  RL_CHECK(rules.size() == base.num_rules_)
      << "ExtendFrom cannot change the rule slot layout";
  std::vector<const std::string*> properties;
  properties.reserve(rules.size());
  for (const AttributeRule& rule : rules) {
    properties.push_back(side == Side::kExternal ? &rule.external_property
                                                 : &rule.local_property);
  }

  FeatureCache cache;
  cache.dict_ = dict;
  cache.num_items_ = base.num_items_ + delta_items.size();
  cache.num_rules_ = base.num_rules_;
  // Flat copies of the predecessor's CSR index and SoA lanes — O(catalog)
  // memcpy, no re-tokenization, no dictionary traffic.
  cache.offsets_ = base.offsets_;
  cache.value_ids_ = base.value_ids_;
  cache.lane_lengths_ = base.lane_lengths_;
  cache.lane_unique_tokens_ = base.lane_unique_tokens_;
  cache.lane_bigrams_ = base.lane_bigrams_;
  cache.lane_value_ids_ = base.lane_value_ids_;

  // Append the delta items' slots, interning serially through `dict` (the
  // same discipline as Build's serial path; deltas are small by design).
  for (const core::Item& item : delta_items) {
    for (const std::string* property : properties) {
      for (const core::PropertyValue& fact : item.facts) {
        if (fact.property != *property) continue;
        cache.value_ids_.push_back(dict->AddValue(fact.value));
      }
      RL_CHECK(cache.value_ids_.size() <
               std::numeric_limits<std::uint32_t>::max());
      cache.offsets_.push_back(
          static_cast<std::uint32_t>(cache.value_ids_.size()));
    }
  }
  RL_CHECK(cache.offsets_.size() ==
           cache.num_items_ * cache.num_rules_ + 1);

  const std::size_t slots = cache.num_items_ * cache.num_rules_;
  cache.lane_lengths_.resize(slots, 0);
  cache.lane_unique_tokens_.resize(slots, 0);
  cache.lane_bigrams_.resize(slots, 0);
  cache.lane_value_ids_.resize(slots, util::kInvalidSymbolId);
  cache.FillLanes(base.num_items_, cache.num_items_);
  return cache;
}

void FeatureCache::AssignSingle(const core::Item& item,
                                const ItemMatcher& matcher, Side side,
                                FeatureDictionary* dict) {
  RL_CHECK(dict != nullptr);
  const auto& rules = matcher.rules();
  dict_ = dict;
  num_items_ = 1;
  num_rules_ = rules.size();
  offsets_.clear();
  value_ids_.clear();
  offsets_.push_back(0);
  for (const AttributeRule& rule : rules) {
    const std::string& property = side == Side::kExternal
                                      ? rule.external_property
                                      : rule.local_property;
    for (const core::PropertyValue& fact : item.facts) {
      if (fact.property != property) continue;
      value_ids_.push_back(dict->AddValue(fact.value));
    }
    offsets_.push_back(static_cast<std::uint32_t>(value_ids_.size()));
  }
  // Serial lane fill: ParallelFor at one thread runs inline with no pool,
  // no locks and no allocation, so the whole rebuild stays on this thread.
  BuildLanes(1);
}

void FeatureCache::BuildLanes(std::size_t num_threads) {
  const std::size_t slots = num_items_ * num_rules_;
  lane_lengths_.assign(slots, 0);
  lane_unique_tokens_.assign(slots, 0);
  lane_bigrams_.assign(slots, 0);
  lane_value_ids_.assign(slots, util::kInvalidSymbolId);
  if (slots == 0) return;
  // Pure replication of already-built per-value features into flat
  // arrays: every write targets this item's own slots, and the dictionary
  // is only read, so items parallelize freely.
  util::ParallelFor(num_threads, num_items_,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      FillLanes(begin, end);
                    });
}

void FeatureCache::FillLanes(std::size_t begin, std::size_t end) {
  const FeatureDictionary& dict = *dict_;
  for (std::size_t item = begin; item < end; ++item) {
    for (std::size_t r = 0; r < num_rules_; ++r) {
      const std::size_t slot = item * num_rules_ + r;
      const std::uint32_t lo = offsets_[slot];
      const std::uint32_t hi = offsets_[slot + 1];
      // A missing or multi-valued slot keeps empty lanes.
      if (hi - lo != 1) continue;
      const ValueId id = value_ids_[lo];
      const FeatureDictionary::ValueFeatures features = dict.Features(id);
      lane_lengths_[slot] = static_cast<std::uint32_t>(features.text.size());
      lane_unique_tokens_[slot] = features.num_unique_tokens;
      lane_bigrams_[slot] = features.num_bigrams;
      lane_value_ids_[slot] = id;
    }
  }
}

std::size_t FeatureCache::memory_bytes() const {
  return offsets_.capacity() * sizeof(std::uint32_t) +
         value_ids_.capacity() * sizeof(ValueId) +
         (lane_lengths_.capacity() + lane_unique_tokens_.capacity() +
          lane_bigrams_.capacity()) *
             sizeof(std::uint32_t) +
         lane_value_ids_.capacity() * sizeof(ValueId);
}

}  // namespace rulelink::linking
