#include "linking/feature_cache.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace rulelink::linking {
namespace {

// The separators JaccardTokenSimilarity and MongeElkanSimilarity split on;
// the cached measures are only byte-identical if tokenization matches.
constexpr char kTokenSeparators[] = " \t\n\r";

// Sorts (*pool)[begin, end) in place and returns its distinct count.
std::uint32_t SortTail(std::vector<text::TokenId>* pool, std::size_t begin) {
  const auto first = pool->begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, pool->end());
  std::uint32_t unique = 0;
  for (auto it = first; it != pool->end(); ++it) {
    if (it == first || *it != it[-1]) ++unique;
  }
  return unique;
}

// The count a `measure` rule's stage-A bound reads of a value
// (SlotRecord::count).
std::uint32_t SlotCount(SimilarityMeasure measure,
                        const FeatureDictionary::ValueFeatures& features) {
  switch (measure) {
    case SimilarityMeasure::kLevenshtein:
    case SimilarityMeasure::kJaro:
    case SimilarityMeasure::kJaroWinkler:
      return static_cast<std::uint32_t>(features.text.size());
    case SimilarityMeasure::kDiceBigram:
      return features.num_bigrams;
    case SimilarityMeasure::kJaccardTokens:
      return features.num_unique_tokens;
    case SimilarityMeasure::kExact:
    case SimilarityMeasure::kMongeElkan:
      break;
  }
  return 0;
}

}  // namespace

bool SlotSignature(SimilarityMeasure measure, std::string_view value,
                   std::uint8_t* out) {
  switch (measure) {
    case SimilarityMeasure::kLevenshtein:
    case SimilarityMeasure::kJaro:
    case SimilarityMeasure::kJaroWinkler:
      text::ByteSignature(value, out);
      return true;
    case SimilarityMeasure::kDiceBigram:
      text::BigramSignature(value, out);
      return true;
    case SimilarityMeasure::kJaccardTokens:
      text::TokenSetSignature(value, out);
      return true;
    case SimilarityMeasure::kExact:
    case SimilarityMeasure::kMongeElkan:
      break;
  }
  return false;
}

FeatureDictionary::FeatureMask FeatureDictionary::FeaturesReadBy(
    const ItemMatcher& matcher) {
  FeatureMask read = 0;
  for (const AttributeRule& rule : matcher.rules()) {
    switch (rule.measure) {
      case SimilarityMeasure::kJaccardTokens:
      case SimilarityMeasure::kMongeElkan:
        read |= kTokens;
        break;
      case SimilarityMeasure::kDiceBigram:
        read |= kBigrams;
        break;
      case SimilarityMeasure::kExact:
      case SimilarityMeasure::kLevenshtein:
      case SimilarityMeasure::kJaro:
      case SimilarityMeasure::kJaroWinkler:
        break;
    }
  }
  return read;
}

FeatureDictionary::FeatureDictionary(const FeatureDictionary* base)
    : base_(base) {
  RL_CHECK(base != nullptr) << "an overlay dictionary needs a base";
  base_offset_ = static_cast<ValueId>(base->num_symbols());
  features_ = base->features_;
}

void FeatureDictionary::RequireFeaturesOf(const ItemMatcher& matcher) {
  const FeatureMask read = FeaturesReadBy(matcher);
  if (base_ == nullptr && strings_.empty()) features_ = read;
  RL_CHECK((read & ~features_) == 0)
      << "the matcher reads features (mask " << static_cast<int>(read)
      << ") this dictionary does not build (mask "
      << static_cast<int>(features_)
      << "); build its caches over a dictionary of their own";
}

void FeatureDictionary::EnsureSlot(ValueId local) {
  if (local >= spans_.size()) spans_.resize(local + 1);
}

ValueId FeatureDictionary::FindSymbol(std::string_view s,
                                      std::uint64_t hash) const {
  if (base_ != nullptr) {
    const ValueId found = base_->FindSymbol(s, hash);
    if (found != util::kInvalidSymbolId) return found;
  }
  const ValueId local = strings_.Find(s, hash);
  return local == util::kInvalidSymbolId ? util::kInvalidSymbolId
                                         : local + base_offset_;
}

ValueId FeatureDictionary::FindBuiltValue(std::string_view s,
                                          std::uint64_t hash) const {
  // Deepest-first: the level closest to the root that built the value is
  // the id every cache over this chain agreed on when it was built (and at
  // most one level holds a given string as a built value, since building
  // at level k implies no level below k had built it).
  if (base_ != nullptr) {
    const ValueId found = base_->FindBuiltValue(s, hash);
    if (found != util::kInvalidSymbolId) return found;
  }
  const ValueId local = strings_.Find(s, hash);
  if (local != util::kInvalidSymbolId && IsBuiltLocal(local)) {
    return local + base_offset_;
  }
  return util::kInvalidSymbolId;
}

text::TokenId FeatureDictionary::InternSymbol(std::string_view s) {
  const std::uint64_t hash = util::StringInterner::Hash(s);
  if (base_ != nullptr) {
    // Any symbol kind will do for tokens/bigrams — only equality and sort
    // order matter downstream, and the base's id is the canonical one for
    // this string in the combined universe.
    const ValueId found = base_->FindSymbol(s, hash);
    if (found != util::kInvalidSymbolId) return found;
  }
  return strings_.Intern(s, hash) + base_offset_;
}

void FeatureDictionary::BuildFeatures(ValueId local) {
  // The value's bytes live in the interner's arena, which never moves, so
  // its views survive the interning below.
  const std::string_view value = strings_.View(local);
  Spans spans;
  if ((features_ & kTokens) != 0) {
    pieces_.clear();
    util::SplitAnyInto(value, kTokenSeparators, &pieces_);
    const std::size_t begin = ordered_tokens_.size();
    RL_CHECK(begin + pieces_.size() <
             std::numeric_limits<std::uint32_t>::max());
    for (std::string_view token : pieces_) {
      ordered_tokens_.push_back(InternSymbol(token));
    }
    sorted_tokens_.insert(sorted_tokens_.end(),
                          ordered_tokens_.begin() +
                              static_cast<std::ptrdiff_t>(begin),
                          ordered_tokens_.end());
    spans.tok_begin = static_cast<std::uint32_t>(begin);
    spans.tok_end = static_cast<std::uint32_t>(ordered_tokens_.size());
    spans.tok_unique = SortTail(&sorted_tokens_, begin);
  }
  if ((features_ & kBigrams) != 0) {
    pieces_.clear();
    text::CharacterBigramViews(value, &pieces_);
    const std::size_t begin = sorted_bigrams_.size();
    RL_CHECK(begin + pieces_.size() <
             std::numeric_limits<std::uint32_t>::max());
    for (std::string_view gram : pieces_) {
      sorted_bigrams_.push_back(InternSymbol(gram));
    }
    spans.big_begin = static_cast<std::uint32_t>(begin);
    spans.big_end = static_cast<std::uint32_t>(sorted_bigrams_.size());
    SortTail(&sorted_bigrams_, begin);
  }
  ++num_values_;
  if (features_ == 0) return;
  spans.built = true;
  // Interning the tokens/bigrams may have grown the symbol table past the
  // spans table; re-establish the slot before writing through it.
  EnsureSlot(local);
  spans_[local] = spans;
}

ValueId FeatureDictionary::AddValue(std::string_view value) {
  const std::uint64_t hash = util::StringInterner::Hash(value);
  if (base_ != nullptr) {
    // Reuse a chain id only where it carries built features; a chain
    // symbol that is merely a token/bigram gets a fresh overlay value id
    // instead (no built value anywhere in the chain shares its string, so
    // id equality still implies string equality across the union). The
    // search must be by built-value, not FindSymbol: with stacked overlays
    // a string can be an unbuilt token at the root and a built value at a
    // middle level, and FindSymbol would surface the root token id.
    const ValueId found = base_->FindBuiltValue(value, hash);
    if (found != util::kInvalidSymbolId) {
      ++values_reused_;
      return found;
    }
  }
  const std::size_t known = strings_.size();
  const ValueId local = strings_.Intern(value, hash);
  if (local < known && IsBuiltLocal(local)) {
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
  RL_DCHECK(IsBuiltLocal(local))
      << "Features() of a symbol that is not a built value";
  ValueFeatures features;
  features.text = strings_.View(local);
  if (features_ == 0) return features;
  const Spans& spans = spans_[local];
  features.ordered_tokens = ordered_tokens_.data() + spans.tok_begin;
  features.sorted_tokens = sorted_tokens_.data() + spans.tok_begin;
  features.num_tokens = spans.tok_end - spans.tok_begin;
  features.num_unique_tokens = spans.tok_unique;
  features.sorted_bigrams = sorted_bigrams_.data() + spans.big_begin;
  features.num_bigrams = spans.big_end - spans.big_begin;
  return features;
}

std::size_t FeatureDictionary::memory_bytes() const {
  return strings_.memory_bytes() + spans_.capacity() * sizeof(Spans) +
         (ordered_tokens_.capacity() + sorted_tokens_.capacity() +
          sorted_bigrams_.capacity()) *
             sizeof(text::TokenId);
}

FeatureCache FeatureCache::Build(const std::vector<core::Item>& items,
                                 const ItemMatcher& matcher, Side side,
                                 FeatureDictionary* dict,
                                 std::size_t /*num_threads*/,
                                 obs::MetricsRegistry* metrics) {
  RL_CHECK(dict != nullptr);
  const obs::MetricsRegistry::StageScope stage(metrics,
                                               "linking/cache_build");
  if (metrics != nullptr) {
    metrics->AddCounter(side == Side::kExternal
                            ? "linking/cache/external_items"
                            : "linking/cache/local_items",
                        items.size());
  }
  dict->RequireFeaturesOf(matcher);
  FeatureCache cache;
  cache.dict_ = dict;
  cache.num_rules_ = matcher.rules().size();
  cache.Reserve(items.size());
  cache.offsets_.push_back(0);
  for (const core::Item& item : items) {
    cache.AppendItem(item, matcher, side, dict);
  }
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
  RL_CHECK(matcher.rules().size() == base.num_rules_)
      << "ExtendFrom cannot change the rule slot layout";
  dict->RequireFeaturesOf(matcher);
  const obs::MetricsRegistry::StageScope stage(metrics,
                                               "linking/cache_extend");
  if (metrics != nullptr) {
    metrics->AddCounter(side == Side::kExternal
                            ? "linking/cache/external_delta_items"
                            : "linking/cache/local_delta_items",
                        delta_items.size());
  }
  FeatureCache cache;
  cache.dict_ = dict;
  cache.num_items_ = base.num_items_;
  cache.num_rules_ = base.num_rules_;
  // Flat copies of the predecessor's CSR index and records — O(catalog)
  // memcpy, no re-tokenization, no dictionary traffic — then the delta
  // items' slots, interned through `dict` (deltas are small by design).
  cache.Reserve(base.num_items_ + delta_items.size());
  cache.offsets_ = base.offsets_;
  cache.value_ids_ = base.value_ids_;
  cache.records_ = base.records_;
  for (const core::Item& item : delta_items) {
    cache.AppendItem(item, matcher, side, dict);
  }
  return cache;
}

void FeatureCache::AssignSingle(const core::Item& item,
                                const ItemMatcher& matcher, Side side,
                                FeatureDictionary* dict) {
  RL_CHECK(dict != nullptr);
  // clear() keeps every vector's capacity, so at steady state the rebuild
  // allocates nothing (only a never-seen value string does, in `dict`).
  dict->RequireFeaturesOf(matcher);
  dict_ = dict;
  num_items_ = 0;
  num_rules_ = matcher.rules().size();
  offsets_.clear();
  value_ids_.clear();
  records_.clear();
  offsets_.push_back(0);
  AppendItem(item, matcher, side, dict);
}

void FeatureCache::Reserve(std::size_t items) {
  const std::size_t slots = items * num_rules_;
  offsets_.reserve(slots + 1);
  value_ids_.reserve(slots);
  records_.reserve(slots);
}

void FeatureCache::AppendItem(const core::Item& item,
                              const ItemMatcher& matcher, Side side,
                              FeatureDictionary* dict) {
  for (const AttributeRule& rule : matcher.rules()) {
    const std::string& property = side == Side::kExternal
                                      ? rule.external_property
                                      : rule.local_property;
    const std::size_t begin = value_ids_.size();
    for (const core::PropertyValue& fact : item.facts) {
      if (fact.property != property) continue;
      value_ids_.push_back(dict->AddValue(fact.value));
    }
    RL_CHECK(value_ids_.size() < std::numeric_limits<std::uint32_t>::max());
    offsets_.push_back(static_cast<std::uint32_t>(value_ids_.size()));
    // A missing or multi-valued slot keeps the invalid id and zeros.
    SlotRecord& record = records_.emplace_back();
    record.num_values = static_cast<std::uint32_t>(value_ids_.size() - begin);
    if (record.num_values != 1) continue;
    record.value_id = value_ids_[begin];
    const FeatureDictionary::ValueFeatures features =
        dict->Features(record.value_id);
    record.count = SlotCount(rule.measure, features);
    record.jaro_prefix = text::JaroPrefixBytes(features.text);
    SlotSignature(rule.measure, features.text, record.signature);
  }
  ++num_items_;
}

std::size_t FeatureCache::memory_bytes() const {
  return offsets_.capacity() * sizeof(std::uint32_t) +
         value_ids_.capacity() * sizeof(ValueId) +
         records_.capacity() * sizeof(SlotRecord);
}

}  // namespace rulelink::linking
